"""The bitmask suites against the Subset-based reference versions in
`oracles.py`: verdicts, witnesses, skip flags and details, clause by clause."""

import random
from dataclasses import replace

import pytest

from unsharp import (
    BUNDLED,
    Subset,
    adjointness_exchange_equivalence,
    characterization_agreement,
    check_comparable_contraposition,
    check_cone_equations,
    check_cone_level_adjointness,
    check_dual_adjointness,
    counterexample_search,
    element_implication_suite,
    enumerate_effect_algebras,
    fixture,
    from_effect_algebra,
    implication_table,
    implies,
    implies_sets,
    is_deductive_system,
    is_monotonous,
    set_implication_suite,
    validate_surp,
)

import oracles

# the bundled fixtures with at most 16 elements
FIXTURES = ("E9", "E6", "BOOL-1", "BOOL-2", "BOOL-3", "BOOL-4",
            *(f"CHAIN-{n}" for n in range(2, 17)))


@pytest.fixture(scope="module")
def labeled():
    'All 1,170 labeled effect algebras with at most seven elements.'
    algebras = [E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras]
    assert len(algebras) == 1170
    return algebras


@pytest.fixture(scope="module")
def fixtures():
    assert set(BUNDLED) <= set(FIXTURES)
    return [fixture(name) for name in FIXTURES]


def assert_suites_match(E):
    'th2, th4, the derived tables with C1-C5, and th3 where the sweep is small.'
    assert element_implication_suite(E) == oracles.element_implication_suite(E), E.name
    assert set_implication_suite(E) == oracles.set_implication_suite(E), E.name
    c = from_effect_algebra(E, validate=False)
    assert c == oracles.from_effect_algebra(E), E.name
    assert validate_surp(c) == oracles.validate_surp(c), E.name
    if E.n <= 12:
        assert characterization_agreement(E) == oracles.characterization_agreement(E)
    oracles.forget()


def assert_laws_match(E):
    'The other users of the shared tables: adjointness, contraposition, monotonicity.'
    c = from_effect_algebra(E, validate=False)
    assert check_dual_adjointness(c) == oracles.check_dual_adjointness(c), E.name
    assert adjointness_exchange_equivalence(E) == oracles.adjointness_exchange_equivalence(E)
    assert check_cone_level_adjointness(E) == oracles.check_cone_level_adjointness(E)
    assert check_comparable_contraposition(E) == oracles.check_comparable_contraposition(E)
    assert counterexample_search(E) == oracles.counterexample_search(E), E.name
    assert check_cone_equations(E) == oracles.check_cone_equations(E), E.name
    if E.n <= 9:
        assert is_monotonous(E) == oracles.is_monotonous(E), E.name
    oracles.forget()


def test_suites_match_oracle_on_labeled_corpus(labeled):
    for E in labeled:
        assert_suites_match(E)


def test_laws_match_oracle_on_labeled_corpus_up_to_six(labeled):
    # the n = 7 algebras are left to the suites above: the reference
    # versions of these laws alone would take half a minute there
    for E in labeled:
        if E.n <= 6:
            assert_laws_match(E)


def test_everything_matches_oracle_on_fixtures(fixtures):
    for E in fixtures:
        assert_suites_match(E)
        assert_laws_match(E)


def test_monotonicity_sampling_matches_oracle():
    for name in ("CHAIN-10", "CHAIN-12", "BOOL-4"):
        E = fixture(name)
        assert is_monotonous(E, samples=300, seed=5) == oracles.is_monotonous(
            E, samples=300, seed=5
        )


def test_implication_cells_match_oracle(fixtures):
    rng = random.Random(7)
    for E in fixtures:
        table = implication_table(E)
        for x in range(E.n):
            for y in range(E.n):
                assert table[x, y] == implies(E, x, y) == oracles.implies(E, x, y)
        for _ in range(50):
            a = Subset(rng.getrandbits(E.n), E.n)
            b = Subset(rng.getrandbits(E.n), E.n)
            assert implies_sets(E, a, b) == oracles.implies_sets(E, a, b), (E.name, a, b)


def test_deductive_check_matches_oracle_on_random_subsets(fixtures):
    rng = random.Random(11)
    for E in fixtures:
        for _ in range(200):
            d = Subset(rng.getrandbits(E.n) | (1 << E.one) * rng.randrange(2), E.n)
            assert is_deductive_system(E, d) == oracles.is_deductive_system(E, d), (E.name, d)


def mutations(c, rng, count):
    'Copies of the tables of `c` with one product or one implication cell changed.'
    n = c.n
    for _ in range(count):
        x, y = rng.randrange(n), rng.randrange(n)
        if rng.randrange(2):
            prods = [list(row) for row in c.products]
            prods[x][y] = rng.choice([None, *range(n)])
            yield replace(c, products=tuple(map(tuple, prods)))
        else:
            imps = [list(row) for row in c.imps]
            imps[x][y] = Subset(rng.getrandbits(n), n)
            yield replace(c, imps=tuple(map(tuple, imps)))


def test_mutated_tables_report_like_oracle():
    rng = random.Random(3)
    broken = set()
    for name in ("E9", "E6", "BOOL-3", "CHAIN-7"):
        c = from_effect_algebra(fixture(name), validate=False)
        for bad in mutations(c, rng, 150):
            rep = validate_surp(bad)
            assert rep == oracles.validate_surp(bad), name
            assert check_dual_adjointness(bad) == oracles.check_dual_adjointness(bad), name
            broken.update(v.axiom for v in rep.violations)
    # the mutations reach every condition with a witness
    assert {"C2", "C3", "C4"} <= broken
