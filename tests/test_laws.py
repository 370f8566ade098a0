import pytest

from unsharp import (
    check_comparable_contraposition,
    check_cone_level_adjointness,
    check_lattice_identity,
    contraposition_pair,
    enumerate_effect_algebras,
    fixture,
    identity_contraposition_equivalence,
    is_monotonous,
)
from unsharp.fixtures import boolean_to_ea
from unsharp.laws import counterexample_search

from conftest import idx


def test_worked_contraposition_pairs(e9):
    a, d, e = idx(e9, "a"), idx(e9, "d"), idx(e9, "e")
    ok, lhs, rhs = contraposition_pair(e9, a, d)
    assert not ok
    assert e9.render(lhs) == "{g,1}" and e9.render(rhs) == "{f,1}"
    ok, lhs, rhs = contraposition_pair(e9, e, a)
    assert ok and e9.render(lhs) == "{f,1}"


def test_e9_failure_census(e9):
    rep = counterexample_search(e9)
    assert len(rep.failing_pairs) == 16
    assert all(not v.comparable for v in rep.failing_pairs)
    assert rep.comparable_only_status
    pairs = {(e9.labels[v.x], e9.labels[v.y]) for v in rep.failing_pairs}
    assert ("a", "d") in pairs and ("d", "a") in pairs


def test_e6_failure_census(e6):
    rep = counterexample_search(e6)
    assert len(rep.failing_pairs) == 8
    assert all(not v.comparable for v in rep.failing_pairs)


def test_comparable_contraposition_everywhere(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = check_comparable_contraposition(E)
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


def test_lattice_identity_failures_on_e6(e6):
    rep = check_lattice_identity(e6)
    got = {
        (e6.labels[v.x], e6.labels[v.y], e6.render(v.lhs), e6.render(v.rhs))
        for v in rep.failing_pairs
    }
    assert ("a", "b", "{a'}", "{b}") in got
    assert len(rep.failing_pairs) == 8


def test_lattice_identity_requires_lattice(e9):
    with pytest.raises(ValueError):
        check_lattice_identity(e9)


def test_identity_holds_on_booleans():
    for k in (1, 2, 3):
        rep = check_lattice_identity(boolean_to_ea(k))
        assert not rep.failing_pairs


def test_equivalence_on_lattice_corpus(small_algebras, e6):
    lattices = [E for E in small_algebras if E.order.is_lattice()]
    assert lattices  # at this scale everything is a lattice
    for E in lattices + [e6, boolean_to_ea(2)]:
        eq = identity_contraposition_equivalence(E)
        assert eq.equivalent, E.name
    # the six-element example falsifies both sides at once
    eq6 = identity_contraposition_equivalence(e6)
    assert not eq6.identity_holds and not eq6.contraposition_holds


def test_boolean_construction():
    for k in (1, 2, 3, 4):
        E = boolean_to_ea(k)
        assert E.n == 2**k
        assert E.order.is_lattice()
        # joins of disjoint elements, undefined otherwise
        rep = counterexample_search(E)
        assert not rep.failing_pairs  # contraposition holds globally
    with pytest.raises(ValueError):
        boolean_to_ea(0)


def test_cone_adjointness_census(e9, e6):
    res9 = check_cone_level_adjointness(e9)
    assert not res9.holds_globally and not res9.monotonicity.holds
    assert tuple(e9.labels[i] for i in res9.witness) == ("a", "f", "0")
    res6 = check_cone_level_adjointness(e6)
    assert res6.holds_globally and res6.monotonicity.holds


def test_monotonous_implies_cone_adjointness(small_algebras):
    for E in small_algebras:
        res = check_cone_level_adjointness(E)
        if res.monotonicity.holds:
            assert res.holds_globally, E.name


def test_monotone_census_is_stable(small_algebras):
    # frozen regression: all 22 algebras with n <= 5 are monotonous
    assert len(small_algebras) == 22
    assert all(is_monotonous(E).holds for E in small_algebras)


def is_mv(E) -> bool:
    'An MV-effect algebra: a lattice in which x ^ y = 0 makes x + y defined.'
    p = E.order
    return p.is_lattice() and all(
        E.sums[x][y] is not None for x in range(E.n) for y in range(E.n) if p.meet(x, y) == E.zero)


def is_lukasiewicz(E) -> bool:
    "U(x -> y) is the up-set of x' + (x ^ y) for all x and y, and no pair breaks contraposition."
    p, comp = E.order, E.comp
    return all(E.up_imp_bits[x][y] == p.up[E.sums[comp[x]][p.meet(x, y)]]
               for x in range(E.n) for y in range(E.n)) and counterexample_search(E).holds_globally


def test_mv_algebras_have_the_lukasiewicz_implication_and_contrapose():
    # the proof in check_lattice_identity; CI checks the two classes at n = 10
    mv = [[E for E in enumerate_effect_algebras(n, up_to_iso=True).algebras if is_mv(E)]
          for n in range(2, 10)]
    assert list(map(len, mv)) == [1, 1, 2, 1, 2, 1, 3, 2]  # n = 2..9
    bundled = [fixture(f"CHAIN-{n}") for n in range(2, 65)] + [
        fixture(f"BOOL-{k}") for k in range(1, 7)]
    for E in [*(E for row in mv for E in row), *bundled]:
        assert is_mv(E) and is_lukasiewicz(E), E.name
