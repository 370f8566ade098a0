import itertools
from dataclasses import replace

import pytest

from unsharp import (
    canonical_form,
    enumerate_effect_algebras,
    find_isomorphism,
    fixture,
    is_isomorphic,
    relabel,
    validate_tables,
)
from unsharp.cli import SUITES, run_suite
from unsharp.enumeration import _antitone_involutions, _collect_tables
from unsharp.reports import Violation

import oracles
from conftest import idx


def test_two_elements_unique():
    res = enumerate_effect_algebras(2)
    assert res.labeled_count == res.iso_count == 1
    E = res.algebras[0]
    assert E.sums[1][1] is None and E.comp == (1, 0)


def test_three_elements_against_filter_oracle():
    """Independent oracle: run every conceivable 3x3 table (each cell empty
    or one of the three elements) through the validator and collect the
    distinct completed algebras."""
    seen = set()
    options = (None, 0, 1, 2)
    for cells in itertools.product(options, repeat=9):
        sums = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        rep = validate_tables(("0", "x1", "1"), sums, 0, 2)
        if rep.ok:
            seen.add(rep.algebra.sums)
    res = enumerate_effect_algebras(3)
    assert {E.sums for E in res.algebras} == seen
    assert res.labeled_count == len(seen) == 1
    assert res.iso_count == 1


@pytest.mark.parametrize("n,labeled,iso", [(2, 1, 1), (3, 1, 1), (4, 4, 3), (5, 16, 4)])
def test_pinned_counts(n, labeled, iso):
    res = enumerate_effect_algebras(n)
    assert (res.labeled_count, res.iso_count) == (labeled, iso)


def test_pinned_counts_larger():
    assert enumerate_effect_algebras(6).labeled_count == 142
    assert enumerate_effect_algebras(6).iso_count == 10
    res7 = enumerate_effect_algebras(7, up_to_iso=True)
    assert (res7.labeled_count, res7.iso_count) == (1006, 14)
    assert len(res7.algebras) == 14


def test_orbit_identity_small():
    # labeled count = sum over class representatives of orbit size
    for n in (2, 3, 4):
        res = enumerate_effect_algebras(n, up_to_iso=True)
        interior = list(range(1, n - 1))
        total = 0
        for E in res.algebras:
            orbit = set()
            for perm_int in itertools.permutations(interior):
                perm = [0, *perm_int, n - 1] if n > 2 else [0, 1]
                orbit.add(relabel(E, perm).sums)
            total += len(orbit)
        assert total == enumerate_effect_algebras(n).labeled_count


def test_everything_enumerated_passes_the_battery():
    for n in (2, 3, 4):
        for E in enumerate_effect_algebras(n).algebras:
            for suite in SUITES:
                passed, detail = run_suite(E, suite)
                assert passed, (E.name, suite, detail)


def test_isomorphism_recovery(e9):
    # swap the complementary pairs (b,f) and (c,e): a genuine relabeling
    perm = [0, 1, 3, 2, 4, 6, 5, 7, 8]
    F = relabel(e9, perm, name="E9-shuffled")
    iso = find_isomorphism(e9, F)
    assert iso is not None
    for x in range(9):
        for y in range(9):
            v = e9.sums[x][y]
            w = F.sums[iso[x]][iso[y]]
            assert (v is None and w is None) or iso[v] == w
    assert canonical_form(F) == canonical_form(e9)


def test_non_isomorphic_same_order(e9):
    res = enumerate_effect_algebras(9, induced_order=e9.order)
    assert res.labeled_count == 2
    tables = {E.sums for E in res.algebras}
    assert e9.sums in tables
    other = next(E for E in res.algebras if E.sums != e9.sums)
    assert not is_isomorphic(e9, other)
    assert other.order.up == e9.order.up
    # the second structure swaps which elements are complementary
    assert other.comp[idx(e9, "a")] == idx(e9, "e")
    for suite in SUITES:
        assert run_suite(other, suite)[0], suite


def test_e6_sits_among_the_six_element_classes(e6):
    reps = enumerate_effect_algebras(6, up_to_iso=True).algebras
    matches = [E for E in reps if is_isomorphic(E, e6)]
    assert len(matches) == 1
    assert canonical_form(matches[0]) == canonical_form(e6)
    others = [canonical_form(E) for E in reps if E is not matches[0]]
    assert canonical_form(e6) not in others


def test_trivial_iso_cases(e9, e6):
    chain = fixture("CHAIN-2")
    assert find_isomorphism(chain, chain) == (0, 1)
    assert not is_isomorphic(e6, fixture("BOOL-2"))  # sizes differ
    assert is_isomorphic(fixture("BOOL-1"), chain)


def test_canonical_form_invariance(e9):
    base = canonical_form(e9)
    import random

    rng = random.Random(5)
    interior = list(range(1, 8))
    for _ in range(6):
        shuffled = interior[:]
        rng.shuffle(shuffled)
        F = relabel(e9, [0, *shuffled, 8])
        assert canonical_form(F) == base


def test_threads_deterministic():
    seq = enumerate_effect_algebras(5)
    par = enumerate_effect_algebras(5, threads=2)
    assert [E.sums for E in seq.algebras] == [E.sums for E in par.algebras]
    assert (seq.labeled_count, seq.iso_count) == (par.labeled_count, par.iso_count)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        enumerate_effect_algebras(1)
    with pytest.raises(ValueError):
        enumerate_effect_algebras(8)
    with pytest.raises(ValueError):
        enumerate_effect_algebras(9, induced_order=fixture("CHAIN-4").order)


def test_relabel_rejects_non_permutation(e9):
    with pytest.raises(ValueError):
        relabel(e9, [0] * 9)


# -- the search against the full-scan oracles in oracles.py ------------------


def _restricted_orders():
    'The orders of E9, CHAIN-10 and every isomorphism class with n <= 7.'
    orders = [("E9", fixture("E9").order), ("CHAIN-10", fixture("CHAIN-10").order)]
    for n in range(2, 8):
        for i, E in enumerate(enumerate_effect_algebras(n, up_to_iso=True).algebras):
            orders.append((f"n{n}-class{i}", E.order))
    return orders


@pytest.mark.parametrize("n", range(2, 8))
def test_free_search_matches_oracle(n):
    tables, _ = _collect_tables(n)
    assert tables == oracles.free_tables(n)


def test_restricted_search_and_involutions_match_oracle():
    orders = _restricted_orders()
    assert len(orders) == 2 + 33
    for name, order in orders:
        assert _antitone_involutions(order) == oracles.antitone_involutions(order), name
        got = enumerate_effect_algebras(order.n, induced_order=order).algebras
        want = oracles.restricted_algebras(order)
        assert [(E.name, E.labels, E.sums) for E in got] == [
            (E.name, E.labels, E.sums) for E in want
        ], name
        assert got, name  # the order of an effect algebra admits at least that one


def test_threads_two_equals_serial_at_six():
    seq = enumerate_effect_algebras(6)
    par = enumerate_effect_algebras(6, threads=2)
    assert [(E.name, E.sums) for E in par.algebras] == [(E.name, E.sums) for E in seq.algebras]
    assert (par.nodes, par.rejected) == (seq.nodes, seq.rejected)
    assert seq.nodes > 0


@pytest.mark.parametrize("n", range(2, 8))
def test_free_search_rejects_no_completed_table(n):
    assert enumerate_effect_algebras(n).rejected == 0


def test_rejected_counts_what_the_validator_refuses(monkeypatch):
    import unsharp.enumeration as enumeration

    real = enumeration.validate_tables
    calls = []

    def refuse_first(*args, **kwargs):
        calls.append(args)
        report = real(*args, **kwargs)
        if len(calls) == 1:
            return replace(report, violations=[Violation("planted", ())], algebra=None)
        return report

    monkeypatch.setattr(enumeration, "validate_tables", refuse_first)
    res = enumerate_effect_algebras(5)
    assert (res.labeled_count, res.rejected) == (15, 1)
    assert [E.name for E in res.algebras] == [f"EA5-{i}" for i in range(15)]
