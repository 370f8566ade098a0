import itertools
import time

import pytest

from unsharp import (
    Subset,
    atoms,
    characterization_agreement,
    characterize,
    count_ded,
    ded_lattice,
    enumerate_ded,
    fixture,
    generate,
    is_deductive_system,
)

from unsharp.deduction import DedLattice, _closed_form_ded, iter_ded

import oracles
from conftest import idx


def members(E, *labs):
    return E.subset(*(idx(E, lab) for lab in labs))


def test_e9_counts_and_atoms(e9):
    systems = enumerate_ded(e9)
    assert len(systems) == 28
    rendered = {e9.render(d.members) for d in atoms(e9)}
    assert rendered == {"{a,1}", "{b,1}", "{c,1}", "{e,1}", "{f,1}", "{g,1}"}


def test_e6_counts(e6):
    assert len(enumerate_ded(e6)) == 10
    assert len(atoms(e6)) == 4


def test_self_complementary_element_cannot_join(e9):
    # {1,d} fails closure: d -> 0 = {d} lies inside, yet 0 is missing
    res = is_deductive_system(e9, members(e9, "d", "1"))
    assert not res.holds
    assert res.witness == (idx(e9, "d"), e9.zero)


def test_one_is_mandatory(e9):
    res = is_deductive_system(e9, members(e9, "a", "b"))
    assert not res.holds and res.witness == ("one",)


def test_characterization_preconditions(e9):
    with pytest.raises(ValueError):
        characterize(e9, members(e9, "a"))
    with pytest.raises(ValueError):
        characterize(e9, e9.full_set())


def test_characterization_agrees_with_brute_force(fixture_algebras):
    for E in fixture_algebras:
        res = characterization_agreement(E)
        assert res.holds, (E.name, res.witness)


@pytest.mark.parametrize("name", ["CHAIN-21", "CHAIN-24", "BOOL-5", "CHAIN-64"])
def test_characterization_exhaustive_above_twenty_elements(name):
    # the reduction is exhaustive at every size, these included
    res = characterization_agreement(fixture(name))
    assert res.holds and res.witness is None
    assert res.exhaustive
    assert characterization_agreement(fixture("E9")).exhaustive


def test_characterization_on_chain64_is_fast():
    E = fixture("CHAIN-64")
    E.imp_bits  # built once and shared by every suite; time th3 alone
    start = time.perf_counter()
    assert characterization_agreement(E).holds
    assert time.perf_counter() - start < 0.1


def test_characterization_reports_both_kinds_of_disagreement(monkeypatch):
    import unsharp.deduction as deduction

    E = fixture("CHAIN-5")
    # a closure that stops at its generators: {1, 0} is closed yet meets
    # its orthosupplement, the first cl({1, z, z'}) by z
    monkeypatch.setattr(deduction, "_closure", lambda E, bits: bits)
    res = characterization_agreement(E)
    assert (res.holds, res.witness) == (False, (E.zero, E.one))
    monkeypatch.undo()
    # 1 -> 0 = {0} emptied: D0 = {1} is disjoint, yet not closed at (1, 0)
    imp = [list(row) for row in E.imp_bits]
    imp[E.one][E.zero] = 0
    E.__dict__["imp_bits"] = tuple(map(tuple, imp))
    res = characterization_agreement(E)
    assert (res.holds, res.witness) == (False, (E.one,))
    assert not is_deductive_system(E, Subset(1 << E.one, E.n)).holds


@pytest.mark.parametrize(
    "name,count",
    [("E9", 28), ("CHAIN-16", 3**7 + 1), ("CHAIN-21", 3**9 + 1), ("CHAIN-22", 3**10 + 1)],
)
def test_count_ded_agrees_with_the_enumeration(name, count):
    E = fixture(name)
    assert count_ded(E) == len(enumerate_ded(E)) == count


def test_count_ded_closed_form_on_large_fixtures():
    assert count_ded(fixture("CHAIN-64")) == 3**31 + 1
    assert count_ded(fixture("BOOL-6")) == 3**31 + 1
    assert count_ded(fixture("CHAIN-25")) == 3**11 + 1  # one self-complementary middle


def test_generate(e9):
    assert generate(e9, members(e9, "a", "g")) == e9.full_set()
    assert generate(e9, members(e9, "0")) == e9.full_set()
    assert generate(e9, members(e9, "a")) == members(e9, "a", "1")
    assert generate(e9, members(e9, "a", "b", "c")) == members(e9, "a", "b", "c", "1")
    assert generate(e9, Subset.empty(9)) == members(e9, "1")
    # every generated set really is a deductive system
    for labs in (("a",), ("a", "b"), ("e", "c"), ()):
        assert is_deductive_system(e9, generate(e9, members(e9, *labs))).holds


def test_all_enumerated_really_are_systems(e9, e6):
    for E in (e9, e6):
        systems = enumerate_ded(E)
        assert len({d.members.bits for d in systems}) == len(systems)
        for d in systems:
            assert is_deductive_system(E, d.members).holds
        # and nothing outside the list sneaks through (full sweep)
        count = sum(
            is_deductive_system(E, Subset(mask, E.n)).holds
            for mask in range(1 << E.n)
        )
        assert count == len(systems)


def test_lattice_meets_and_joins(e9):
    lat = ded_lattice(e9)
    systems = lat.systems
    pos = {d.members.bits: i for i, d in enumerate(systems)}
    ag = members(e9, "a", "1")
    bf = members(e9, "b", "1")
    i, j = pos[ag.bits], pos[bf.bits]
    met = systems[lat.meet(i, j)]
    assert met.members == members(e9, "1")
    joined = systems[lat.join(i, j)]
    assert joined.members == members(e9, "a", "b", "1")
    assert lat.leq(pos[members(e9, "1").bits], i)


def test_completeness_exhaustive_on_e6(e6):
    rep = ded_lattice(e6).check_completeness()
    assert rep.ok and rep.exhaustive
    # the empty family, 10 singletons and 45 pairs
    assert rep.families_checked == 56


@pytest.mark.parametrize("name", ["E6", "E9", "CHAIN-10"])
def test_completeness_matches_the_scanning_oracle(name):
    lat = ded_lattice(fixture(name))
    assert lat.check_completeness() == oracles.check_completeness(lat)


def test_completeness_reports_a_missing_bound(e9):
    # without {a,b,1} the family of {a,1} and {b,1} has no least upper bound
    lat = ded_lattice(e9)
    ab = members(e9, "a", "b", "1").bits
    pruned = DedLattice(e9, [d for d in lat.systems if d.members.bits != ab])
    rep = pruned.check_completeness()
    assert rep == oracles.check_completeness(pruned)
    assert not rep.ok and len(rep.witness) == 2


@pytest.mark.parametrize("name", ["E6", "BOOL-1", "BOOL-2", "CHAIN-2", "CHAIN-3", "CHAIN-4", "CHAIN-6"])
def test_completeness_pairs_decide_like_the_full_scan(name):
    # up to isomorphism the lattice depends only on the number of complement
    # pairs, 0, 1 or 2 here; with systems removed most lattices fail
    E = fixture(name)
    systems = ded_lattice(E).systems
    assert len(systems) <= 10
    for r in range(3):
        for drop in itertools.combinations(range(len(systems)), r):
            lat = DedLattice(E, [d for i, d in enumerate(systems) if i not in drop])
            rep = lat.check_completeness()
            assert rep.exhaustive and rep.ok == oracles.completeness_sweep(lat).ok, (name, drop)


def test_completeness_on_chain12_is_quadratic():
    lat = ded_lattice(fixture("CHAIN-12"))
    start = time.perf_counter()
    rep = lat.check_completeness()
    assert rep.ok and rep.families_checked == 1 + 244 + 244 * 243 // 2
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "name",
    ["E9", "E6", *(f"BOOL-{k}" for k in range(1, 5)), *(f"CHAIN-{n}" for n in range(2, 17))],
)
def test_atoms_are_the_covers_of_one_in_the_lattice(name):
    # the closed form {1,x} against the minimal systems strictly above {1}
    # in the enumerated lattice; by size, a system is minimal exactly when
    # no smaller minimal one lies inside it
    E = fixture(name)
    bottom = 1 << E.one
    covers = []
    for d in ded_lattice(E).systems:
        bits = d.members.bits
        if bits != bottom and all(m & ~bits for m in covers):
            covers.append(bits)
    found = [d.members.bits for d in atoms(E)]
    # with no {1,x} at all (every interior element self-complementary),
    # the whole carrier is the one system above {1}
    assert sorted(covers) == (found or [E.full_set().bits])


@pytest.mark.parametrize("name", ["E9", "CHAIN-16"])
def test_closed_form_matches_the_brute_force(name):
    E = fixture(name)
    brute = oracles.enumerate_ded(E)
    assert list(_closed_form_ded(E)) == brute
    assert [d.members.bits for d in iter_ded(E)] == brute


@pytest.mark.parametrize("name", ["CHAIN-21", "CHAIN-22"])
def test_closed_form_order_on_large_fixtures(name):
    E = fixture(name)
    assert list(_closed_form_ded(E)) == oracles.closed_form_ded(E)
    assert [d.members.bits for d in enumerate_ded(E)] == oracles.closed_form_ded(E)


def test_closed_form_order_on_bool5_prefix():
    # 3^15 + 1 systems in all; the ones with at most three picks come first
    E = fixture("BOOL-5")
    want = oracles.closed_form_ded(E, max_picks=3)
    assert len(want) == 1 + 30 + 4 * 105 + 8 * 455
    assert list(itertools.islice(_closed_form_ded(E), len(want))) == want


def test_iter_ded_streams_above_the_brute_force_limit():
    E = fixture("CHAIN-64")
    start = time.perf_counter()
    first = list(itertools.islice(iter_ded(E), 5))
    assert time.perf_counter() - start < 1.0
    assert [E.render(d.members) for d in first] == [
        "{1}", "{a1,1}", "{a2,1}", "{a3,1}", "{a4,1}"
    ]
