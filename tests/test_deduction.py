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
def test_characterization_sampled_above_twenty_elements(name):
    res = characterization_agreement(fixture(name))
    assert res.holds and res.witness is None
    assert not res.exhaustive
    assert characterization_agreement(fixture("E9")).exhaustive


@pytest.mark.parametrize("name", ["CHAIN-21", "BOOL-5"])
def test_th3_sample_holds_both_kinds_of_subset(name):
    from unsharp.deduction import TH3_SAMPLES, _closure_witness, _th3_sample

    E = fixture(name)
    one = 1 << E.one
    masks = list(_th3_sample(E))
    assert len(masks) == E.n + TH3_SAMPLES
    assert masks[: E.n] == [one | 1 << x for x in range(E.n)]
    proper = [m for m in masks if m != E.full_set().bits]
    closed = sum(1 for m in proper if _closure_witness(E, m) is None)
    # the pair unions and most {1,x} are deductive, the random subsets mostly not
    assert TH3_SAMPLES // 2 <= closed < len(proper) - TH3_SAMPLES // 4


def test_sampled_characterization_reports_a_disagreement(monkeypatch):
    import unsharp.deduction as deduction

    # a closure test that passes everything disagrees with the criterion
    # on {0,1}, the first sampled subset that meets its orthosupplement
    monkeypatch.setattr(deduction, "_closure_witness", lambda E, bits: None)
    E = fixture("CHAIN-24")
    res = characterization_agreement(E)
    assert (res.holds, res.witness, res.exhaustive) == (False, (E.zero, E.one), False)


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
    assert rep.families_checked == 1 << 10


def test_completeness_sampled_on_e9(e9):
    rep = ded_lattice(e9).check_completeness(samples=200, seed=1)
    assert rep.ok and not rep.exhaustive


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
