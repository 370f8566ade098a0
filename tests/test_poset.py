import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp import Involution, Poset, Subset, fixture, validate_involution
from unsharp.fixtures import boolean_to_ea

import e9_data
from conftest import idx


# -- independent order oracle ------------------------------------------------


def brute_order(elements, sum_entries):
    """Order relation computed straight from the declared sum lines,
    sharing no code with the library: x <= y iff some z has x+z=y."""
    sums = {}
    for x, y, v in sum_entries:
        sums[(x, y)] = v
        sums[(y, x)] = v
    for x in elements:
        sums.setdefault(("0", x), x)
        sums.setdefault((x, "0"), x)
    leq = set()
    for x in elements:
        for y in elements:
            if any(sums.get((x, z)) == y for z in elements):
                leq.add((x, y))
    return leq


def test_e9_order_matches_brute_force(e9):
    oracle = brute_order(e9_data.ELEMENTS, e9_data.SUM_ENTRIES)
    for x in range(9):
        for y in range(9):
            expect = (e9.labels[x], e9.labels[y]) in oracle
            assert e9.leq(x, y) == expect


def test_e9_hasse_edges(e9):
    got = {(e9.labels[a], e9.labels[b]) for a, b in e9.order.hasse_edges()}
    assert got == e9_data.HASSE
    assert len(got) == 14


def test_e9_is_not_a_lattice_e6_is(e9, e6):
    assert not e9.order.is_lattice()
    # b and c have two minimal upper bounds (f and g), hence no join
    assert e9.order.join(idx(e9, "b"), idx(e9, "c")) is None
    assert e6.order.is_lattice()


def test_cones_against_definition(e9):
    p = e9.order
    for bits in range(1 << 9):
        s = Subset(bits, 9)
        lower = {x for x in range(9) if all(p.leq(x, m) for m in s)}
        upper = {x for x in range(9) if all(p.leq(m, x) for m in s)}
        assert set(p.lower_cone(s)) == lower
        assert set(p.upper_cone(s)) == upper


def test_empty_cone_convention(e9):
    p = e9.order
    empty = Subset.empty(9)
    assert set(p.lower_cone(empty)) == set(range(9))
    assert set(p.upper_cone(empty)) == set(range(9))
    # vacuous comparisons
    assert p.set_leq(empty, p.upper_cone(empty))
    assert p.set_leq(empty, empty)


def test_set_leq_matches_pairwise(e9):
    p = e9.order
    import random

    rng = random.Random(7)
    for _ in range(300):
        a = Subset(rng.getrandbits(9), 9)
        b = Subset(rng.getrandbits(9), 9)
        expect = all(p.leq(x, y) for x in a for y in b)
        assert p.set_leq(a, b) == expect


def test_meet_join_on_e6(e6):
    p = e6.order
    a, b, top, bot = idx(e6, "a"), idx(e6, "b"), e6.one, e6.zero
    assert p.meet(a, b) == bot
    assert p.join(a, b) == top
    assert p.meet(a, a) == a
    assert p.interval(bot, a) == Subset.of(6, (bot, a))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_cone_galois_on_boolean_16(bits):
    p = boolean_to_ea(4).order
    s = Subset(bits, 16)
    up = p.upper_cone(s)
    # L(U(A)) is a closure: contains A, monotone, idempotent
    closed = p.lower_cone(up)
    assert s.issubset(closed)
    assert p.lower_cone(p.upper_cone(closed)) == closed
    # antitone in the argument
    bigger = Subset(bits | 1, 16)
    assert p.upper_cone(bigger).issubset(up)


def test_subset_basics():
    s = Subset.of(5, (0, 2))
    assert list(s) == [0, 2]
    assert len(s) == 2 and 2 in s and 1 not in s
    assert s | Subset.single(5, 1) == Subset.of(5, (0, 1, 2))
    assert (s - Subset.single(5, 0)).indices() == (2,)
    assert Subset.full(3).bits == 0b111
    with pytest.raises(ValueError):
        s | Subset.single(4, 1)


def test_poset_rejects_non_orders():
    # not antisymmetric
    with pytest.raises(ValueError):
        Poset((0b11, 0b11))
    # no unique top
    with pytest.raises(ValueError):
        Poset((0b111, 0b010, 0b100))


def test_validate_involution_clauses(e9):
    good = Involution(tuple(e9.comp))
    assert validate_involution(e9.order, good).ok
    swapped = list(e9.comp)
    swapped[1], swapped[2] = swapped[2], swapped[1]  # breaks involutivity
    rep = validate_involution(e9.order, Involution(tuple(swapped)))
    assert not rep.ok
    failing = {c.clause for c in rep.failures()}
    assert "involutive" in failing or "antitone" in failing


@pytest.mark.parametrize(
    "up,witness",
    [
        ((0b10, 0b11), (0,)),
        ((0b111, 0b110, 0b110), (1, 2)),
        ((0b1111, 0b0110, 0b1100, 0b1000), (1, 2, 3)),
        # the largest z above y and not above x
        ((0b11111, 0b00110, 0b11100, 0b11000, 0b10000), (1, 2, 4)),
    ],
)
def test_poset_names_the_first_broken_axiom(up, witness):
    with pytest.raises(ValueError) as info:
        Poset(up)
    assert info.value.witness == witness
