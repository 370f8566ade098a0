import pytest

from unsharp import (
    EffectAlgebra,
    InvalidAlgebraError,
    Poset,
    check_cone_equations,
    check_sum_laws,
    enumerate_effect_algebras,
    fixture,
    is_monotonous,
    validate_tables,
)

import e9_data
import oracles
from conftest import idx


def table_of(entries, labels=("0", "x", "y", "1")):
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    sums = [[None] * n for _ in range(n)]
    for x, y, v in entries:
        sums[pos[x]][pos[y]] = pos[v]
        sums[pos[y]][pos[x]] = pos[v]
    return labels, sums


def test_e9_fixture_tables(e9):
    assert e9.labels == e9_data.ELEMENTS
    for x, y, v in e9_data.SUM_ENTRIES:
        assert e9.sums[idx(e9, x)][idx(e9, y)] == idx(e9, v)
    for x, xc in e9_data.COMPLEMENTS.items():
        assert e9.comp[idx(e9, x)] == idx(e9, xc)
    # one orientation per pair, so nine declared entries cover the interior
    interior = sum(
        1
        for x in range(1, 8)
        for y in range(x, 8)
        if e9.sums[x][y] is not None
    )
    assert interior == len(e9_data.SUM_ENTRIES) == 9


def test_zero_row_autofill():
    labels, sums = table_of([("x", "y", "1")])
    report = validate_tables(labels, sums, 0, 3)
    assert report.ok
    E = report.algebra
    assert all(E.sums[0][v] == v for v in range(4))


def test_e1_asymmetric_rejected():
    labels, sums = table_of([("x", "y", "1")])
    sums[1][2] = 0  # x+y and y+x now disagree
    rep = validate_tables(labels, sums, 0, 3)
    assert not rep.ok
    v = rep.violations[0]
    assert v.axiom == "E1" and v.witness == (1, 2)


def test_e4_sum_with_one_rejected():
    labels, sums = table_of([("x", "y", "1"), ("1", "x", "1")])
    rep = validate_tables(labels, sums, 0, 3)
    assert rep.first("E4") is not None
    assert rep.first("E4").witness == (1,)


def test_e3_missing_and_duplicate_complements(e9):
    labels, sums = table_of([("x", "x", "1")])
    rep = validate_tables(labels, sums, 0, 3)
    assert rep.first("E3").witness == (2,)  # y has no orthosupplement

    # two complement candidates for x
    labels, sums = table_of([("x", "y", "1"), ("x", "x", "1")])
    rep = validate_tables(labels, sums, 0, 3)
    assert rep.first("E3") is not None
    assert rep.first("E3").message == "duplicate complement candidates"


def test_declared_complement_cross_check():
    labels, sums = table_of([("x", "y", "1")])
    rep = validate_tables(labels, sums, 0, 3, declared_comp={1: 1, 2: 2})
    assert not rep.ok and rep.violations[0].axiom == "complement"


def test_e2_associativity_rejected():
    # a+c=1, b+b=1, c+c=b passes E1/E3/E4 and the order axioms, but
    # (b+c)+c is undefined while b+(c+c) = b+b = 1
    labels = ("0", "a", "b", "c", "1")
    _, sums = table_of([("a", "c", "1"), ("b", "b", "1"), ("c", "c", "b")], labels)
    rep = validate_tables(labels, sums, 0, 4)
    assert not rep.ok
    v = rep.violations[0]
    assert v.axiom == "E2" and v.witness == (2, 3, 3)


def test_valid_four_chain():
    labels = ("0", "x", "y", "1")
    _, sums = table_of([("x", "x", "y"), ("x", "y", "1")], labels)
    assert validate_tables(labels, sums, 0, 3).ok


def test_structural_problems_raise():
    with pytest.raises(ValueError):
        validate_tables(("0", "0"), [[0, 1], [1, None]], 0, 1)
    with pytest.raises(ValueError):
        validate_tables(("0", "1"), [[0, 1]], 0, 1)
    with pytest.raises(ValueError):
        validate_tables(("0", "1"), [[0, 9], [9, None]], 0, 1)
    # a declared complement is checked against the carrier, key and value
    for declared in ({5: 0}, {-1: 0}, {0: 2}):
        with pytest.raises(ValueError, match="outside the carrier"):
            validate_tables(("0", "1"), [[None, None], [None, None]], 0, 1, declared)


def test_from_tables_raises_with_report():
    labels, sums = table_of([("x", "x", "1")])
    with pytest.raises(InvalidAlgebraError) as err:
        EffectAlgebra.from_tables(labels, sums, 0, 3)
    assert err.value.report.first("E3") is not None


def test_sum_laws_everywhere(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = check_sum_laws(E)
        assert rep.ok, (E.name, [c.clause for c in rep.failures()])


def test_cone_equations_everywhere(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = check_cone_equations(E)
        assert rep.ok, (E.name, [c.clause for c in rep.failures()])


def test_partial_sum_definedness(e9):
    a, d, g = idx(e9, "a"), idx(e9, "d"), idx(e9, "g")
    assert e9.add(a, d) is None  # d is not below a' = g
    assert e9.add(a, idx(e9, "b")) == idx(e9, "e")
    assert e9.leq(d, e9.comp[idx(e9, "b")])


def test_e9_not_monotonous_with_frozen_witness(e9):
    res = is_monotonous(e9)
    assert res.exhaustive and not res.holds
    x, a, b = res.witness
    assert e9.labels[x] == "a"
    assert {e9.labels[i] for i in a} == {"b", "c", "g"}
    assert {e9.labels[i] for i in b} == {"0"}


@pytest.mark.parametrize(
    "name", ["E6", "BOOL-1", "BOOL-2", "BOOL-3", "CHAIN-3", "CHAIN-4", "BOOL-4", "CHAIN-12"]
)
def test_other_fixtures_are_monotonous(name):
    res = is_monotonous(fixture(name))
    assert res.exhaustive and res.holds


@pytest.mark.parametrize(
    "sums,text",
    [
        (
            [[None, 0, None], [0, 2, None], [None, None, None]],
            "order violated at (1): induced relation not reflexive",
        ),
        (
            [[None, None, None, None], [None, None, 3, None],
             [None, 3, 0, None], [None, None, None, None]],
            "order violated at (0,2): induced relation not antisymmetric",
        ),
        (
            [[None, None, 0, None], [None, 3, 2, None],
             [0, 2, 3, None], [None, None, None, None]],
            "order violated at (0,1,2): induced relation not transitive",
        ),
        (
            [[None, 1, 1, None], [1, None, 3, None],
             [1, 3, 2, None], [None, None, None, None]],
            "order violated at (0,2): zero is not a bottom element",
        ),
    ],
)
def test_order_stage_reports_first_witness(sums, text):
    # each table passes E1, E4 and E3; the order stage stops it before E2
    labels = ("0", "a", "b", "1")[: len(sums) - 1] + ("1",)
    rep = validate_tables(labels, sums, 0, len(sums) - 1)
    assert [str(v) for v in rep.violations] == [text]


def test_constructor_derives_complement_and_order_by_the_definitions(fixture_algebras):
    # the constructor reads comp and the order off the rows in one pass;
    # the oracle reads them off by the definitions
    labeled = [E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras]
    assert len(labeled) == 1170
    for E in labeled + fixture_algebras:
        p = E.order
        assert (E.comp, p.up, p.down, p.bottom, p.top) == oracles.derived_fields(E), E.name
        assert oracles.poset_fields(p) == oracles.poset_fields(Poset(p.up, E.labels)), E.name
