import copy
import pickle
import random

import pytest

from unsharp import (
    EffectAlgebra,
    InvalidAlgebraError,
    Poset,
    canonical_form,
    check_cone_equations,
    check_sum_laws,
    enumerate_effect_algebras,
    fixture,
    fixture_text,
    is_monotonous,
    parse_spec,
    spec_report,
    validate_tables,
)
from unsharp.enumeration import _FORM

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


@pytest.mark.parametrize(
    "x,y,cell,text",
    [
        (1, 2, "x", "sum value 'x' is not an integer"),
        (1, 2, [1], "sum value [1] is not an integer"),
        (1, 2, 3.0, "sum value 3.0 is not an integer"),
        (0, 0, 0.0, "sum value 0.0 is not an integer"),
    ],
)
def test_non_integer_sum_value_raises(x, y, cell, text):
    # x + y = 1 as 3.0 and 0 + 0 = 0 as 0.0 compare equal to the integers and
    # would pass every stage; they are refused before the first
    labels, sums = table_of([("x", "y", "1")])
    sums[x][y] = sums[y][x] = cell
    with pytest.raises(ValueError) as err:
        validate_tables(labels, sums, 0, 3)
    assert str(err.value) == text


def test_non_integer_indices_raise():
    labels, sums = table_of([("x", "y", "1")])
    for zero, one in (("0", 3), (0, "1"), (0.0, 3), (0, 3.0)):
        with pytest.raises(ValueError) as err:
            validate_tables(labels, sums, zero, one)
        assert str(err.value) == "zero/one index is not an integer"
    for declared, text in (
        ({1: 2.0}, "declared complement 1: 2.0 is not an integer"),
        ({1.0: 2}, "declared complement 1.0: 2 is not an integer"),
        ({"x": 2}, "declared complement 'x': 2 is not an integer"),
    ):
        with pytest.raises(ValueError) as err:
            validate_tables(labels, sums, 0, 3, declared)
        assert str(err.value) == text
    # bool is an int, and stays accepted wherever an index is: the chain
    # 0 < m < 1 with 0 + m = True and m' = m
    sums = [[None, True, None], [True, 2, None], [None, None, None]]
    rep = validate_tables(("0", "m", "1"), sums, False, 2, {True: True})
    assert rep.ok and rep.algebra.comp == (2, 1, 0)


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


ORDER_TABLES = [
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
]


@pytest.mark.parametrize("sums,text", ORDER_TABLES)
def test_order_stage_reports_first_witness(sums, text):
    # each table passes E1, E4 and E3; the order stage stops it before E2
    labels = ("0", "a", "b", "1")[: len(sums) - 1] + ("1",)
    rep = validate_tables(labels, sums, 0, len(sums) - 1)
    assert [str(v) for v in rep.violations] == [text]


def test_constructor_derives_complement_and_order_by_the_definitions(fixture_algebras):
    # the constructor reads comp off the rows and leaves the order to its
    # first read, which reads it off the rows in one pass; the oracle reads
    # both off by the definitions
    labeled = [E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras]
    assert len(labeled) == 1170
    parsed = spec_report(parse_spec(fixture_text("E9"))).algebra
    for E in labeled + [parsed]:
        assert "order" not in vars(E), E.name

    def copies(E):
        'E through pickle at every protocol from 2 and through copy.copy.'
        protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
        return [pickle.loads(pickle.dumps(E, k)) for k in protocols] + [copy.copy(E)]

    # a listed algebra keeps its tables and form through a copy, whether
    # or not its order has been built
    listed = labeled[-1]
    before = copies(listed)
    for E in labeled + [parsed] + fixture_algebras:
        p = E.order
        assert (E.comp, p.up, p.down, p.bottom, p.top) == oracles.derived_fields(E), E.name
        assert oracles.poset_fields(p) == oracles.poset_fields(Poset(p.up, E.labels)), E.name
    after = copies(listed)
    for built, group in ((False, before), (True, after)):
        for F in group:
            assert ("order" in vars(F)) is built
            assert (F.sums, F.comp, F.name) == (listed.sums, listed.comp, listed.name)
            assert oracles.poset_fields(F.order) == oracles.poset_fields(listed.order)
            assert canonical_form(F) == vars(F)[_FORM] == canonical_form(listed)


def one_cell_mutations(E, rng, count):
    """Copies of the sum table of E with one cell set to None or an element,
    its mirror cell set likewise half of the time, and the declared
    complements: none, the true ones, or the true ones with one changed."""
    n = E.n
    for _ in range(count):
        x, y, v = rng.randrange(n), rng.randrange(n), rng.choice([None, *range(n)])
        sums = [list(row) for row in E.sums]
        sums[x][y] = v
        if rng.randrange(2):
            sums[y][x] = v
        declared = [None, dict(enumerate(E.comp)), dict(enumerate(E.comp))][rng.randrange(3)]
        if declared is not None and rng.randrange(2):
            declared[rng.randrange(n)] = rng.randrange(n)
        yield sums, declared


def assert_validates_like_oracle(labels, sums, zero, one, declared=None, name="E"):
    'Both validators on one table: the same violations, or the same algebra.'
    got = validate_tables(labels, sums, zero, one, declared, name)
    want = oracles.validate_tables(labels, sums, zero, one, declared, name)
    assert got.violations == want.violations, (name, sums, declared)
    assert (got.algebra is None) == (want.algebra is None), name
    if want.ok:
        assert oracles.algebra_fields(got.algebra) == oracles.algebra_fields(want.algebra), name
    return want.violations


def test_validator_matches_stage_by_stage_oracle():
    # seeded one-cell mutations of every labeled algebra with n <= 7 and of
    # the fixtures up to 16 elements, then the hand-made order tables
    rng = random.Random(23)
    labeled = [E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras]
    names = ["E6", "E9", *(f"BOOL-{k}" for k in range(1, 5)), *(f"CHAIN-{k}" for k in range(2, 17))]
    reached, compared, refused = set(), 0, 0
    for E, count in [*((E, 4) for E in labeled), *((fixture(name), 60) for name in names)]:
        for sums, declared in [(E.sums, None), *one_cell_mutations(E, rng, count)]:
            violations = assert_validates_like_oracle(
                E.labels, sums, E.zero, E.one, declared, E.name
            )
            reached.update(v.message for v in violations)
            compared += 1
            refused += bool(violations)
    # the mutations reach every stage but zero-not-bottom; the hand-made
    # order tables reach it
    for sums, _ in ORDER_TABLES:
        labels = ("0", "a", "b", "1")[: len(sums) - 1] + ("1",)
        violations = assert_validates_like_oracle(labels, sums, 0, len(sums) - 1)
        reached.update(v.message for v in violations)
    assert compared == 1170 * 5 + 21 * 61 and 3000 < refused < compared
    assert reached == {
        "sum table is not symmetric", "sum with the top element defined",
        "no orthosupplement", "duplicate complement candidates",
        "declared complement disagrees with the table",
        "induced relation not reflexive", "induced relation not antisymmetric",
        "induced relation not transitive", "zero is not a bottom element",
        "associativity fails",
    }
