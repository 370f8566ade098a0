"""The errors the public functions raise on arguments they cannot take: a
subset over another carrier, an undefined elementwise sum, a map that is
not a permutation, the `Subset` operators' own checks and sizes out of
range; and the small behaviours of the public records."""

import pytest

from unsharp import (
    MonotonicityResult,
    Poset,
    Subset,
    characterize,
    check_sum_laws,
    enumerate_effect_algebras,
    fixture,
    generate,
    implies_sets,
    is_deductive_system,
    validate_involution,
    validate_tables,
)
from unsharp.deduction import DeductiveCheck
from unsharp.laws import IdentityEquivalence
from unsharp.residuation import RoundtripResult

E9 = fixture("E9")
OWN = E9.subset(0, 8)  # {0, 1}
OTHER = Subset.of(8, (0, 7))  # a subset of an eight-element carrier

CARRIER_CHECKS = {
    "lower_cone": E9.order.lower_cone,
    "upper_cone": E9.order.upper_cone,
    "set_leq-first": lambda s: E9.order.set_leq(s, OWN),
    "set_leq-second": lambda s: E9.order.set_leq(OWN, s),
    "set_complement": E9.set_complement,
    "add_elem_set": lambda s: E9.add_elem_set(E9.zero, s),
    "add_sets-first": lambda s: E9.add_sets(s, E9.subset(E9.zero)),
    "add_sets-second": lambda s: E9.add_sets(E9.subset(E9.zero), s),
    "implies_sets-first": lambda s: implies_sets(E9, s, OWN),
    "implies_sets-second": lambda s: implies_sets(E9, OWN, s),
    "is_deductive_system": lambda s: is_deductive_system(E9, s),
    "characterize": lambda s: characterize(E9, s),
    "generate": lambda s: generate(E9, s),
}


@pytest.mark.parametrize("call", CARRIER_CHECKS.values(), ids=CARRIER_CHECKS)
def test_subset_over_another_carrier_raises_one_message(call):
    call(OWN)  # the same call over the algebra's own carrier goes through
    with pytest.raises(ValueError) as err:
        call(OTHER)
    assert str(err.value) == "carrier mismatch: subset over 8 elements, carrier has 9"


@pytest.mark.parametrize("x, members, message", [
    # a' = g and L(g) = {0, b, c, g}: d and e are not below it, and d comes first
    ("a", "de", "sum undefined: d is not below g (adding a)"),
    ("a", "fbe", "sum undefined: e is not below g (adding a)"),
    ("d", "0bcd1", "sum undefined: c is not below d (adding d)"),
])
def test_add_elem_set_names_the_least_member_not_below_the_complement(x, members, message):
    a = E9.subset(*map(E9.labels.index, members))
    with pytest.raises(ValueError) as err:
        E9.add_elem_set(E9.labels.index(x), a)
    assert str(err.value) == message


@pytest.mark.parametrize("mapping, witness", [
    ((8, 7, 6, 5, 4, 3, 2, 1, 1), (7,)),  # 1 twice, first at index 7
    ((8, 8, 6, 5, 4, 3, 2, 1, 0), (0,)),  # 8 twice, first at index 0
    ([3, 7, 6, 3, 4, 3, 2, 1, 0], (0,)),  # any sequence: 3 three times
    ((8, 7, 6, 5, 4, 3, 2, 1), None),  # one entry short, no value repeated
    ((8, 7, 6, 5, 4, 3, 2, 1, 0, 9), None),  # one entry long
    ((9, 7, 6, 5, 4, 3, 2, 1, 0), None),  # 9 is outside the carrier
])
def test_validate_involution_rejects_a_non_permutation(mapping, witness):
    rep = validate_involution(E9.order, mapping)
    assert not rep.ok
    assert [(c.clause, c.passed, c.witness) for c in rep.clauses] == [
        ("permutation", False, witness),
    ]


A, B = Subset.of(5, (0, 1, 3)), Subset.of(5, (1, 2, 3))
MISMATCH = "carrier mismatch between subsets"


@pytest.mark.parametrize("method, arg, expect, bad, message", [
    (A.__and__, B, Subset.of(5, (1, 3)), Subset.of(6, (1,)), MISMATCH),
    (A.__or__, B, Subset.of(5, (0, 1, 2, 3)), Subset.of(4, (1,)), MISMATCH),
    (A.__sub__, B, Subset.of(5, (0,)), Subset.of(6, ()), MISMATCH),
    (A.issubset, B, False, Subset.full(6), MISMATCH),
    (A.isdisjoint, B, False, Subset.of(6, (5,)), MISMATCH),
    (A.add, 4, Subset.of(5, (0, 1, 3, 4)), 5, "element 5 outside carrier"),
    (A.add, 1, A, -1, "element -1 outside carrier"),
])
def test_subset_operators_and_their_checks(method, arg, expect, bad, message):
    assert method(arg) == expect
    with pytest.raises(ValueError) as err:
        method(bad)
    assert str(err.value) == message


def chain_up(n, bottom=0):
    'Up-sets of an n-chain listed bottom first from index `bottom`, wrapping round.'
    order = [(bottom + k) % n for k in range(n)]
    return [sum(1 << y for y in order[order.index(x):]) for x in range(n)]


def restricted(p):
    return enumerate_effect_algebras(p.n, induced_order=p)


ARGUMENT_CHECKS = {
    "validate_tables-0": (lambda: validate_tables((), [], 0, 0), "carrier size 0 outside 1..64"),
    "validate_tables-65": (lambda: validate_tables([f"e{i}" for i in range(65)], [], 0, 64),
                           "carrier size 65 outside 1..64"),
    "Poset-negative-mask": (lambda: Poset([3, -1]), "up-mask of 1 falls outside the carrier"),
    "Poset-65": (lambda: Poset(chain_up(65)), "carrier size 65 outside 1..64"),
    "Poset-label-count": (lambda: Poset([3, 2], ["0"]), "label count differs from carrier size"),
    "Poset-duplicate-labels": (lambda: Poset([3, 2], ["0", "0"]),
                               "labels are not pairwise distinct"),
    "restricted-11": (lambda: restricted(Poset(chain_up(11))),
                      "restricted search supports 2..10 elements"),
    "restricted-bottom-1": (lambda: restricted(Poset(chain_up(3, bottom=1))),
                            "restricted search expects bottom 0 and top n-1"),
    "CHAIN-65": (lambda: fixture("CHAIN-65"), "chain size out of range (2..64)"),
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS)
def test_arguments_out_of_range_raise(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_repr_and_missing_clause():
    assert repr(E9) == "<EffectAlgebra E9 n=9>"
    report = check_sum_laws(E9)
    assert report.clause("double_complement").passed
    with pytest.raises(KeyError) as err:
        report.clause("no such clause")
    assert err.value.args == ("no such clause",)


@pytest.mark.parametrize("passing, failing", [
    (DeductiveCheck(True), DeductiveCheck(False, ("one",))),
    (MonotonicityResult(True, None, True), MonotonicityResult(False, (0, OWN, OWN), True)),
    (RoundtripResult(True, []), RoundtripResult(False, [(3, 3, 1, 2)])),
    # equivalence is the agreement of the two verdicts, not either verdict
    (IdentityEquivalence(False, False), IdentityEquivalence(True, False)),
    (IdentityEquivalence(True, True), IdentityEquivalence(False, True)),
], ids=["DeductiveCheck", "MonotonicityResult", "RoundtripResult", "IdentityEquivalence-false",
        "IdentityEquivalence-true"])
def test_result_records_are_falsy_exactly_when_they_fail(passing, failing):
    # a NamedTuple with fields is truthy by default, so `if not result:`
    # relies on each record's own __bool__
    assert bool(passing) is True and bool(failing) is False
