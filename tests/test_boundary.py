"""The errors the public functions raise on arguments they cannot take: a
subset over another carrier, an undefined elementwise sum, a map that is
not a permutation, and the `Subset` operators' own checks."""

import pytest

from unsharp import (
    Subset,
    characterize,
    fixture,
    generate,
    implies_sets,
    is_deductive_system,
    validate_involution,
)

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
