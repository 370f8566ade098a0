from dataclasses import replace

import pytest

from unsharp import (
    EffectAlgebra,
    InvalidAlgebraError,
    adjointness_exchange_equivalence,
    check_dual_adjointness,
    from_effect_algebra,
    roundtrip_check,
    surp_roundtrip_check,
    to_effect_algebra,
    validate_surp,
)

from conftest import idx


def test_derived_tables_on_e9(e9):
    c = from_effect_algebra(e9)
    assert c.validated and c.divisible
    g, a, e, f = (idx(e9, lab) for lab in "gaef")
    assert c.odot(g, a) == e9.zero
    assert c.odot(e, f) == a
    assert c.odot(a, a) is None
    assert c.imp(a, e9.zero) == e9.subset(g)
    assert c.imp(e, a) == e9.subset(idx(e9, "c"), f)


def test_corpus_is_valid_and_divisible(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = validate_surp(from_effect_algebra(E, validate=False))
        assert rep.ok, (E.name, [str(v) for v in rep.violations])
        assert rep.algebra.divisible is True


def test_roundtrip_both_ways(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rt = roundtrip_check(E)
        assert rt.equal, (E.name, rt.diffs[:3])
        c = from_effect_algebra(E)
        back = surp_roundtrip_check(c)
        assert back.equal, (E.name, back.diffs[:3])


def test_to_effect_algebra_spot_values(e9):
    E2 = to_effect_algebra(from_effect_algebra(e9))
    assert E2.sums == e9.sums
    assert E2.comp == e9.comp


def test_c1_breakage_short_circuits(e9):
    c = from_effect_algebra(e9)
    mapping = list(c.inv)
    mapping[1], mapping[2] = mapping[2], mapping[1]
    broken = replace(c, inv=tuple(mapping), validated=False)
    rep = validate_surp(broken)
    assert not rep.ok
    assert {v.axiom for v in rep.violations} == {"C1"}


def test_c2_strictness_witnessed(e9):
    c = from_effect_algebra(e9)
    prods = [list(row) for row in c.products]
    a = idx(e9, "a")
    prods[a][a] = e9.zero  # a' is not below a, so this pair must stay undefined
    broken = replace(c, products=tuple(tuple(r) for r in prods), validated=False)
    rep = validate_surp(broken)
    assert rep.first("C2") is not None


def test_c4_mutation_reports_both_c3_and_c4(e9):
    c = from_effect_algebra(e9)
    imps = [list(row) for row in c.imps]
    a = idx(e9, "a")
    imps[a][e9.zero] = e9.subset(idx(e9, "g"), e9.one)
    broken = replace(c, imps=tuple(tuple(r) for r in imps), validated=False)
    rep = validate_surp(broken)
    axioms = {v.axiom for v in rep.violations}
    assert "C4" in axioms
    assert rep.first("C4").witness == (a,)
    # the same corruption also falsifies unsharp adjointness; both are kept
    assert "C3" in axioms


def test_order_mismatch_rejected(e9):
    c = from_effect_algebra(e9)
    prods = [list(row) for row in c.products]
    b, d = idx(e9, "b"), idx(e9, "d")
    # claim f.b = d (wrong value) - the rebuilt sum table then induces
    # a different order than the carrier poset
    f = idx(e9, "f")
    prods[f][f] = prods[f][d]
    broken = replace(c, products=tuple(tuple(r) for r in prods), validated=False)
    with pytest.raises((InvalidAlgebraError, ValueError)):
        to_effect_algebra(broken)


def test_dual_adjointness_on_fixtures(fixture_algebras):
    for E in fixture_algebras:
        rep = check_dual_adjointness(from_effect_algebra(E))
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


def test_exchange_equivalence_everywhere(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = adjointness_exchange_equivalence(E)
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


def test_from_effect_algebra_raises_report_on_mutated_table(e9):
    # a + b = e changed to a + b = f behind the validator's back
    a, b, f = (idx(e9, lab) for lab in "abf")
    sums = [list(row) for row in e9.sums]
    sums[a][b] = sums[b][a] = f
    # the mutated sums with E9's own complement and order, and no cached table
    bad = EffectAlgebra(e9.labels, tuple(map(tuple, sums)), e9.zero, e9.one, "E9-mutated")
    bad.comp, bad.order = e9.comp, e9.order
    with pytest.raises(InvalidAlgebraError) as err:
        from_effect_algebra(bad)
    report = err.value.report
    assert report == validate_surp(from_effect_algebra(bad, validate=False))
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("C2", (5, 6, 7)), ("C2", (1, 6)), ("C3", (2, 7, 2)),
    ]
