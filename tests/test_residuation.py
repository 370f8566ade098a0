import random
from dataclasses import replace

import pytest

from unsharp import (
    EffectAlgebra,
    InvalidAlgebraError,
    adjointness_exchange_equivalence,
    enumerate_effect_algebras,
    fixture,
    from_effect_algebra,
    implies,
    roundtrip_check,
    surp_roundtrip_check,
    to_effect_algebra,
    validate_surp,
)

from conftest import idx


def test_derived_tables_on_e9(e9):
    c = from_effect_algebra(e9)
    report = validate_surp(c)
    assert report.ok and report.algebra.divisible
    g, a, e, f = (idx(e9, lab) for lab in "gaef")
    assert c.odot(g, a) == e9.zero
    assert c.odot(e, f) == a
    assert c.odot(a, a) is None
    assert c.imp(a, e9.zero) == e9.subset(g)
    assert c.imp(e, a) == e9.subset(idx(e9, "c"), f)


def test_corpus_is_valid_and_divisible(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = validate_surp(from_effect_algebra(E))
        assert rep.ok, (E.name, [str(v) for v in rep.violations])
        assert rep.algebra.divisible is True


def test_roundtrip_both_ways(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rt = roundtrip_check(E)
        assert rt.equal, (E.name, rt.diffs[:3])
        c = from_effect_algebra(E)
        back = surp_roundtrip_check(c)
        assert back.equal, (E.name, back.diffs[:3])


def test_implication_rows_are_masks_read_as_subsets(e9):
    # the cells are the algebra's own int masks, and `imp` reads one as the
    # Subset it stands for; a copy of equal value validates alike
    c = from_effect_algebra(e9)
    n = e9.n
    assert c.imps is e9.imp_bits
    assert all(type(cell) is int for row in c.imps for cell in row)
    assert [[c.imp(x, y) for y in range(n)] for x in range(n)] == [
        [implies(e9, x, y) for y in range(n)] for x in range(n)
    ]
    copy = replace(c, imps=tuple(tuple(cell for cell in row) for row in c.imps))
    assert copy == c and copy.imps is not c.imps
    assert validate_surp(copy) == validate_surp(c)


def test_cells_that_are_not_masks_are_refused(e9):
    # rows of Subsets, a negative mask, a mask past the carrier, a float and
    # a short table raise instead of being read as cells
    c = from_effect_algebra(e9)
    n = e9.n

    def with_cell(x, y, value):
        imps = [list(row) for row in c.imps]
        imps[x][y] = value
        return tuple(map(tuple, imps))

    subsets = tuple(tuple(c.imp(x, y) for y in range(n)) for x in range(n))
    for imps in (subsets, with_cell(3, 4, -1), with_cell(0, 0, 1 << n), with_cell(2, 5, 2.0),
                 c.imps[:-1], (*c.imps[:-1], c.imps[-1][1:])):
        with pytest.raises(ValueError, match="implication"):
            validate_surp(replace(c, imps=imps))
    assert validate_surp(c).ok


def test_to_effect_algebra_spot_values(e9):
    E2 = to_effect_algebra(from_effect_algebra(e9))
    assert E2.sums == e9.sums
    assert E2.comp == e9.comp


def test_c1_breakage_short_circuits(e9):
    c = from_effect_algebra(e9)
    mapping = list(c.inv)
    mapping[1], mapping[2] = mapping[2], mapping[1]
    broken = replace(c, inv=tuple(mapping))
    rep = validate_surp(broken)
    assert not rep.ok
    assert {v.axiom for v in rep.violations} == {"C1"}


def test_c2_strictness_witnessed(e9):
    c = from_effect_algebra(e9)
    prods = [list(row) for row in c.products]
    a = idx(e9, "a")
    prods[a][a] = e9.zero  # a' is not below a, so this pair must stay undefined
    broken = replace(c, products=tuple(tuple(r) for r in prods))
    rep = validate_surp(broken)
    assert rep.first("C2") is not None


def test_c4_mutation_reports_both_c3_and_c4(e9):
    c = from_effect_algebra(e9)
    imps = [list(row) for row in c.imps]
    a = idx(e9, "a")
    imps[a][e9.zero] = e9.subset(idx(e9, "g"), e9.one).bits
    broken = replace(c, imps=tuple(tuple(r) for r in imps))
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
    broken = replace(c, products=tuple(tuple(r) for r in prods))
    with pytest.raises((InvalidAlgebraError, ValueError)):
        to_effect_algebra(broken)


def test_exchange_equivalence_everywhere(small_algebras, fixture_algebras):
    for E in small_algebras + fixture_algebras:
        rep = adjointness_exchange_equivalence(E)
        assert rep.ok, (E.name, [(c.clause, c.witness) for c in rep.failures()])


def test_reverse_roundtrip_holds_iff_divisible():
    # each cell widened by members of L(U(cell)) keeps its upper cone, which
    # is all C3 reads, and the cells x -> 0 that C4 reads are left alone; so
    # C1-C4 still pass, and tables -> algebra -> tables must come back equal
    # exactly where C5 holds
    rng = random.Random(7)
    kinds = set()
    for name in ("E6", "E9", "BOOL-3", "BOOL-4", "CHAIN-7", "CHAIN-16"):
        E = fixture(name)
        n, p = E.n, E.order
        c = from_effect_algebra(E)
        for _ in range(150):
            imps = [list(row) for row in c.imps]
            for _ in range(rng.randint(1, 4)):
                y, z = rng.randrange(n), rng.choice([z for z in range(n) if z != E.zero])
                cell = imps[y][z]
                imps[y][z] = cell | rng.getrandbits(n) & p.lower_bits(p.upper_bits(cell))
            report = validate_surp(replace(c, imps=tuple(map(tuple, imps))))
            assert report.ok, (name, [str(v) for v in report.violations])
            divisible = report.algebra.divisible
            assert surp_roundtrip_check(report.algebra).equal == divisible, name
            kinds.add(divisible)
    assert kinds == {False, True}


def cell_alternatives(E):
    """(y, z, derived cell, the other subsets A passing C1-C4 with cell y -> z
    replaced by A), decided from cones.  C1 and C2 do not read the cells, and
    C4 reads only the cells x -> 0, pinning each to {x'}.  C3 reads y -> z
    only through U(y -> z), in one biconditional per x whose left side reads
    no cell and whose right side is U(x,y') <= U(y -> z); the derived cell
    passes, so A passes iff U(A) contains the same sets U(x,y') as its cone."""
    n, p, comp = E.n, E.order, E.comp
    uppers = list(map(p.upper_bits, range(1 << n)))
    for y in range(n):
        keys = list(dict.fromkeys(p.up[comp[y]] & ux for ux in p.up))
        reads = [[k & ~u == 0 for k in keys] for u in uppers]
        for z in range(n):
            cell = E.imp_bits[y][z]
            alts = [] if z == E.zero else [
                a for a, read in enumerate(reads) if a != cell and read == reads[cell]]
            yield y, z, cell, alts


def divides(E, y, z, a):
    "C5 at cell y -> z = A: A inside U(y'), and y (.) A = L(y,z), member by member."
    if a & ~E.order.up[E.comp[y]]:
        return False
    image = {E.products[y][u] for u in range(E.n) if a >> u & 1}
    return sum(1 << v for v in image) == E.order.pair_lower[y][z]


def test_divisibility_alone_pins_each_cell():
    # C1-C4 fix a cell only up to its upper cone (and the cells x -> 0
    # outright); C5 (divisibility) then admits only the derived cell
    # y' + L(y,z), since y (.) is one-to-one on U(y'), so the reverse round
    # trip holds iff C5 does.  Every cell of every class with n <= 7, and of
    # four fixtures
    rng = random.Random(3)
    sample = []
    cells = with_alts = alternatives = 0
    classes = [E for n in range(2, 8) for E in enumerate_effect_algebras(n, up_to_iso=True).algebras]
    fixtures = [fixture(name) for name in ("E9", "E6", "BOOL-3", "CHAIN-9")]
    for counted, algebras in ((True, classes), (False, fixtures)):
        for E in algebras:
            for y, z, cell, alts in cell_alternatives(E):
                assert divides(E, y, z, cell), (E.name, y, z)
                assert not any(divides(E, y, z, a) for a in alts), (E.name, y, z)
                if counted:
                    cells += 1
                    with_alts += bool(alts)
                    alternatives += len(alts)
                sample += [(E, y, z, a, a in alts) for a in rng.sample(range(1 << E.n), 2)]
                sample += [(E, y, z, a, True) for a in alts[:1]]
    assert (cells, with_alts, alternatives) == (1207, 1012, 44836)
    # the cone reading against the validator on a seeded sample of cells
    kinds = set()
    for E, y, z, a, alternative in rng.sample(sample, 300):
        c = from_effect_algebra(E)
        imps = [list(row) for row in c.imps]
        imps[y][z] = a
        report = validate_surp(replace(c, imps=tuple(map(tuple, imps))))
        derived = a == E.imp_bits[y][z]
        assert report.ok == (alternative or derived), (E.name, y, z, a)
        assert not report.ok or report.algebra.divisible == derived, (E.name, y, z, a)
        kinds.add((report.ok, derived))
    assert kinds == {(False, False), (True, False), (True, True)}


def test_from_effect_algebra_raises_report_on_mutated_table(e9):
    # a + b = e changed to a + b = f behind the validator's back
    a, b, f = (idx(e9, lab) for lab in "abf")
    sums = [list(row) for row in e9.sums]
    sums[a][b] = sums[b][a] = f
    # the mutated sums with E9's own complement and order, and no cached table
    bad = EffectAlgebra(e9.labels, tuple(map(tuple, sums)), e9.zero, e9.one, "E9-mutated")
    bad.comp, bad.order = e9.comp, e9.order
    report = validate_surp(from_effect_algebra(bad))
    assert not report.ok and report.algebra is None
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("C2", (5, 6, 7)), ("C2", (1, 6)), ("C3", (2, 7, 2)),
    ]
