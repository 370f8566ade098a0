"""The bitmask suites against the Subset-based reference versions in
`oracles.py`: verdicts, witnesses, skip flags and details, clause by clause."""

import functools
import itertools
import random
from operator import or_

import pytest

from unsharp import (
    BUNDLED,
    EffectAlgebra,
    InvalidAlgebraError,
    Subset,
    adjointness_exchange_equivalence,
    characterization_agreement,
    check_comparable_contraposition,
    check_cone_equations,
    check_cone_level_adjointness,
    check_sum_laws,
    count_ded,
    counterexample_search,
    element_implication_suite,
    enumerate_ded,
    enumerate_effect_algebras,
    fixture,
    from_effect_algebra,
    implication_table,
    implies,
    implies_sets,
    is_deductive_system,
    is_monotonous,
    set_implication_suite,
    to_effect_algebra,
    validate_surp,
)

from unsharp import algebra
from unsharp.laws import _cone_adjointness_failures
from unsharp.poset import iter_bits
from unsharp.reports import _check
from unsharp.residuation import adjointness_failures

import oracles

# the bundled fixtures with at most 16 elements
FIXTURES = ("E9", "E6", "BOOL-1", "BOOL-2", "BOOL-3", "BOOL-4",
            *(f"CHAIN-{n}" for n in range(2, 17)))


@pytest.fixture(scope="module")
def labeled():
    'All 1,170 labeled effect algebras with at most seven elements.'
    algebras = [E for n in range(2, 8) for E in enumerate_effect_algebras(n).algebras]
    assert len(algebras) == 1170
    return algebras


@pytest.fixture(scope="module")
def fixtures():
    assert set(BUNDLED) <= set(FIXTURES)
    return [fixture(name) for name in FIXTURES]


def assert_suites_match(E):
    'th2, th4, the derived tables with C1-C5, and th3 where the sweep is small.'
    assert element_implication_suite(E) == oracles.element_implication_suite(E), E.name
    assert set_implication_suite(E) == oracles.set_implication_suite(E), E.name
    c = from_effect_algebra(E)
    assert c == oracles.from_effect_algebra(E), E.name
    assert validate_surp(c) == oracles.validate_surp(c), E.name
    if E.n <= 16:
        assert_th3_like_oracle(E)
    oracles.forget()


def assert_th3_like_oracle(E):
    """The th3 reduction against the 2^n sweep: the same verdict, and a
    witness that is a proper subset containing 1 on which the closure
    test and the disjointness criterion really disagree."""
    res = characterization_agreement(E)
    assert res.exhaustive
    assert res.holds == oracles.characterization_agreement(E).holds, E.name
    if not res.holds:
        d = E.subset(*res.witness)
        assert E.one in d and d != E.full_set(), E.name
        disjoint = E.set_complement(d).isdisjoint(d)
        assert oracles.is_deductive_system(E, d).holds != disjoint, E.name


def assert_laws_match(E):
    'The other users of the shared tables: adjointness and contraposition.'
    assert adjointness_exchange_equivalence(E) == oracles.adjointness_exchange_equivalence(E)
    # monotonicity is checked against its sweep below, where the sweep reaches
    assert check_cone_level_adjointness(E) == oracles.check_cone_level_adjointness(
        E, is_monotonous(E)
    )
    assert check_comparable_contraposition(E) == oracles.check_comparable_contraposition(E)
    assert counterexample_search(E) == oracles.counterexample_search(E), E.name
    assert check_cone_equations(E) == oracles.check_cone_equations(E), E.name
    oracles.forget()


def test_suites_match_oracle_on_labeled_corpus(labeled):
    for E in labeled:
        assert_suites_match(E)


def test_laws_match_oracle_on_labeled_corpus_up_to_six(labeled):
    # the n = 7 algebras are left to the suites above: the reference
    # versions of these laws alone would take half a minute there
    for E in labeled:
        if E.n <= 6:
            assert_laws_match(E)


def test_adjointness_exchange_matches_oracle_at_seven(labeled):
    # the row-class shortcut of the exchange scan, on the algebras the
    # test above leaves out
    for E in labeled:
        if E.n == 7:
            assert adjointness_exchange_equivalence(E) == oracles.adjointness_exchange_equivalence(E)
            oracles.forget()


def test_cone_level_adjointness_matches_oracle_at_seven(labeled):
    # the class walk shared with C3, on the algebras the test above leaves out
    failing = 0
    for E in labeled:
        if E.n == 7:
            res = check_cone_level_adjointness(E)
            assert res == oracles.check_cone_level_adjointness(E, res.monotonicity), E.name
            oracles.forget()
            failing += not res.holds_globally
    assert failing == 240


def test_everything_matches_oracle_on_fixtures(fixtures):
    for E in fixtures:
        assert_suites_match(E)
        assert_laws_match(E)


@pytest.mark.parametrize("name", ["BOOL-5", "BOOL-6", "CHAIN-31", "CHAIN-32", "CHAIN-64"])
def test_cone_equations_match_oracle_on_large_fixtures(name):
    # the fixtures above 16 elements, where rows repeat cone classes most
    E = fixture(name)
    assert check_cone_equations(E) == oracles.check_cone_equations(E)
    oracles.forget()


def test_monotonicity_reduction_matches_the_sweep(labeled, fixtures):
    # verdict and witness, on every algebra the 2^n x 2^n sweep reaches
    for E in [*labeled, *fixtures]:
        if E.n <= 9:
            res = is_monotonous(E)
            assert res.exhaustive and res == oracles.is_monotonous(E), E.name


def test_meet_join_and_lattice_match_oracle(labeled):
    lattices = 0
    for E in [*labeled, *map(fixture, ("E9", "E6", "BOOL-4", "CHAIN-16"))]:
        p = E.order
        for x in range(E.n):
            for y in range(E.n):
                got = (p.meet(x, y), p.join(x, y))
                assert got == (oracles.meet(p, x, y), oracles.join(p, x, y)), (E.name, x, y)
        assert p.is_lattice() == oracles.is_lattice(p), E.name
        lattices += p.is_lattice()
    assert 0 < lattices < len(labeled)


def test_monotonicity_witness_takes_the_largest_failing_a_l():
    # EA8-40 of the labeled n = 8 listing: at x = x4 the A_l of the first
    # failing l is {x3,x4,x5}, with B = {0,x6}; the sweep reports the
    # numerically largest failing A_l
    n = 8
    sums = [[None] * n for _ in range(n)]
    cells = [(0, x, x) for x in range(n)] + [
        (1, 6, 7), (2, 5, 7), (3, 4, 7), (4, 4, 2), (4, 5, 3), (4, 6, 1), (5, 5, 2), (6, 6, 3),
    ]
    for a, b, s in cells:
        sums[a][b] = sums[b][a] = s
    E = EffectAlgebra.from_tables(("0", *(f"x{i}" for i in range(1, 7)), "1"), sums, 0, 7)
    res = is_monotonous(E)
    assert res.witness == (4, E.subset(3, 5, 6), E.subset(0, 4))
    assert res == oracles.is_monotonous(E)


def test_implication_cells_match_oracle(fixtures):
    rng = random.Random(7)
    for E in fixtures:
        table = implication_table(E)
        for x in range(E.n):
            for y in range(E.n):
                assert table[x, y] == implies(E, x, y) == oracles.implies(E, x, y)
        for _ in range(50):
            a = Subset(rng.getrandbits(E.n), E.n)
            b = Subset(rng.getrandbits(E.n), E.n)
            assert implies_sets(E, a, b) == oracles.implies_sets(E, a, b), (E.name, a, b)


def test_deductive_check_matches_oracle_on_random_subsets(fixtures):
    rng = random.Random(11)
    for E in fixtures:
        for _ in range(200):
            d = Subset(rng.getrandbits(E.n) | (1 << E.one) * rng.randrange(2), E.n)
            assert is_deductive_system(E, d) == oracles.is_deductive_system(E, d), (E.name, d)


def test_deductive_systems_match_the_definitional_sweep(labeled, fixtures):
    for E in [*labeled, *fixtures]:
        brute = oracles.enumerate_ded(E)
        assert [d.bits for d in enumerate_ded(E)] == brute, E.name
        assert count_ded(E) == len(brute), E.name


def mutations(c, rng, count):
    'Copies of the tables of `c` with one product or one implication cell changed.'
    n = c.n
    for _ in range(count):
        x, y = rng.randrange(n), rng.randrange(n)
        if rng.randrange(2):
            prods = [list(row) for row in c.products]
            prods[x][y] = rng.choice([None, *range(n)])
            yield c._replace(products=tuple(map(tuple, prods)))
        else:
            imps = [list(row) for row in c.imps]
            imps[x][y] = rng.getrandbits(n)
            yield c._replace(imps=tuple(map(tuple, imps)))


def test_row_keyed_check_matches_the_per_tuple_scan():
    # `holds` reads b only through its key, and the keys of a row repeat;
    # failing (a, key) pairs are planted in later rows, one key or several
    # keys of one row, and a few rows fail at once
    rng = random.Random(11)
    planted = set()
    for _ in range(800):
        n = rng.randint(1, 12)
        keys = [[rng.randrange(rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        bad = set()
        mode = rng.randrange(4)
        if mode:
            rows = [rng.randrange(n // 2, n) for _ in range(1 if mode < 3 else 3)]
            for a in rows:
                picks = rng.sample(range(n), rng.randint(1, n)) if mode == 2 else [rng.randrange(n)]
                bad.update((a, keys[a][b]) for b in picks)
        calls = []

        def holds(a, b):
            calls.append((a, keys[a][b]))
            return (a, keys[a][b]) not in bad

        # the key is a list per row, or a one-shot iterator as `zip` gives
        key = keys.__getitem__ if rng.randrange(2) else (lambda a: iter(keys[a]))
        got = _check("clause", n, 2, holds, key=key)
        assert len(calls) == len(set(calls)), "holds ran twice on one key of a row"
        assert got == oracles.check_per_tuple("clause", n, 2, holds), (keys, bad)
        planted.add((mode, got.passed))
    assert planted >= {(0, True), (1, False), (2, False), (3, False)}


def member_walk(c):
    'A (.) y as the oracle walks A member by member: a mask, or None if undefined.'
    def walk(y, mask):
        image = oracles._odot_image(c, Subset(mask, c.n), y)
        return None if image is None else image.bits
    return walk


def test_class_walk_lists_the_triples_of_the_pair_walk(labeled):
    # the column-by-column walk against a memoised walk over every pair
    # (x, y): the whole list of failing triples, not only the first, for C3
    # and cone-level adjointness on every algebra with n <= 7, and for C3 on
    # the mutated tables of the test below
    cone_failing = 0
    for E in labeled:
        p, up_imp = E.order, E.up_imp_bits
        got = list(adjointness_failures(p, E.comp, up_imp, member_walk(E)))
        assert got == list(oracles.walk_adjointness_failures(p, E.comp, E.products, up_imp))
        got = list(_cone_adjointness_failures(E))
        assert got == list(oracles.walk_cone_adjointness_failures(E)), E.name
        cone_failing += bool(got)
    rng = random.Random(3)
    c3_failing = 0
    for name in ("E9", "E6", "BOOL-3", "CHAIN-7"):
        c = from_effect_algebra(fixture(name))
        for bad in mutations(c, rng, 150):
            p = bad.poset
            up_imp = [[p.upper_bits(cell) for cell in row] for row in bad.imps]
            got = list(adjointness_failures(p, bad.inv, up_imp, member_walk(bad)))
            assert got == list(oracles.walk_adjointness_failures(p, bad.inv, bad.products, up_imp))
            c3_failing += len(got) > 1
    # lists of more than one triple are compared on most mutations
    assert cone_failing == 264 and c3_failing >= 200


def test_mutated_tables_report_like_oracle():
    rng = random.Random(3)
    broken = set()
    for name in ("E9", "E6", "BOOL-3", "CHAIN-7"):
        c = from_effect_algebra(fixture(name))
        for bad in mutations(c, rng, 150):
            rep = validate_surp(bad)
            assert rep == oracles.validate_surp(bad), name
            broken.update((v.axiom, v.message) for v in rep.violations)
    # the mutations reach every condition with a witness, and every C2 message
    assert broken >= {
        ("C2", "strictness: product defined iff x' <= y"),
        ("C2", "product not commutative"),
        ("C2", "top is not a unit"),
        ("C2", "product not associative"),
        ("C2", "product not monotone"),
        ("C2", "recovery x = y (.) (y (.) x')' fails"),
        ("C3", "unsharp adjointness fails"),
        ("C4", "implication to bottom is not the involute singleton"),
    }


def test_c3_fails_where_dual_adjointness_does(labeled, fixtures):
    # the cone-order form of adjointness, U(x,y') (.) y >= L(y,z) iff
    # U(x,y') >= (y -> z), unfolds into C3's subset form triple by triple, so
    # wherever C1 passes its first failing triple is C3's witness: on every
    # algebra with n <= 6, the fixtures and the mutated tables of the test above
    rng = random.Random(3)
    mutated = [bad for name in ("E9", "E6", "BOOL-3", "CHAIN-7") for bad in
               mutations(from_effect_algebra(fixture(name)), rng, 150)]
    failing = 0
    for c in [*(from_effect_algebra(E) for E in labeled if E.n <= 6),
              *(from_effect_algebra(E) for E in fixtures), *mutated]:
        rep = validate_surp(c)
        if rep.first("C1") is None:
            ref = oracles.check_dual_adjointness(c)
            assert ref.clause("matches_subset_form").passed, c.name
            c3 = rep.first("C3")
            assert ref.clause("cone_order_adjointness").witness == (c3 and c3.witness), c.name
            failing += c3 is not None
        oracles.forget()
    assert failing >= 200


def recovered(to_algebra, c):
    'The fields of the algebra `to_algebra` recovers from `c`, or the violations it raises.'
    try:
        return oracles.algebra_fields(to_algebra(c))
    except InvalidAlgebraError as exc:
        return exc.report.violations


def test_to_effect_algebra_matches_the_cell_loop(e6):
    # the row-at-a-time recovery against the cell-by-cell loop: the same
    # algebra or the same violations, the first strictness gap included, on
    # mutated tables and on involutions that are not antitone, not involutive
    # or not permutations, where {y : x <= y'} is not L(x')
    rng = random.Random(41)
    kinds = set()
    cands = [bad for name in ("E9", "E6", "BOOL-3", "CHAIN-7")
             for bad in mutations(from_effect_algebra(fixture(name)), rng, 150)]
    c = from_effect_algebra(e6)
    n, a, a_comp, b, b_comp = e6.n, *(e6.labels.index(s) for s in ("a", "a'", "b", "b'"))
    swapped = list(c.inv)
    swapped[a], swapped[b_comp], swapped[b], swapped[a_comp] = b_comp, a, a_comp, b
    cycled = list(c.inv)
    cycled[a], cycled[b], cycled[a_comp] = b, a_comp, a
    for inv in (swapped, range(n), cycled, [e6.one] * n, [*c.inv[1:], c.inv[0]]):
        cands.append(c._replace(inv=tuple(inv)))
    for cand in cands:
        want = recovered(oracles.to_effect_algebra, cand)
        assert recovered(to_effect_algebra, cand) == want, cand.name
        kinds.add(want[0].message if isinstance(want, list) else "recovered")
    # recovered algebras, strictness gaps, and failures at E1, E4, E3, the order axioms and E2
    assert kinds == {"recovered", "strictness gap", "sum table is not symmetric",
                     "sum with the top element defined", "no orthosupplement",
                     "duplicate complement candidates", "induced relation not reflexive",
                     "induced relation not transitive", "associativity fails"}


def test_c3_reads_the_cells_after_replace_or_assignment(e9):
    # C3 builds U(y -> z) from the cells the tables hold, whether they are the
    # algebra's own or came in by `_replace`, here with one U(y -> z) changed;
    # the tables are a tuple, so an assignment to `imps` raises instead
    c = from_effect_algebra(e9)
    n = e9.n
    y, z = next((y, z) for y in range(n) for z in range(n)
                if z != e9.zero and e9.up_imp_bits[y][z] != 1 << e9.one)
    imps = [list(row) for row in c.imps]
    imps[y][z] = 1 << e9.one
    imps = tuple(map(tuple, imps))
    with pytest.raises(AttributeError):
        c.imps = imps
    assert c.imps is e9.imp_bits
    bad = c._replace(imps=imps)
    want = oracles.validate_surp(bad)
    assert [v.axiom for v in want.violations] == ["C3"]
    assert validate_surp(bad) == want
    assert validate_surp(c).ok


def test_c3_and_c5_read_assigned_products_and_involution(e9, e6):
    # C3 and C5 read u (.) y off the products and the involution the tables
    # hold, in a copy with either replaced: off two cones once C2 passes on
    # them, else member by member
    rng = random.Random(31)
    axioms = set()
    for _ in range(40):
        c = from_effect_algebra(e9)
        prods = [list(row) for row in c.products]
        prods[rng.randrange(e9.n)][rng.randrange(e9.n)] = rng.choice([None, *range(e9.n)])
        c = c._replace(products=tuple(map(tuple, prods)))
        want = oracles.validate_surp(c)
        assert validate_surp(c) == want
        axioms.update(v.axiom for v in want.violations)
    assert "C3" in axioms
    # another antitone involution of E6's order, a <-> b' and b <-> a': C3 at
    # y = a then reads U(x,b'), which holds b', and a (.) b' is undefined
    c = from_effect_algebra(e6)
    a, a_comp, b, b_comp = (e6.labels.index(s) for s in ("a", "a'", "b", "b'"))
    inv = list(c.inv)
    inv[a], inv[b_comp], inv[b], inv[a_comp] = b_comp, a, a_comp, b
    c = c._replace(inv=tuple(inv))
    assert e6.odot(a, b_comp) is None
    assert validate_surp(c) == oracles.validate_surp(c)


def test_one_cell_mutations_break_divisibility_like_oracle(e9):
    # C5 is decided once per distinct pair (x -> y, L(x,y)) in a row, so a
    # changed cell must still count where an unchanged cell of its row shares
    # its L(x,y); every one-member change of every cell against the oracle
    c = from_effect_algebra(e9)
    n, low = e9.n, e9.order.pair_lower
    kinds = set()
    for x in range(n):
        for y in range(n):
            for w in range(n):
                imps = [list(row) for row in c.imps]
                imps[x][y] = cell = imps[x][y] ^ 1 << w
                bad = c._replace(imps=tuple(map(tuple, imps)))
                rep = validate_surp(bad)
                assert rep == oracles.validate_surp(bad), (x, y, w)
                if rep.ok and not rep.algebra.divisible:
                    shared = low[x].count(low[x][y]) > 1
                    defined = all(c.products[u][x] is not None for u in iter_bits(cell))
                    kinds.add((shared, defined))
    # C1-C4 pass and C5 fails with L(x,y) shared and not, and with
    # x (.) (x -> y) undefined and defined but wrong
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_monotonicity_scan_takes_z_before_x(e6):
    # two product cells changed: a (.) a' = a breaks monotonicity only in
    # column z = a', first at (a, 1, a'), and 0 (.) 1 = a only in column
    # z = 1, first at (0, a', 1); the scan walks z, then x >= z', then
    # y >= x, so it names the column-a' triple, which is not the
    # lexicographically first failing one
    c = from_effect_algebra(e6)
    a, a_comp, one = (e6.labels.index(lab) for lab in ("a", "a'", "1"))
    prods = [list(row) for row in c.products]
    prods[a][a_comp] = prods[e6.zero][one] = a
    bad = c._replace(products=tuple(map(tuple, prods)))
    rep = validate_surp(bad)
    assert rep == oracles.validate_surp(bad)
    assert [v.witness for v in rep.violations if v.message == "product not monotone"] == [
        (a, one, a_comp)
    ]


def test_mutated_sum_tables_report_like_oracle(monkeypatch):
    # one cell of the sum table changed, each row keeping its 1 so that
    # x' is still read off; check_sum_laws reports on every such table,
    # x -> x' a permutation or not, undefined sums included.  The
    # definedness clause takes its row-by-row test where ' is an antitone
    # involution, and the scan where it is not or where that test fails
    paths = set()

    def spy(name, n, arity, holds, quick=None, key=None):
        if name == "sum_defined_iff_below_complement":
            paths.add("scan" if quick is None else "quick" if quick() else "quick, then scan")
        return _check(name, n, arity, holds, quick, key)

    monkeypatch.setattr(algebra, "_check", spy)
    rng = random.Random(3)
    compared, failing = 0, set()
    for name in ("E9", "E6", "BOOL-3", "CHAIN-7", "BOOL-4"):
        E = fixture(name)
        for _ in range(150):
            x, y = rng.randrange(E.n), rng.randrange(E.n)
            if E.sums[x][y] == E.one:
                continue
            sums = [list(row) for row in E.sums]
            sums[x][y] = rng.choice([None, *range(E.n)])
            bad = EffectAlgebra(E.labels, tuple(map(tuple, sums)), E.zero, E.one, name)
            want = oracles.check_sum_laws(bad)
            assert check_sum_laws(bad) == want, (name, x, y, sums[x][y])
            compared += 1
            failing.update(c.clause for c in want.failures())
    assert compared == 645
    assert failing >= {
        "sum_monotone", "sum_defined_iff_below_complement", "difference_recovery",
        "zero_neutral", "complement_antitone",
    }
    assert paths == {"quick", "quick, then scan", "scan"}


SET_KINDS = ("empty", "principal", "other down-set", "one maximal, not a down-set",
             "not a down-set")


def set_kind(E, s):
    """Which path `sum_bits` takes with s as A or as B: a principal down-set L(m)
    is one table lookup, another down-set goes by its maximal elements, and
    any other set member by member."""
    if not s:
        return "empty"
    maxima = [m for m in s if not any(E.leq(m, y) for y in s if y != m)]
    if any(v not in s for y in s for v in range(E.n) if E.leq(v, y)):
        return "one maximal, not a down-set" if len(maxima) == 1 else "not a down-set"
    return "principal" if len(maxima) == 1 else "other down-set"


def assert_set_sums_like_oracle(E, rng, pairs):
    """A + B against the pairwise sums, for B each distinct cone L(x,y) of
    `pairs`, that cone without 0 (one maximal element, not a down-set), the
    empty set and a random set, and for A the largest set below B' pairwise,
    a random part of it, the down-set that part generates, the empty set and
    a random set; an undefined pair raises the same ValueError.  Returns the
    kinds (of A, of B) of the defined sums, with "undefined" when some pair
    was undefined."""
    n, kinds = E.n, set()
    cones = {E.order.lower_cone(E.subset(x, y)) for x, y in pairs}
    rest = {Subset(c.bits & ~(1 << E.zero), n) for c in cones} - {Subset(0, n)}
    sets = [*sorted(cones | rest, key=lambda s: s.bits), Subset(0, n)]
    for b in [*sets, Subset(rng.getrandbits(n), n)]:
        below = sum(1 << v for v in range(n) if all(E.add(v, w) is not None for w in b))
        part = below & rng.getrandbits(n)
        generated = functools.reduce(or_, [E.order.down[v] for v in range(n) if part >> v & 1], 0)
        for bits in (below, part, generated, 0, rng.getrandbits(n)):
            a = Subset(bits, n)
            try:
                want = oracles.add_sets(E, a, b)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    E.add_sets(a, b)
                assert str(got.value) == str(exc), (E.name, a, b)
                kinds.add("undefined")
                continue
            assert E.add_sets(a, b) == want, (E.name, a, b)
            assert E.sum_bits(a.bits, b.bits) == want.bits, (E.name, a, b)
            kinds.add((set_kind(E, a), set_kind(E, b)))
    return kinds


def test_set_sums_match_oracle(labeled, fixtures):
    rng = random.Random(17)
    kinds = set()
    for E in [*labeled, *fixtures]:
        pairs = [(x, y) for x in range(E.n) for y in range(E.n)]
        kinds |= {(E.name, k) for k in assert_set_sums_like_oracle(E, rng, pairs)}
    # L(x,y) has one maximal element on the lattice E6 and two on E9
    assert {("E6", (a, "principal")) for a in SET_KINDS} <= kinds
    assert ("E9", ("principal", "other down-set")) in kinds
    # every kind of A meets every kind of B, the table lookup included
    assert {k for _, k in kinds} == {"undefined", *itertools.product(SET_KINDS, SET_KINDS)}
    for name in ("BOOL-6", "CHAIN-64"):
        E = fixture(name)
        pairs = [(rng.randrange(E.n), rng.randrange(E.n)) for _ in range(12)]
        assert "undefined" in assert_set_sums_like_oracle(E, rng, pairs), name


def test_down_sums_table_against_oracle(labeled, fixtures):
    # every entry L(t) + L(m), t <= m', against the pairwise sums, and 0 for
    # the pairs with no sum; on Boolean algebras and chains, where Riesz
    # decomposition holds, each entry is L(t + m), and on E9 and E6 it is not
    larger = [fixture(name) for name in ("BOOL-5", "BOOL-6", "CHAIN-24", "CHAIN-32", "CHAIN-48",
                                         "CHAIN-64")]
    closed_form_misses = {}
    for E in [*labeled, *fixtures, *larger]:
        n, down = E.n, E.order.down
        want = [[0] * n for _ in range(n)]
        misses = 0
        for t in range(n):
            for m in range(n):
                if E.leq(t, E.comp[m]):
                    want[t][m] = oracles.add_sets(E, Subset(down[t], n), Subset(down[m], n)).bits
                    misses += want[t][m] != down[E.sums[t][m]]
        assert list(map(list, E._down_sums)) == want, E.name
        closed_form_misses[E.name] = misses
    bool_chain = [name for name in closed_form_misses if name.startswith(("BOOL-", "CHAIN-"))]
    assert len(bool_chain) == 25 and not any(closed_form_misses[name] for name in bool_chain)
    assert closed_form_misses["E9"] == 9 and closed_form_misses["E6"] == 4


def test_products_match_oracle(labeled, fixtures):
    # the product table against x (.) y = (x' + y')' cell by cell, and the
    # images x (.) A for A above x', a random part of that and a random set
    rng = random.Random(19)
    for E in [*labeled, *fixtures, fixture("BOOL-6"), fixture("CHAIN-64")]:
        n = E.n
        assert E.products == tuple(tuple(E.odot(x, y) for y in range(n)) for x in range(n))
        for x in range(n):
            above = E.order.up[E.comp[x]]
            for bits in (above, above & rng.getrandbits(n), rng.getrandbits(n)):
                a = Subset(bits, n)
                try:
                    want = oracles.odot_image(E, x, a)
                except ValueError:  # some product undefined: no image
                    continue
                assert E.odot_bits(x, bits) == want.bits, (E.name, x, a)
        oracles.forget()


def walk(row, mask):
    'The image {row[a] : a in A} member by member; an undefined row[a] raises TypeError.'
    image = 0
    for a in range(len(row)):
        if mask >> a & 1:
            image |= 1 << row[a]
    return image


def outcome(fn, *args):
    'What fn returns, or the text of the TypeError it raises on an undefined member.'
    try:
        return fn(*args)
    except TypeError as exc:
        return str(exc)


def test_interval_images_match_the_walk(labeled, fixtures):
    # A', x + A and x (.) A against the walk: on every interval [p,q], where
    # the helpers read two cones, and on seeded sets that are not intervals,
    # defined or not, where they walk; intervals whose far end has no sum
    # (x + q) or no product (x (.) p) go down the walk and raise its TypeError
    rng = random.Random(23)
    kinds = set()
    for E in [*labeled, *fixtures]:
        n, p = E.n, E.order
        intervals = {p.up[lo] & p.down[hi]: (lo, hi)
                     for lo in range(n) for hi in range(n) if E.leq(lo, hi)}
        # one key per pair p <= q: distinct pairs give distinct intervals
        assert p._intervals == intervals
        assert len(intervals) == sum(u.bit_count() for u in p.up), E.name
        seeded = [rng.getrandbits(n) for _ in range(8)]
        for mask in [*intervals, *seeded]:
            assert E.comp_bits(mask) == walk(E.comp, mask), (E.name, mask)
        for x in range(n):
            below, above = p.down[E.comp[x]], p.up[E.comp[x]]
            for mask in [*intervals, *seeded, *(below & m for m in seeded),
                         *(above & m for m in seeded)]:
                got = outcome(E.add_bits, x, mask), outcome(E.odot_bits, x, mask)
                want = outcome(walk, E.sums[x], mask), outcome(walk, E.products[x], mask)
                assert got == want, (E.name, x, mask)
                if mask in intervals:
                    lo, hi = intervals[mask]
                    kinds.add("far sum" if (E.add(x, lo), E.add(x, hi)).count(None) == 1
                              else "far product" if (E.odot(x, lo), E.odot(x, hi)).count(None) == 1
                              else "interval")
                else:
                    kinds.add(("other", any(isinstance(w, str) for w in want)))
    assert kinds == {"interval", "far sum", "far product", ("other", False), ("other", True)}


def test_cones_match_oracle(labeled, fixtures):
    # L(A) and U(A) against the definition: on every interval [p,q], where
    # two or more members give L(p) and U(q), and on seeded masks that are
    # empty, singletons or not intervals, which are walked
    rng = random.Random(37)
    kinds = set()
    for E in [*labeled, *fixtures]:
        n, p = E.n, E.order
        seeded = [0, *(1 << rng.randrange(n) for _ in range(2)),
                  *(rng.getrandbits(n) for _ in range(6))]
        for mask in [*p._intervals, *seeded]:
            a = Subset(mask, n)
            got = p.lower_bits(mask), p.upper_bits(mask)
            assert got == (oracles._lower(p, a).bits, oracles._upper(p, a).bits), (E.name, mask)
            kinds.add("interval" if mask in p._intervals and len(a) > 1
                      else "other" if len(a) > 1 else len(a))
        oracles.forget()
    assert kinds == {"interval", "other", 0, 1}


def test_cone_pair_matches_oracle(labeled, fixtures):
    # no element, one, two (x, x among them) and three, against the cones of
    # the checked Subset; out-of-range elements raise as `Subset.of` does
    rng = random.Random(29)
    for E in [*labeled, *fixtures]:
        n, p = E.n, E.order
        triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(4)]
        for elements in [(), *((x,) for x in range(n)), *itertools.product(range(n), repeat=2),
                         *triples]:
            a = Subset.of(n, elements)
            assert p.cone_pair(*elements) == (oracles._lower(p, a), oracles._upper(p, a))
        oracles.forget()
        for elements in [(-1,), (n,), (0, n), (-1, 0), (n, n), (0, 0, n), (64,)]:
            bad = next(x for x in elements if not 0 <= x < n)
            with pytest.raises(ValueError) as got:
                p.cone_pair(*elements)
            assert str(got.value) == f"element {bad} outside carrier 0..{n - 1}"


def test_principal_set_sums_match_oracle(labeled, fixtures):
    # L(t) + L(m) for every pair, the table entry where t <= m' and the
    # oracle's ValueError where not
    for E in [*labeled, *fixtures]:
        n, down = E.n, E.order.down
        for t, m in itertools.product(range(n), repeat=2):
            a, b = Subset(down[t], n), Subset(down[m], n)
            try:
                want = oracles.add_sets(E, a, b)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    E.add_sets(a, b)
                assert str(got.value) == str(exc), (E.name, t, m)
                continue
            assert E.add_sets(a, b) == want, (E.name, t, m)


@functools.cache
def table_implies(E, x, y):
    'x -> y read from the table the algebra carries, mutated or not.'
    return Subset(E.imp_bits[x][y], E.n)


def with_imp_bits(E, imp):
    'A copy of `E` carrying the implication table `imp` in place of its own.'
    F = EffectAlgebra(E.labels, E.sums, E.zero, E.one, E.name)
    F.__dict__["imp_bits"] = tuple(map(tuple, imp))
    return F


def mutated_imp_bits(E, rng, count):
    """Copies of `E` with one implication cell changed: one member toggled,
    another cell copied, or a member toggled in the cell of a later b whose
    cones L(a,b), U(a',b') and L(a) n LU(b) equal those of an earlier b in
    the row, so that only the cell a -> b tells the two pairs apart."""
    n, p, comp = E.n, E.order, E.comp
    cones = [[(p.pair_lower[a][b], p.pair_upper[comp[a]][comp[b]],
               p.down[a] & p.lower_bits(p.up[b])) for b in range(n)] for a in range(n)]
    repeats = [(a, b) for a, row in enumerate(cones) for b in range(n) if row[b] in row[:b]]
    for _ in range(count):
        imp = [list(row) for row in E.imp_bits]
        x, y = rng.randrange(n), rng.randrange(n)
        mode = rng.randrange(3)
        if mode == 1:
            imp[x][y] = imp[rng.randrange(n)][rng.randrange(n)]
        else:
            if mode == 2:
                x, y = rng.choice(repeats)
            imp[x][y] ^= 1 << rng.randrange(n)
        yield with_imp_bits(E, imp)


def test_mutated_implication_tables_report_like_oracle(monkeypatch, labeled):
    # th2, th4 and adjointness-exchange against the reference versions, and
    # th3 against the 2^n sweep, with both reading the mutated cells;
    # mutations whose cells leave a sum undefined raise in the reference
    monkeypatch.setattr(oracles, "implies", table_implies)
    rng = random.Random(5)
    bases = [fixture(name) for name in ("E9", "E6", "BOOL-3", "CHAIN-7")]
    bases += rng.sample([E for E in labeled if E.n >= 5], 6)
    # rows of these repeat cone classes, so the suites' per-class verdicts
    # are reused there; the 2^n sweep of th3 is left to the smaller bases
    bases += [fixture("BOOL-4"), fixture("CHAIN-16")]
    compared = failing = th3_failing = 0
    for E in bases:
        for F in mutated_imp_bits(E, rng, 80):
            if E.n < 16:
                assert_th3_like_oracle(F)
                th3_failing += not characterization_agreement(F).holds
            try:
                want = (
                    oracles.element_implication_suite(F),
                    oracles.set_implication_suite(F),
                    oracles.adjointness_exchange_equivalence(F),
                )
            except (TypeError, ValueError):
                continue
            finally:
                oracles.forget()
            got = (
                element_implication_suite(F),
                set_implication_suite(F),
                adjointness_exchange_equivalence(F),
            )
            assert got == want, F.name
            compared += 1
            failing += not all(rep.ok for rep in got)
    # the mutations reach the fast paths' scans, their passes and th3's failures
    assert compared >= 300 and compared - 100 <= failing < compared and th3_failing >= 60


def test_nested_consequent_fails_at_a_later_value_of_the_consequent_cone(monkeypatch, e6):
    # the cell a' -> a = {a} gains 0: for (a, a') the clause holds at
    # c = 0, where L(a' -> 0) is untouched, and fails first at c = a, so
    # the witness comes from a second value of L(a' -> c)
    monkeypatch.setattr(oracles, "implies", table_implies)
    a, a_comp = e6.labels.index("a"), e6.labels.index("a'")
    imp = [list(row) for row in e6.imp_bits]
    imp[a_comp][a] |= 1
    F = with_imp_bits(e6, imp)
    got, want = set_implication_suite(F), oracles.set_implication_suite(F)
    oracles.forget()
    assert got == want
    assert got.clause("nested_consequent").witness == (a, a_comp, a)
