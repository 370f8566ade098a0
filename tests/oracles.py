"""Reference versions of the law suites, written directly over `Subset`.

Each clause is evaluated the way it is stated, with every cone, sum and
implication cell a `Subset` computed on the spot, independently of the
package's per-algebra bitmask tables.  They are slow and serve only as
oracles: the tests check that the package's suites report the same
verdicts, witnesses, skip flags and details.  Cones and implication cells
are memoised per algebra, since the suites ask for the same ones many
times over; `forget()` drops them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import Optional, Union

from unsharp import (
    EffectAlgebra,
    InvalidAlgebraError,
    MonotonicityResult,
    Poset,
    Subset,
    UnsharpResiduatedPoset,
    validate_involution,
)
from unsharp.algebra import first_asymmetric_pair, first_nonassociative_triple
from unsharp.deduction import (
    CompletenessReport,
    DedLattice,
    DeductiveCheck,
    _closure_witness,
    _generated,
)
from unsharp.laws import ConeAdjointness
from unsharp.poset import MAX_CARRIER, OrderError, check_order_axioms, iter_bits
from unsharp.reports import (
    ClauseResult,
    LawReport,
    LawViolation,
    PropertyReport,
    ValidationReport,
    Violation,
)

ElemOrSet = Union[int, Subset]


def _as_subset(E: EffectAlgebra, v: ElemOrSet) -> Subset:
    if isinstance(v, Subset):
        return v
    return Subset.single(E.n, v)


def _odot_image(c: UnsharpResiduatedPoset, a: Subset, y: int):
    "A (.) y elementwise; None when any product is undefined."
    bits = 0
    for u in a:
        v = c.products[u][y]
        if v is None:
            return None
        bits |= 1 << v
    return Subset(bits, c.n)


def forget():
    'Drop the memoised cones and cells, which keep their algebras alive.'
    for fn in (_subset, _lower, _upper, implies, implies_sets, odot_image):
        fn.cache_clear()


@functools.cache
def _subset(E: EffectAlgebra, *elements: int) -> Subset:
    return E.subset(*elements)


@functools.cache
def _lower(p, a: Subset) -> Subset:
    'L(A) by the definition: every v below every member of A, that is, A inside U(v).'
    return Subset(sum(1 << v for v in range(p.n) if not a.bits & ~p.up[v]), p.n)


@functools.cache
def _upper(p, a: Subset) -> Subset:
    'U(A) by the definition: every v above every member of A, that is, A inside L(v).'
    return Subset(sum(1 << v for v in range(p.n) if not a.bits & ~p.down[v]), p.n)


@functools.cache
def _bound_tables(up: tuple[int, ...]) -> tuple[list[list], list[list]]:
    """The meet and the join of every pair, None where there is none, read
    off the order by the definitions.  Keyed on the up-sets, so the copies
    of an algebra that the mutation tests make share one pair of tables."""
    n = len(up)

    def leq(a, b):
        return bool(up[a] >> b & 1)

    def greatest(zs, below):
        return next((m for m in zs if all(below(z, m) for z in zs)), None)

    meets = [[greatest([z for z in range(n) if leq(z, x) and leq(z, y)], leq)
              for y in range(n)] for x in range(n)]
    joins = [[greatest([z for z in range(n) if leq(x, z) and leq(y, z)], lambda a, b: leq(b, a))
              for y in range(n)] for x in range(n)]
    return meets, joins


def meet(p: Poset, x: int, y: int):
    'The greatest common lower bound of x and y, or None.'
    return _bound_tables(p.up)[0][x][y]


def join(p: Poset, x: int, y: int):
    'The least common upper bound of x and y, or None.'
    return _bound_tables(p.up)[1][x][y]


def is_lattice(p: Poset) -> bool:
    'Every pair has a meet and a join.'
    meets, joins = _bound_tables(p.up)
    return all(None not in row for row in meets + joins)


def add_sets(E: EffectAlgebra, a: Subset, b: Subset) -> Subset:
    """A + B = {x + y : x in A, y in B}; the first pair (x, y) whose sum
    is undefined raises ValueError, with the package's message."""
    bits = 0
    for x in a:
        for y in b:
            v = E.add(x, y)
            if v is None:
                raise ValueError(f"set sum undefined: {E.labels[x]} + {E.labels[y]}")
            bits |= 1 << v
    return Subset(bits, E.n)


@functools.cache
def implies(E: EffectAlgebra, x: int, y: int) -> Subset:
    "x -> y = x' + L(x,y); always defined since L(x,y) <= x."
    low = E.order.lower_cone(_subset(E, x, y))
    return E.add_elem_set(E.comp[x], low)


@functools.cache
def implies_sets(E: EffectAlgebra, a: ElemOrSet, b: ElemOrSet) -> Subset:
    """A -> B = A' + L(A u B), with elements read as singletons.

    An empty antecedent yields the empty set (the elementwise sum has
    nothing to range over).
    """
    sa, sb = _as_subset(E, a), _as_subset(E, b)
    low = E.order.lower_cone(sa | sb)
    return add_sets(E, E.set_complement(sa), low)


@functools.cache
def odot_image(E: EffectAlgebra, x: int, a: Subset) -> Subset:
    'x (.) A elementwise; every element of A must dominate x-orthosupplement.'
    if a.n != E.n:
        raise ValueError("carrier mismatch")
    bits = 0
    for w in a:
        v = E.odot(x, w)
        if v is None:
            raise ValueError(
                f"product undefined: {E.labels[x]} (.) {E.labels[w]}"
            )
        bits |= 1 << v
    return Subset(bits, E.n)


def element_implication_suite(E: EffectAlgebra) -> PropertyReport:
    """Twelve laws of element implication, one clause each.

    The meet clause only applies to lattices and is marked skipped
    elsewhere.  Witnesses are the lexicographically first offending
    tuples.
    """
    n, p = E.n, E.order
    comp = E.comp
    imp = [[implies(E, x, y) for y in range(n)] for x in range(n)]
    up_comp = [Subset(p.up[comp[x]], n) for x in range(n)]

    def first_pair(pred):
        return next(
            ((a, b) for a in range(n) for b in range(n) if not pred(a, b)), None
        )

    def first_triple(pred):
        return next(
            (
                (a, b, c)
                for a in range(n)
                for b in range(n)
                for c in range(n)
                if not pred(a, b, c)
            ),
            None,
        )

    clauses = []

    wit = first_pair(lambda a, b: imp[a][b].issubset(up_comp[a]))
    clauses.append(ClauseResult("bounded_by_complement_cone", wit is None, wit))

    wit = first_pair(lambda a, b: not p.leq(a, b) or imp[a][b] == up_comp[a])
    clauses.append(ClauseResult("constant_on_leq", wit is None, wit))

    wit = first_pair(
        lambda a, b: not p.leq(b, a)
        or imp[a][b] == p.interval(comp[a], E.sums[comp[a]][b])
    )
    clauses.append(ClauseResult("interval_on_geq", wit is None, wit))

    one_set = _subset(E, E.one)
    wit = next(((b,) for b in range(n) if imp[E.zero][b] != one_set), None)
    clauses.append(ClauseResult("zero_antecedent", wit is None, wit))

    wit = next(
        ((a,) for a in range(n) if imp[a][E.zero] != _subset(E, comp[a])), None
    )
    clauses.append(ClauseResult("zero_consequent", wit is None, wit))

    wit = next(
        (
            (b,)
            for b in range(n)
            if imp[E.one][b] != _lower(p, _subset(E, b))
        ),
        None,
    )
    clauses.append(ClauseResult("one_antecedent", wit is None, wit))

    wit = first_pair(
        lambda a, b: _lower(p, imp[a][b]) == _lower(p, _subset(E, comp[a]))
    )
    clauses.append(ClauseResult("lower_cone_collapse", wit is None, wit))

    wit = first_pair(
        lambda a, b: odot_image(E, a, imp[a][b]) == _lower(p, _subset(E, a, b))
    )
    clauses.append(ClauseResult("product_recovers_cone", wit is None, wit))

    wit = first_triple(
        lambda a, b, c: not p.leq(b, c) or imp[a][b].issubset(imp[a][c])
    )
    clauses.append(ClauseResult("monotone_in_consequent", wit is None, wit))

    def complement_forms(a, b):
        low = _lower(p, _subset(E, a, b))
        v1 = E.set_complement(odot_image(E, a, E.set_complement(low)))
        v2 = E.set_complement(
            odot_image(E, a, _upper(p, _subset(E, comp[a], comp[b])))
        )
        return imp[a][b] == v1 and imp[a][b] == v2

    wit = first_pair(complement_forms)
    clauses.append(ClauseResult("product_complement_forms", wit is None, wit))

    def exchange(a, b, c):
        lhs = p.set_leq(imp[a][b], _upper(p, _subset(E, comp[a], comp[c])))
        rhs = p.set_leq(imp[a][c], _upper(p, _subset(E, comp[a], comp[b])))
        return lhs == rhs

    wit = first_triple(exchange)
    clauses.append(ClauseResult("consequent_exchange", wit is None, wit))

    if is_lattice(p):
        wit = first_pair(lambda a, b: imp[a][meet(p, a, b)] == imp[a][b])
        clauses.append(ClauseResult("meet_consequent_collapse", wit is None, wit))
    else:
        clauses.append(
            ClauseResult("meet_consequent_collapse", True, None, skipped=True,
                         detail="not a lattice")
        )
    return PropertyReport("element-implication", clauses)


def set_implication_suite(E: EffectAlgebra) -> PropertyReport:
    """Seven laws of implication with set arguments.

    The cone-antecedent clause checks all three pairwise equalities of
    the chained expressions against the closed form L(a') + L(a,b).
    """
    n, p = E.n, E.order
    comp = E.comp
    clauses = []

    wit = next(
        (
            (a,)
            for a in range(n)
            if implies_sets(E, implies(E, a, E.zero), E.zero) != _subset(E, a)
        ),
        None,
    )
    clauses.append(ClauseResult("double_negation", wit is None, wit))

    wit = None
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if implies_sets(E, a, implies(E, b, c)) != implies(E, a, comp[b]):
                    wit = (a, b, c)
                    break
            if wit:
                break
        if wit:
            break
    clauses.append(ClauseResult("nested_consequent", wit is None, wit))

    wit = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if implies_sets(E, a, _upper(p, _subset(E, b))) != implies(E, a, b)
        ),
        None,
    )
    clauses.append(ClauseResult("cone_consequent", wit is None, wit))

    def cone_antecedent(a, b):
        ua = _upper(p, _subset(E, a))
        first = implies_sets(E, ua, b)
        closed = add_sets(E, _lower(p, _subset(E, comp[a])), _lower(p, _subset(E, a, b)))
        return (
            first == implies_sets(E, ua, _upper(p, _subset(E, b)))
            and first == implies_sets(E, _upper(p, _subset(E, comp[a], comp[b])), comp[a])
            and first == closed
        )

    wit = next(
        ((a, b) for a in range(n) for b in range(n) if not cone_antecedent(a, b)),
        None,
    )
    clauses.append(ClauseResult("cone_antecedent", wit is None, wit))

    wit = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if implies_sets(E, a, _lower(p, _subset(E, a, b))) != _subset(E, comp[a])
        ),
        None,
    )
    clauses.append(ClauseResult("own_lower_cone", wit is None, wit))

    def own_upper(a, b):
        lhs = implies_sets(E, a, _upper(p, _subset(E, a, b)))
        rhs = E.add_elem_set(comp[a], _lower(p, _subset(E, a)))
        return lhs == rhs

    wit = next(
        ((a, b) for a in range(n) for b in range(n) if not own_upper(a, b)), None
    )
    clauses.append(ClauseResult("own_upper_cone", wit is None, wit))

    wit = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if _upper(p, implies_sets(E, a, _upper(p, _subset(E, a, b))))
            != _subset(E, E.one)
        ),
        None,
    )
    clauses.append(ClauseResult("tautology_cone", wit is None, wit))
    return PropertyReport("set-implication", clauses)


def from_effect_algebra(E: EffectAlgebra) -> UnsharpResiduatedPoset:
    """Derive product and implication tables from an effect algebra.

    x (.) y = (x' + y')' where defined, x -> y = x' + L(x,y).
    """
    n = E.n
    products = tuple(
        tuple(E.odot(x, y) for y in range(n)) for x in range(n)
    )
    imps = tuple(tuple(implies(E, x, y).bits for y in range(n)) for x in range(n))
    return UnsharpResiduatedPoset(E.order, E.comp, products, imps, name=E.name)


def to_effect_algebra(c: UnsharpResiduatedPoset) -> EffectAlgebra:
    """Recover the effect algebra via x + y = (x' (.) y')' for x <= y', cell
    by cell, raising the first strictness gap met in row-major order."""
    p = c.poset
    n = p.n
    inv = c.inv
    sums: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if p.leq(x, inv[y]):
                t = c.products[inv[x]][inv[y]]
                if t is None:
                    raise InvalidAlgebraError(
                        ValidationReport(
                            [Violation("C2", (inv[x], inv[y]), "strictness gap")]
                        )
                    )
                sums[x][y] = inv[t]
    report = validate_tables(p.labels, sums, p.bottom, p.top, name=c.name)
    if not report.ok:
        raise InvalidAlgebraError(report)
    E = report.algebra
    if E.order.up != p.up:
        raise InvalidAlgebraError(
            ValidationReport(
                [Violation("order", (), "derived order differs from the poset")]
            )
        )
    return E


def validate_surp(c: UnsharpResiduatedPoset) -> ValidationReport:
    """Check (C1)-(C4) and set the divisibility flag per (C5).

    A failed involution (C1) stops the run; the remaining conditions are
    each checked independently with one witness apiece, since a single
    mutation can break several at once.
    """
    p = c.poset
    n = p.n
    inv = c.inv
    prod = c.products
    violations: list[Violation] = []

    inv_report = validate_involution(p, inv)
    if not inv_report.ok:
        bad = inv_report.failures()[0]
        violations.append(
            Violation("C1", bad.witness or (), f"involution {bad.clause} fails")
        )
        return ValidationReport(violations, None)

    def add(axiom, witness, message):
        violations.append(Violation(axiom, witness, message))

    # C2: strict partial commutative monoid, monotone, with recovery
    wit = next(
        (
            (x, y)
            for x in range(n)
            for y in range(n)
            if (prod[x][y] is not None) != p.leq(inv[x], y)
        ),
        None,
    )
    if wit:
        add("C2", wit, "strictness: product defined iff x' <= y")
    wit = next(
        (
            (x, y)
            for x in range(n)
            for y in range(n)
            if prod[x][y] != prod[y][x]
        ),
        None,
    )
    if wit:
        add("C2", wit, "product not commutative")
    wit = next(
        (
            (x,)
            for x in range(n)
            if prod[x][p.top] != x or prod[p.top][x] != x
        ),
        None,
    )
    if wit:
        add("C2", wit, "top is not a unit")
    wit = None
    for x in range(n):
        for y in range(n):
            pxy = prod[x][y]
            for z in range(n):
                pyz = prod[y][z]
                left = prod[pxy][z] if pxy is not None else None
                right = prod[x][pyz] if pyz is not None else None
                if left != right:
                    wit = (x, y, z)
                    break
            if wit:
                break
        if wit:
            break
    if wit:
        add("C2", wit, "product not associative")
    wit = next(
        (
            (x, y, z)
            for z in range(n)
            for x in range(n)
            for y in range(n)
            if p.leq(inv[z], x)
            and p.leq(x, y)
            and prod[x][z] is not None
            and prod[y][z] is not None
            and not p.leq(prod[x][z], prod[y][z])
        ),
        None,
    )
    if wit:
        add("C2", (wit[0], wit[1], wit[2]), "product not monotone")
    wit = None
    for x in range(n):
        for y in range(n):
            if not p.leq(x, y):
                continue
            inner = prod[y][inv[x]]
            if inner is None or prod[y][inv[inner]] != x:
                wit = (x, y)
                break
        if wit:
            break
    if wit:
        add("C2", wit, "recovery x = y (.) (y (.) x')' fails")

    # C3: unsharp adjointness, quantified over all triples
    wit = None
    for x in range(n):
        for y in range(n):
            umask = p.up[x] & p.up[inv[y]]
            image = _odot_image(c, Subset(umask, n), y)
            for z in range(n):
                lyz = p.down[y] & p.down[z]
                ul = _upper(p, Subset(lyz, n)).bits
                lhs = image is not None and not (image.bits & ~ul)
                target = _upper(p, Subset(c.imps[y][z], n)).bits
                rhs = not (umask & ~target)
                if lhs != rhs:
                    wit = (x, y, z)
                    break
            if wit:
                break
        if wit:
            break
    if wit:
        add("C3", wit, "unsharp adjointness fails")

    # C4: x -> 0 = {x'}
    wit = next(
        (
            (x,)
            for x in range(n)
            if Subset(c.imps[x][p.bottom], n) != Subset.single(n, inv[x])
        ),
        None,
    )
    if wit:
        add("C4", wit, "implication to bottom is not the involute singleton")

    # C5: divisibility x (.) (x -> y) = L(x,y)
    divisible = True
    for x in range(n):
        for y in range(n):
            image = _odot_image(c, Subset(c.imps[x][y], n), x)
            if image is None or image.bits != p.down[x] & p.down[y]:
                divisible = False
                break
        if not divisible:
            break

    if violations:
        return ValidationReport(violations, None)
    out = replace(c, divisible=divisible)
    return ValidationReport([], out)


def check_dual_adjointness(c: UnsharpResiduatedPoset) -> PropertyReport:
    """The cone-order form of adjointness, checked against the subset form.

    For every triple: U(x,y') (.) y >= L(y,z) iff U(x,y') >= (y -> z),
    and each side must coincide with the corresponding subset-inclusion
    side of the primary condition.
    """
    p = c.poset
    n = p.n
    inv = c.inv
    adj_wit = match_wit = None
    for x in range(n):
        for y in range(n):
            ux = Subset(p.up[x] & p.up[inv[y]], n)
            image = _odot_image(c, ux, y)
            for z in range(n):
                lyz = Subset(p.down[y] & p.down[z], n)
                incl_lhs = image is not None and image.issubset(_upper(p, lyz))
                incl_rhs = ux.issubset(_upper(p, Subset(c.imps[y][z], n)))
                cone_lhs = image is not None and p.set_leq(lyz, image)
                cone_rhs = p.set_leq(Subset(c.imps[y][z], n), ux)
                if cone_lhs != cone_rhs and adj_wit is None:
                    adj_wit = (x, y, z)
                if (incl_lhs != cone_lhs or incl_rhs != cone_rhs) and match_wit is None:
                    match_wit = (x, y, z)
            if adj_wit and match_wit:
                break
        if adj_wit and match_wit:
            break
    return PropertyReport(
        "dual-adjointness",
        [
            ClauseResult("cone_order_adjointness", adj_wit is None, adj_wit),
            ClauseResult("matches_subset_form", match_wit is None, match_wit),
        ],
    )


def adjointness_exchange_equivalence(E: EffectAlgebra) -> PropertyReport:
    """Adjointness and the consequent-exchange law, evaluated independently.

    Both biconditionals are computed per triple and must agree pointwise
    (and each holds outright on a valid algebra).
    """
    c = from_effect_algebra(E)
    p = E.order
    n = E.n
    comp = E.comp
    adj_wit = exch_wit = match_wit = None
    for a in range(n):
        for b in range(n):
            u_ab = Subset(p.up[a] & p.up[comp[b]], n)
            image = _odot_image(c, u_ab, b)
            for cc in range(n):
                lbc = Subset(p.down[b] & p.down[cc], n)
                adj_lhs = image is not None and image.issubset(_upper(p, lbc))
                adj_rhs = u_ab.issubset(_upper(p, Subset(c.imps[b][cc], n)))
                adj = adj_lhs == adj_rhs
                ex_lhs = p.set_leq(
                    Subset(c.imps[a][b], n), _upper(p, _subset(E, comp[a], comp[cc]))
                )
                ex_rhs = p.set_leq(
                    Subset(c.imps[a][cc], n), _upper(p, _subset(E, comp[a], comp[b]))
                )
                exch = ex_lhs == ex_rhs
                if not adj and adj_wit is None:
                    adj_wit = (a, b, cc)
                if not exch and exch_wit is None:
                    exch_wit = (a, b, cc)
                if adj != exch and match_wit is None:
                    match_wit = (a, b, cc)
    return PropertyReport(
        "adjointness-exchange",
        [
            ClauseResult("adjointness_biconditional", adj_wit is None, adj_wit),
            ClauseResult("exchange_biconditional", exch_wit is None, exch_wit),
            ClauseResult("pointwise_match", match_wit is None, match_wit),
        ],
    )


def is_deductive_system(E: EffectAlgebra, d: Subset) -> DeductiveCheck:
    """Both defining conditions, checked directly with no shortcut."""
    if d.n != E.n:
        raise ValueError("carrier mismatch")
    if E.one not in d:
        return DeductiveCheck(False, ("one",))
    bits = d.bits
    for x in d:
        for y in range(E.n):
            if not (implies(E, x, y).bits & ~bits) and not (bits >> y & 1):
                return DeductiveCheck(False, (x, y))
    return DeductiveCheck(True)


def characterization_agreement(E: EffectAlgebra) -> DeductiveCheck:
    """Sweep all 2^n subsets: every proper one containing 1, comparing the
    direct closure test with the disjointness criterion.  Returns the first
    disagreeing subset as witness, if any.  The closure test reads the
    algebra's implication table, mutated or not."""
    one_bit = 1 << E.one
    full = (1 << E.n) - 1
    for mask in range(1 << E.n):
        if not mask & one_bit or mask == full:
            continue
        closed = _closure_witness(E, mask) is None
        if closed != (not E.comp_bits(mask) & mask):
            return DeductiveCheck(False, tuple(iter_bits(mask)))
    return DeductiveCheck(True)


def _family_bounds(lat: DedLattice, family: tuple[int, ...]):
    """Greatest lower / least upper bound of a family, found by scanning
    every system for the bounds and then for the extreme one; None if missing."""
    members = [s.bits for s in lat.systems]
    lowers = [b for b in members if all(not (b & ~members[i]) for i in family)]
    uppers = [b for b in members if all(not (members[i] & ~b) for i in family)]
    inf = [b for b in lowers if all(not (o & ~b) for o in lowers)]
    sup = [b for b in uppers if all(not (b & ~o) for o in uppers)]
    if len(inf) != 1 or len(sup) != 1:
        return None
    return inf[0], sup[0]


def check_completeness(lat: DedLattice) -> CompletenessReport:
    """The empty family, the singletons and the pairs of systems must each
    have an inf and a sup in the lattice, found by scanning all systems."""
    families = [f for r in range(3) for f in itertools.combinations(range(len(lat.systems)), r)]
    for family in families:
        if _family_bounds(lat, family) is None:
            return CompletenessReport(False, True, len(families), family)
    return CompletenessReport(True, True, len(families))


def completeness_sweep(lat: DedLattice) -> CompletenessReport:
    """The scan of all 2^k families, in the order of their index masks:
    each family's intersection and the system generated by its union must
    both be systems of the lattice, as `DedLattice.meet` and `join` read them."""
    k, full = len(lat.systems), lat.algebra.order.full_bits
    members = [s.bits for s in lat.systems]
    for mask in range(1 << k):
        family = tuple(i for i in range(k) if mask >> i & 1)
        inf, union = full, 0
        for i in family:
            inf &= members[i]
            union |= members[i]
        if inf not in lat.index or _generated(lat.algebra, union) not in lat.index:
            return CompletenessReport(False, True, 1 << k, family)
    return CompletenessReport(True, True, 1 << k)


def enumerate_ded(E: EffectAlgebra) -> list[int]:
    """Every deductive system by the definition, as masks: the closure test
    on all 2^n subsets containing 1, then sorted by size and member indices."""
    one_bit = 1 << E.one
    return sorted(
        (bits for bits in range(1 << E.n)
         if bits & one_bit and _closure_witness(E, bits) is None),
        key=lambda bits: (bits.bit_count(), tuple(iter_bits(bits))),
    )


def closed_form_ded(E: EffectAlgebra, max_picks: int | None = None) -> list[int]:
    """The systems {1} plus at most one member of each complement pair x != x',
    and the whole carrier, as masks: all of them materialised, then sorted by
    size and member indices.  With `max_picks`, only the sets with at most that
    many picks, and no whole carrier."""
    pairs = [
        (x, E.comp[x]) for x in range(E.n) if x not in (E.zero, E.one) and E.comp[x] > x
    ]
    found = [] if max_picks is not None else [(1 << E.n) - 1]
    for m in range(len(pairs) + 1 if max_picks is None else max_picks + 1):
        for combo in itertools.combinations(pairs, m):
            for chosen in itertools.product(*combo):
                found.append(1 << E.one | sum(1 << x for x in chosen))
    return sorted(found, key=lambda bits: (bits.bit_count(), Subset(bits, E.n).indices()))


def check_sum_laws(E: EffectAlgebra) -> PropertyReport:
    """The seven basic laws of + and ', each scanned over all pairs or
    triples in lexicographic order up to its first failing tuple.

    The tables need not be valid: x -> x' need not be a permutation, and
    an undefined sum fails the law that reads it.
    """
    n, comp, sums, leq, zero, one = E.n, E.comp, E.sums, E.leq, E.zero, E.one

    def clause(name, arity, fails):
        wit = next((t for t in itertools.product(range(n), repeat=arity) if fails(*t)), None)
        return ClauseResult(name, wit is None, wit)

    def recovery_fails(a, b):
        if not leq(a, b):
            return False
        d, e = sums[a][comp[b]], sums[comp[b]][a]
        return (
            d is None or sums[a][comp[d]] != b
            or e is None or sums[comp[b]][comp[e]] is None
            or comp[sums[comp[b]][comp[e]]] != a
        )

    swaps = comp[zero] == one and comp[one] == zero
    return PropertyReport("sum-laws", [
        clause("double_complement", 1, lambda a: comp[comp[a]] != a),
        clause("complement_antitone", 2, lambda a, b: leq(a, b) and not leq(comp[b], comp[a])),
        clause("sum_defined_iff_below_complement", 2,
               lambda a, b: (sums[a][b] is not None) != leq(a, comp[b])),
        clause("sum_monotone", 3, lambda a, b, c: leq(a, b) and sums[b][c] is not None and (
            sums[a][c] is None or not leq(sums[a][c], sums[b][c]))),
        clause("difference_recovery", 2, recovery_fails),
        clause("zero_neutral", 1, lambda a: not sums[a][zero] == a == sums[zero][a]),
        ClauseResult("bounds_complement", swaps, None if swaps else (zero, one)),
    ])


def check_cone_equations(E: EffectAlgebra) -> PropertyReport:
    """Both cones of a pair are recovered from sums against the pair itself.

    L(a,b) = (a' + (a' + L(a,b))')'  and  U(a,b) = a + (a + U(a,b)')'.
    """
    p = E.order
    low_wit = up_wit = None
    for a in range(E.n):
        ac = E.comp[a]
        for b in range(E.n):
            pair = _subset(E, a, b)
            low = _lower(p, pair)
            recon = E.set_complement(
                E.add_elem_set(ac, E.set_complement(E.add_elem_set(ac, low)))
            )
            if recon != low and low_wit is None:
                low_wit = (a, b)
            upper = _upper(p, pair)
            recon = E.add_elem_set(
                a, E.set_complement(E.add_elem_set(a, E.set_complement(upper)))
            )
            if recon != upper and up_wit is None:
                up_wit = (a, b)
    return PropertyReport(
        "cone-equations",
        [
            ClauseResult("lower_cone_reconstruction", low_wit is None, low_wit),
            ClauseResult("upper_cone_reconstruction", up_wit is None, up_wit),
        ],
    )


def _cone_tables(E: EffectAlgebra) -> tuple[list[int], list[int]]:
    'Lower/upper cone bitmasks for every subset mask of a small carrier.'
    n = E.n
    full = (1 << n) - 1
    low = [full] * (1 << n)
    upp = [full] * (1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        x = lsb.bit_length() - 1
        low[mask] = low[mask ^ lsb] & E.order.down[x]
        upp[mask] = upp[mask ^ lsb] & E.order.up[x]
    return low, upp


def is_monotonous(E: EffectAlgebra) -> MonotonicityResult:
    """Does L(A) <= U(B) force L(x+A) <= U(x+B) whenever A, B <= x'?

    A and B range over nonempty subsets; the empty set is excluded because
    U({}) is the whole carrier by convention, which would fail the law
    vacuously even on Boolean algebras.  Every pair of submasks of x' is
    swept, A and B from x' down to 0, so the carrier must be small: n <= 9.
    """
    n = E.n
    low, upp = _cone_tables(E)
    for x in range(n):
        dom = E.order.down[E.comp[x]]
        # x + A for every submask A of dom, built by peeling low bits
        img = [0] * (dom + 1)
        for mask in range(1, dom + 1):
            if mask & ~dom:
                continue
            lsb = mask & -mask
            img[mask] = img[mask ^ lsb] | 1 << E.sums[x][lsb.bit_length() - 1]
        a = dom
        while a:
            # L(A) <= U(B) iff U(B) lies inside UL(A); likewise for x+A, x+B
            ul, ul_img = upp[low[a]], upp[low[img[a]]]
            b = dom
            while b:
                if not upp[b] & ~ul and upp[img[b]] & ~ul_img:
                    return MonotonicityResult(
                        False, (x, Subset(a, n), Subset(b, n)), True
                    )
                b = (b - 1) & dom
            a = (a - 1) & dom
    return MonotonicityResult(True, None, True)


def contraposition_pair(E: EffectAlgebra, x: int, y: int):
    "U(x -> y) vs U(y' -> x'): returns (equal, lhs cone, rhs cone)."
    p = E.order
    lhs = _upper(p, implies(E, x, y))
    rhs = _upper(p, implies(E, E.comp[y], E.comp[x]))
    return lhs == rhs, lhs, rhs


def counterexample_search(E: EffectAlgebra) -> LawReport:
    """Every pair breaking contraposition, annotated comparable/incomparable."""
    failing = []
    for x in range(E.n):
        for y in range(E.n):
            equal, lhs, rhs = contraposition_pair(E, x, y)
            if not equal:
                failing.append(LawViolation(x, y, lhs, rhs, E.order.comparable(x, y)))
    return LawReport("contraposition", failing, not any(v.comparable for v in failing))


def check_comparable_contraposition(E: EffectAlgebra) -> PropertyReport:
    """Contraposition on comparable pairs, plus the meet-variant clause.

    The variant U(x -> y) = U((x^y)' -> x') is checked for every pair whose
    meet exists (all of them on a lattice).
    """
    p = E.order
    wit = next(
        (
            (x, y)
            for x in range(E.n)
            for y in range(E.n)
            if p.comparable(x, y) and not contraposition_pair(E, x, y)[0]
        ),
        None,
    )
    clauses = [ClauseResult("comparable_pairs", wit is None, wit)]

    wit = None
    checked = 0
    for x in range(E.n):
        for y in range(E.n):
            m = meet(p, x, y)
            if m is None:
                continue
            checked += 1
            lhs = _upper(p, implies(E, x, y))
            rhs = _upper(p, implies(E, E.comp[m], E.comp[x]))
            if lhs != rhs:
                wit = (x, y)
                break
        if wit:
            break
    clauses.append(
        ClauseResult("meet_variant", wit is None, wit, detail=f"{checked} pairs with meets")
    )
    return PropertyReport("comparable-contraposition", clauses)


def check_cone_level_adjointness(
    E: EffectAlgebra, monotonicity: MonotonicityResult
) -> ConeAdjointness:
    """L(U(x,y') (.) y) <= UL(y,z) iff LU(x,y') <= U(y -> z), recorded only.

    The result is reported, never asserted: the law is tied to monotonicity,
    which not every algebra enjoys, so the probe result rides along.  It is
    passed in, since the sweep `is_monotonous` only reaches small carriers.
    """
    p = E.order
    n = E.n
    comp = E.comp
    wit = None
    for x in range(n):
        for y in range(n):
            uxy = Subset(p.up[x] & p.up[comp[y]], n)
            image_low = _lower(p, odot_image(E, y, uxy))
            low_uxy = _lower(p, uxy)
            for z in range(n):
                ul = _upper(p, Subset(p.down[y] & p.down[z], n))
                lhs = p.set_leq(image_low, ul)
                rhs = p.set_leq(low_uxy, _upper(p, implies(E, y, z)))
                if lhs != rhs:
                    wit = (x, y, z)
                    break
            if wit:
                break
        if wit:
            break
    return ConeAdjointness(wit is None, wit, monotonicity)


# -- scans: one call per tuple, and the adjointness walk over every pair -----


def check_per_tuple(name: str, n: int, arity: int, holds) -> ClauseResult:
    'A clause over all tuples in lexicographic order, one `holds` call each.'
    wit = next((t for t in itertools.product(range(n), repeat=arity) if not holds(*t)), None)
    return ClauseResult(name, wit is None, wit)


def walk_u_classes(p: Poset, inv, up_imp, failing):
    """The triples (x, y, z) failing an adjointness law, in lexicographic order.

    Every pair (x, y) is visited; `failing(y, U(x,y'))` runs once per distinct
    (y, U(x,y')) and returns a test of a z-class (UL(y,z), U(y -> z)), with
    U(y -> z) taken from `up_imp`; the z-masks of the failing classes are joined.
    """
    n, up, memo = p.n, p.up, {}
    classes: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for y, cls in enumerate(classes):
        for z, key in enumerate(zip(p.pair_ul[y], up_imp[y])):
            cls[key] = cls.get(key, 0) | 1 << z
    for x in range(n):
        for y in range(n):
            umask = up[x] & up[inv[y]]
            zs = memo.get((y, umask))
            if zs is None:
                fails, zs = failing(y, umask), 0
                for key, zmask in classes[y].items():
                    if fails(*key):
                        zs |= zmask
                memo[y, umask] = zs
            for z in iter_bits(zs):
                yield (x, y, z)


def walk_adjointness_failures(p: Poset, inv, products, up_imp):
    """C3 through `walk_u_classes`: U(x,y') (.) y <= UL(y,z) iff U(x,y') <= U(y -> z)."""

    def failing(y, umask):
        image = 0
        for u in iter_bits(umask):
            if products[u][y] is None:
                image = None
                break
            image |= 1 << products[u][y]
        return lambda ul_z, ui_z: (image is not None and not image & ~ul_z) != (not umask & ~ui_z)

    return walk_u_classes(p, inv, up_imp, failing)


def walk_cone_adjointness_failures(E: EffectAlgebra):
    """Cone-level adjointness through `walk_u_classes`:
    L(U(x,y') (.) y) <= UL(y,z) iff LU(x,y') <= U(y -> z)."""
    p = E.order
    L, U = p.lower_bits, p.upper_bits

    def failing(y, uxy):
        u_image_low, u_low_uxy = U(L(E.odot_bits(y, uxy))), U(L(uxy))
        return lambda ul_z, ui_z: (not ul_z & ~u_image_low) != (not ui_z & ~u_low_uxy)

    return walk_u_classes(p, E.comp, E.up_imp_bits, failing)


# -- enumeration: the full-scan search -------------------------------------

UNKNOWN = -2
UNDEF = -1


def _base_state(n: int):
    t = [[UNKNOWN] * n for _ in range(n)]
    one = n - 1
    for x in range(n):
        t[0][x] = t[x][0] = x
    for x in range(1, n):
        t[one][x] = t[x][one] = UNDEF
    comp: list = [None] * n
    comp[0] = one
    comp[one] = 0
    return t, comp


def _freeze(t) -> tuple:
    return tuple(tuple(None if v == UNDEF else v for v in row) for row in t)


def assoc_ok(t, n: int) -> bool:
    'Associativity over every triple whose relevant cells are all decided.'
    for a in range(1, n):
        row_a = t[a]
        for b in range(1, n):
            s_ab = row_a[b]
            if s_ab == UNKNOWN:
                continue
            row_b = t[b]
            for c in range(1, n):
                s_bc = row_b[c]
                if s_bc == UNKNOWN:
                    continue
                left = UNDEF if s_ab == UNDEF else t[s_ab][c]
                right = UNDEF if s_bc == UNDEF else row_a[s_bc]
                if left == UNKNOWN or right == UNKNOWN:
                    continue
                if left != right:
                    return False
    return True


def _search(t, comp, cells, idx, n, out):
    if idx == len(cells):
        out.append(_freeze(t))
        return
    x, y = cells[idx]
    one = n - 1
    last_in_row = y == n - 2
    for v in (UNDEF, *range(1, n)):
        if v in (x, y):
            continue
        undo_comp = []
        if v == one:
            if x == y:
                if comp[x] not in (None, x):
                    continue
                if comp[x] is None:
                    comp[x] = x
                    undo_comp.append(x)
            else:
                if comp[x] not in (None, y) or comp[y] not in (None, x):
                    continue
                if comp[x] is None:
                    comp[x] = y
                    undo_comp.append(x)
                if comp[y] is None:
                    comp[y] = x
                    undo_comp.append(y)
        t[x][y] = t[y][x] = v
        if (not last_in_row or comp[x] is not None) and assoc_ok(t, n):
            _search(t, comp, cells, idx + 1, n, out)
        t[x][y] = t[y][x] = UNKNOWN
        for w in undo_comp:
            comp[w] = None


def free_tables(n: int) -> list:
    """Completed tables of the free search, re-checking every decided
    triple after each assignment and with no cancellativity prune."""
    t, comp = _base_state(n)
    cells = [(x, y) for x in range(1, n - 1) for y in range(x, n - 1)]
    out: list = []
    _search(t, comp, cells, 0, n, out)
    return out


def antitone_involutions(p: Poset) -> list[tuple[int, ...]]:
    'Every permutation of the interior, kept when it is an order-reversing involution.'
    n = p.n
    interior = [x for x in range(n) if x not in (p.bottom, p.top)]
    found = []
    for perm in itertools.permutations(interior):
        mapping = list(range(n))
        mapping[p.bottom] = p.top
        mapping[p.top] = p.bottom
        for x, y in zip(interior, perm):
            mapping[x] = y
        if any(mapping[mapping[x]] != x for x in interior):
            continue
        if all(
            not p.leq(x, y) or p.leq(mapping[y], mapping[x])
            for x in range(n)
            for y in range(n)
        ):
            found.append(tuple(mapping))
    return found


def _restricted_search(t, free, idx, p: Poset, out):
    n = p.n
    if idx == len(free):
        out.append(_freeze(t))
        return
    x, y = free[idx]
    for v in range(n):
        if v in (x, y, p.bottom, p.top) or not (p.leq(x, v) and p.leq(y, v)):
            continue
        if any(t[x][w] == v or t[y][w] == v for w in range(n)):
            continue  # row-injectivity (cancellativity)
        t[x][y] = t[y][x] = v
        if assoc_ok(t, n):
            _restricted_search(t, free, idx + 1, p, out)
        t[x][y] = t[y][x] = UNKNOWN


def restricted_algebras(p: Poset) -> list[EffectAlgebra]:
    """Labeled algebras inducing exactly the order p, listed and named as the
    package lists and names them: complements from each antitone involution,
    definedness forced by x + y defined iff x <= y', the rest searched cell
    by cell, and the tables sorted row by row with undefined first, the
    order of the free listing."""
    n = p.n
    one = n - 1
    tables: list = []
    for inv in antitone_involutions(p):
        t, _ = _base_state(n)
        for x in range(1, n - 1):
            t[x][inv[x]] = t[inv[x]][x] = one
        free = []
        for x in range(1, n - 1):
            for y in range(x, n - 1):
                if t[x][y] != UNKNOWN:
                    continue
                if p.leq(x, inv[y]):
                    free.append((x, y))
                else:
                    t[x][y] = t[y][x] = UNDEF
        _restricted_search(t, free, 0, p, tables)
    tables.sort(key=lambda tab: [[-1 if v is None else v for v in row] for row in tab])
    return validate_each_table(p.labels, tables, p)[0]


def validate_tables(labels, sums, zero, one, declared_comp=None, name="E") -> ValidationReport:
    """The validator stage by stage, cell by cell: E1, E4, E3, the declared
    complements, the order axioms from up-sets read off the table, zero as
    the bottom, E2, and only then the algebra.  Non-integer indices are not
    screened; the package raises ValueError for them."""
    labels = tuple(labels)
    n = len(labels)
    if not 1 <= n <= MAX_CARRIER:
        raise ValueError(f"carrier size {n} outside 1..{MAX_CARRIER}")
    if len(set(labels)) != n:
        raise ValueError("labels are not pairwise distinct")
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one index outside the carrier")
    if len(sums) != n or any(len(row) != n for row in sums):
        raise ValueError("sum table is not n x n")
    table = [list(row) for row in sums]
    for row in table:
        for v in row:
            if v is not None and not 0 <= v < n:
                raise ValueError(f"sum value {v} outside the carrier")
    for x, u in (declared_comp or {}).items():
        if not (0 <= x < n and 0 <= u < n):
            raise ValueError(f"declared complement {x}: {u} outside the carrier")

    for x in range(n):
        if table[zero][x] is None and table[x][zero] is None:
            table[zero][x] = x
            table[x][zero] = x

    def fail(axiom, witness, message):
        return ValidationReport([Violation(axiom, witness, message)])

    wit = first_asymmetric_pair(table)
    if wit:
        return fail("E1", wit, "sum table is not symmetric")
    for x in range(n):
        if x != zero and table[one][x] is not None:
            return fail("E4", (x,), "sum with the top element defined")
    for x, row in enumerate(table):
        if one not in row:
            return fail("E3", (x,), "no orthosupplement")
        u = row.index(one)
        if row.count(one) > 1:
            return fail("E3", (x, u, row.index(one, u + 1)), "duplicate complement candidates")
    for x, u in (declared_comp or {}).items():
        if table[x].index(one) != u:
            wit = (x, u, table[x].index(one))
            return fail("complement", wit, "declared complement disagrees with the table")
    up = [0] * n
    for x, row in enumerate(table):
        for v in row:
            if v is not None:
                up[x] |= 1 << v
    try:
        check_order_axioms(up)
    except OrderError as exc:
        return fail("order", exc.witness, f"induced relation not {exc.reason}")
    full = (1 << n) - 1
    if up[zero] != full:
        x = (~up[zero] & full).bit_length() - 1
        return fail("order", (zero, x), "zero is not a bottom element")
    wit = first_nonassociative_triple(table)
    if wit:
        return fail("E2", wit, "associativity fails")
    return ValidationReport([], EffectAlgebra(labels, tuple(map(tuple, table)), zero, one, name))


def validate_each_table(labels, tables, order: Poset | None = None):
    """Every table through the validator above, kept when valid and, given an
    order, inducing exactly it: the algebras, named EA{n}-0, EA{n}-1, ... in
    table order, and the number of tables refused."""
    n = len(labels)
    algebras = []
    for tab in tables:
        rep = validate_tables(labels, tab, 0, n - 1, name=f"EA{n}-{len(algebras)}")
        if rep.ok and (order is None or rep.algebra.order.up == order.up):
            algebras.append(rep.algebra)
    return algebras, len(tables) - len(algebras)


# -- isomorphism: the block-product form and the backtracking search ---------


def _invariant_keys(E: EffectAlgebra) -> list[tuple]:
    keys = []
    for x in range(E.n):
        deg = sum(1 for y in range(E.n) if E.sums[x][y] is not None)
        below = E.order.down[x].bit_count()
        above = E.order.up[x].bit_count()
        keys.append((deg, below, above, E.comp[x] == x))
    return keys


def _encode(E: EffectAlgebra, perm) -> tuple:
    n = E.n
    grid = [[n] * n for _ in range(n)]
    for x in range(n):
        px = perm[x]
        for y in range(n):
            v = E.sums[x][y]
            if v is not None:
                grid[px][perm[y]] = perm[v]
    return tuple(v for row in grid for v in row)


def canonical_form(E: EffectAlgebra) -> tuple:
    """The least table encoding over every renaming that sends 0 to slot 0,
    1 to the last slot and each interior element into the slot block of its
    invariant class (row degree, |L(x)|, |U(x)|, x' = x).  The product of
    the blocks' permutations is tried in full, so it only serves up to a
    few hundred thousand renamings (BOOL-4 is about the limit)."""
    n = E.n
    keys = _invariant_keys(E)
    interior = [x for x in range(n) if x not in (E.zero, E.one)]
    groups: dict[tuple, list[int]] = {}
    for x in interior:
        groups.setdefault(keys[x], []).append(x)
    ordered = [groups[k] for k in sorted(groups)]
    best = None
    for choice in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [0] * n  # zero goes to slot 0
        perm[E.one] = n - 1  # the same slot when n = 1, where zero is one
        for new, old in enumerate(itertools.chain.from_iterable(choice), 1):
            perm[old] = new
        enc = _encode(E, perm)
        if best is None or enc < best:
            best = enc
    return (n, *best)


def find_isomorphism(E1: EffectAlgebra, E2: EffectAlgebra):
    """A 0,1-fixing bijection transporting one sum table onto the other, by
    backtracking over images of matching invariant class."""
    if E1.n != E2.n:
        return None
    n = E1.n
    k1, k2 = _invariant_keys(E1), _invariant_keys(E2)
    if sorted(k1) != sorted(k2):
        return None
    mapping: list = [None] * n
    used = [False] * n
    mapping[E1.zero] = E2.zero
    used[E2.zero] = True
    if E1.one != E1.zero:
        mapping[E1.one] = E2.one
        used[E2.one] = True
    todo = [x for x in range(n) if mapping[x] is None]

    def consistent(x: int) -> bool:
        mx = mapping[x]
        for a in range(n):
            ma = mapping[a]
            if ma is None:
                continue
            v, w = E1.sums[x][a], E2.sums[mx][ma]
            if (v is None) != (w is None):
                return False
            if v is not None and mapping[v] is not None and mapping[v] != w:
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(todo):
            return _encode(E1, mapping) == _encode(E2, range(n))
        x = todo[i]
        for y in range(n):
            if used[y] or k2[y] != k1[x]:
                continue
            mapping[x] = y
            used[y] = True
            if consistent(x) and rec(i + 1):
                return True
            mapping[x] = None
            used[y] = False
        return False

    if rec(0):
        return tuple(mapping)
    return None


def poset_fields(p: Poset) -> tuple:
    'Everything a poset holds apart from cached tables.'
    return (p.n, p.up, p.down, p.bottom, p.top, p.labels, p.full_bits)


def algebra_fields(E: EffectAlgebra) -> tuple:
    'Everything an algebra and its order hold apart from cached tables.'
    return (E.name, E.n, E.labels, E.sums, E.comp, E.zero, E.one, *poset_fields(E.order))


def derived_fields(E: EffectAlgebra) -> tuple:
    """comp, up, down, bottom and top read off the sum table by the definitions.

    x' is the unique u with x + u = 1; x <= y iff x + z = y for some z;
    down is the converse of up, bottom is below everything and top above.
    """
    n, sums, full = E.n, E.sums, (1 << E.n) - 1
    comp = []
    for x in range(n):
        (u,) = [u for u in range(n) if sums[x][u] == E.one]
        comp.append(u)
    up = tuple(
        sum(1 << y for y in range(n) if any(sums[x][z] == y for z in range(n)))
        for x in range(n)
    )
    down = tuple(sum(1 << x for x in range(n) if up[x] >> y & 1) for y in range(n))
    (bottom,) = [x for x in range(n) if up[x] == full]
    (top,) = [y for y in range(n) if down[y] == full]
    return tuple(comp), up, down, bottom, top
