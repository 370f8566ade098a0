"""Strict unsharp residuated posets and the round trips to effect algebras.

The structure is (C, <=, (.), ->, ', 0, 1): a bounded poset with an antitone
involution, a strict partial product x (.) y (defined exactly when x' <= y),
and a subset-valued implication tied to the product by unsharp adjointness

    U(x,y') (.) y  subset-of  UL(y,z)   iff   U(x,y')  subset-of  U(y -> z).

Tables are validated condition by condition (C1..C5) so deliberately broken
candidates report exactly what they break.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .algebra import (
    EffectAlgebra,
    InvalidAlgebraError,
    first_asymmetric_pair,
    first_nonassociative_triple,
    validate_tables,
)
from .implication import exchange_failures
from .poset import Involution, Poset, Subset, iter_bits, validate_involution
from .reports import ClauseResult, PropertyReport, ValidationReport, Violation


@dataclass
class UnsharpResiduatedPoset:
    """Product and implication tables over a bounded involutive poset."""

    poset: Poset
    inv: tuple[int, ...]
    products: tuple[tuple[Optional[int], ...], ...]
    imps: tuple[tuple[Subset, ...], ...]
    name: str = "C"
    validated: bool = False
    divisible: Optional[bool] = None

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def odot(self, x: int, y: int) -> Optional[int]:
        return self.products[x][y]

    def imp(self, x: int, y: int) -> Subset:
        return self.imps[x][y]

    def odot_image(self, a: Subset, y: int) -> Optional[Subset]:
        'A (.) y elementwise; None when any product is undefined.'
        bits = _odot_bits(self.products, a.bits, y)
        return None if bits is None else Subset(bits, self.n)


def _odot_bits(products, mask: int, y: int) -> Optional[int]:
    'A (.) y over a bitmask; None when any product is undefined.'
    bits = 0
    for u in iter_bits(mask):
        v = products[u][y]
        if v is None:
            return None
        bits |= 1 << v
    return bits


def from_effect_algebra(E: EffectAlgebra, validate: bool = True) -> UnsharpResiduatedPoset:
    """Derive product and implication tables from an effect algebra.

    x (.) y = (x' + y')' where defined, x -> y = x' + L(x,y).  With
    `validate`, tables failing C1-C4 raise InvalidAlgebraError carrying
    the report.
    """
    n = E.n
    products = tuple(
        tuple(E.odot(x, y) for y in range(n)) for x in range(n)
    )
    imps = tuple(tuple(Subset(m, n) for m in row) for row in E.imp_bits)
    c = UnsharpResiduatedPoset(E.order, E.comp, products, imps, name=E.name)
    if validate:
        report = validate_surp(c)
        if not report.ok:
            raise InvalidAlgebraError(report)
        return report.algebra
    return c


def adjointness_failures(p: Poset, inv, products, up_imp) -> Iterator[tuple[int, int, int]]:
    """Triples breaking unsharp adjointness (C3), in lexicographic order:
    U(x,y') (.) y <= UL(y,z)  iff  U(x,y') <= U(y -> z),
    with U(y -> z) read from the table `up_imp`.  x enters only through
    U(x,y'), so the failing z are found once per (y, U(x,y'))."""
    n, ul = p.n, p.pair_ul
    failing: dict[tuple[int, int], list[int]] = {}
    for x in range(n):
        for y in range(n):
            umask = p.up[x] & p.up[inv[y]]
            zs = failing.get((y, umask))
            if zs is None:
                image = _odot_bits(products, umask, y)
                ul_y, ui_y = ul[y], up_imp[y]
                zs = failing[y, umask] = [
                    z for z in range(n)
                    if (image is not None and not (image & ~ul_y[z])) != (not (umask & ~ui_y[z]))
                ]
            for z in zs:
                yield (x, y, z)


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

    inv_report = validate_involution(p, Involution(tuple(inv)))
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
    wit = first_asymmetric_pair(prod)
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
    wit = first_nonassociative_triple(prod)
    if wit:
        add("C2", wit, "product not associative")
    wit = None
    for z, x in itertools.product(range(n), repeat=2):
        pxz = prod[x][z]
        if pxz is None or not p.up[inv[z]] >> x & 1:
            continue
        y = next(
            (y for y in iter_bits(p.up[x]) if prod[y][z] is not None
             and not p.up[pxz] >> prod[y][z] & 1),
            None,
        )
        if y is not None:
            wit = (x, y, z)
            break
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

    # C3: unsharp adjointness, quantified over all triples, with U(y -> z)
    # built from the tables handed in, which may have been mutated
    imp_bits = [[m.bits for m in row] for row in c.imps]
    up_imp = [[p.upper_bits(m) for m in row] for row in imp_bits]
    wit = next(adjointness_failures(p, inv, prod, up_imp), None)
    if wit:
        add("C3", wit, "unsharp adjointness fails")

    # C4: x -> 0 = {x'}
    wit = next(
        (
            (x,)
            for x in range(n)
            if imp_bits[x][p.bottom] != 1 << inv[x]
        ),
        None,
    )
    if wit:
        add("C4", wit, "implication to bottom is not the involute singleton")

    # C5: divisibility x (.) (x -> y) = L(x,y)
    divisible = all(
        _odot_bits(prod, imp_bits[x][y], x) == p.pair_lower[x][y]
        for x in range(n)
        for y in range(n)
    )

    if violations:
        return ValidationReport(violations, None)
    out = replace(c, validated=True, divisible=divisible)
    return ValidationReport([], out)


def check_dual_adjointness(c: UnsharpResiduatedPoset) -> PropertyReport:
    """The cone-order form of adjointness: for every triple,
    U(x,y') (.) y >= L(y,z) iff U(x,y') >= (y -> z).

    Unfolding A <= B as "B inside U(A)" turns each cone-order side into
    the corresponding subset-inclusion side of C3's primary condition, so
    the cone form fails exactly where C3 does, at the same first triple.
    """
    up_imp = [[c.poset.upper_bits(m.bits) for m in row] for row in c.imps]
    adj_wit = next(adjointness_failures(c.poset, c.inv, c.products, up_imp), None)
    return PropertyReport(
        "dual-adjointness",
        [ClauseResult("cone_order_adjointness", adj_wit is None, adj_wit)],
    )


def to_effect_algebra(c: UnsharpResiduatedPoset) -> EffectAlgebra:
    """Recover the effect algebra via x + y = (x' (.) y')' for x <= y'.

    The construction always validates when `c` came from a valid algebra;
    a failure therefore indicates an invalid input and is raised with the
    offending report attached.
    """
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


@dataclass
class RoundtripResult:
    equal: bool
    diffs: list[tuple] = field(default_factory=list)

    def __bool__(self):
        return self.equal


def roundtrip_check(E: EffectAlgebra) -> RoundtripResult:
    'Algebra -> residuated tables -> algebra; compare sum tables entrywise.'
    back = to_effect_algebra(from_effect_algebra(E, validate=False))
    diffs = [
        (x, y, E.sums[x][y], back.sums[x][y])
        for x in range(E.n)
        for y in range(E.n)
        if E.sums[x][y] != back.sums[x][y]
    ]
    if E.labels != back.labels or E.zero != back.zero or E.one != back.one:
        diffs.append(("labels/bounds", E.labels, back.labels, (E.zero, E.one)))
    return RoundtripResult(not diffs, diffs)


def surp_roundtrip_check(c: UnsharpResiduatedPoset) -> RoundtripResult:
    """Empirical check of the reverse round trip: tables -> algebra -> tables.

    Not asserted as an invariant anywhere; callers decide what a mismatch
    means for their candidate.
    """
    back = from_effect_algebra(to_effect_algebra(c), validate=False)
    diffs = []
    for x in range(c.n):
        for y in range(c.n):
            if c.products[x][y] != back.products[x][y]:
                diffs.append(("product", x, y, c.products[x][y], back.products[x][y]))
            if c.imps[x][y] != back.imps[x][y]:
                diffs.append(("imp", x, y, c.imps[x][y], back.imps[x][y]))
    if c.poset.up != back.poset.up:
        diffs.append(("order", c.poset.up, back.poset.up))
    return RoundtripResult(not diffs, diffs)


def adjointness_exchange_equivalence(E: EffectAlgebra) -> PropertyReport:
    """Adjointness and the consequent-exchange law, evaluated independently.

    Both biconditionals are computed per triple and must agree pointwise
    (and each holds outright on a valid algebra).
    """
    products = [[E.odot(x, y) for y in range(E.n)] for x in range(E.n)]
    adj = list(adjointness_failures(E.order, E.comp, products, E.up_imp_bits))
    exch = list(exchange_failures(E))
    match_wit = min(set(adj) ^ set(exch), default=None)
    adj_wit = adj[0] if adj else None
    exch_wit = exch[0] if exch else None
    return PropertyReport(
        "adjointness-exchange",
        [
            ClauseResult("adjointness_biconditional", adj_wit is None, adj_wit),
            ClauseResult("exchange_biconditional", exch_wit is None, exch_wit),
            ClauseResult("pointwise_match", match_wit is None, match_wit),
        ],
    )
