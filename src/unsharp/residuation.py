"""Strict unsharp residuated posets and the round trips to effect algebras.

The structure is (C, <=, (.), ->, ', 0, 1): a bounded poset with an antitone
involution, a strict partial product x (.) y (defined exactly when x' <= y),
and a subset-valued implication tied to the product by unsharp adjointness

    U(x,y') (.) y  subset-of  UL(y,z)   iff   U(x,y')  subset-of  U(y -> z).

Tables are validated condition by condition (C1..C5) so deliberately broken
candidates report exactly what they break.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Optional

from .algebra import EffectAlgebra, InvalidAlgebraError, _image, first_asymmetric_pair
from .algebra import first_nonassociative_triple
from .implication import exchange_failures
from .poset import Poset, Subset, _walk_u_classes, iter_bits
from .poset import validate_involution
from .reports import ClauseResult, PropertyReport, ValidationReport, Violation, _check


@dataclass
class UnsharpResiduatedPoset:
    """Product and implication tables over a bounded involutive poset; each row of
    `imps` holds the cells x -> y as int masks over the carrier."""

    poset: Poset
    inv: tuple[int, ...]
    products: tuple[tuple[Optional[int], ...], ...]
    imps: tuple[tuple[int, ...], ...]
    name: str = "C"
    divisible: Optional[bool] = None

    @property
    def n(self) -> int:
        return self.poset.n

    def odot(self, x: int, y: int) -> Optional[int]:
        return self.products[x][y]

    def imp(self, x: int, y: int) -> Subset:
        return Subset(self.imps[x][y], self.n)


def _odot_bits(products, mask: int, y: int) -> Optional[int]:
    'A (.) y over a bitmask; None when any product is undefined.'
    bits = 0
    for u in iter_bits(mask):
        v = products[u][y]
        if v is None:
            return None
        bits |= 1 << v
    return bits


def from_effect_algebra(E: EffectAlgebra) -> UnsharpResiduatedPoset:
    """Derive product and implication tables from an effect algebra.

    x (.) y = (x' + y')' where defined, x -> y = x' + L(x,y).  The order,
    with E's own labels, zero and one, the product table and the cell masks
    are the algebra's; `validate_surp` checks them against C1-C5.
    """
    return UnsharpResiduatedPoset(E.order, E.comp, E.products, E.imp_bits, name=E.name)


def adjointness_failures(p: Poset, inv, up_imp, odot) -> Iterator[tuple]:
    """Triples breaking unsharp adjointness (C3), in lexicographic order:
    U(x,y') (.) y <= UL(y,z)  iff  U(x,y') <= U(y -> z),
    with U(y -> z) read from the table `up_imp` and U(x,y') (.) y given by
    odot(y, U(x,y')), None where undefined: U(x,y') lies in U(y')."""

    def sides(y, umask, uls, uis):
        image = odot(y, umask)
        lhs = [image is not None and image & ul == image for ul in uls]
        return lhs, [umask & ui == umask for ui in uis]

    return _walk_u_classes(p, inv, up_imp, sides)


def validate_surp(c: UnsharpResiduatedPoset) -> ValidationReport:
    """Check (C1)-(C4) and set the divisibility flag per (C5).

    Every cell of `c.imps` must be an int mask over the carrier, n rows of n;
    anything else raises ValueError.  A failed involution (C1) stops the run;
    the remaining conditions are each checked independently with one witness
    apiece, since a single mutation can break several at once.

    C3 and C5 take images y (.) A of sets A inside U(y').  Once C2 passes,
    y (.) is an order isomorphism of U(y') onto L(y): it is monotone, with
    y (.) a <= y (.) 1 = y; recovery, at x = t <= y and at x = a' for a >= y',
    makes t -> (y (.) t')' its inverse on both sides, and that inverse is
    monotone as ' is antitone.  So y (.) [p,q] = [y (.) p, y (.) q], read off
    two cones.  Before C2 passes, and on a cell outside U(y'), which is not
    divisible, the members are walked.  U(y -> z) is built from the cells.
    """
    p = c.poset
    n, up = p.n, p.up
    inv = c.inv
    prod = c.products
    imps = c.imps
    violations: list[Violation] = []

    if len(imps) != n or any(len(row) != n for row in imps):
        raise ValueError("implication table is not n x n")
    for x, row in enumerate(imps):
        for y, m in enumerate(row):
            if not (isinstance(m, int) and 0 <= m <= p.full_bits):
                raise ValueError(
                    f"implication cell ({x}, {y}) is not a mask over the carrier: {m!r}")

    inv_report = validate_involution(p, inv)
    if not inv_report.ok:
        bad = inv_report.failures()[0]
        violations.append(
            Violation("C1", bad.witness or (), f"involution {bad.clause} fails")
        )
        return ValidationReport(violations, None)

    def add(axiom, witness, message):
        if witness:
            violations.append(Violation(axiom, witness, message))

    def first(arity, holds, quick=None):
        return _check("", n, arity, holds, quick).witness

    # C2: strict partial commutative monoid, monotone, with recovery; row x
    # is strict when its products at the y >= x' are defined and no others are
    add("C2", first(2, lambda x, y: (prod[x][y] is not None) == p.leq(inv[x], y), lambda: all(
        None not in map(prod[x].__getitem__, iter_bits(up[inv[x]]))
        and prod[x].count(None) == n - up[inv[x]].bit_count() for x in range(n)
    )), "strictness: product defined iff x' <= y")
    cols = tuple(zip(*prod))
    add("C2", None if cols == prod else first_asymmetric_pair(prod), "product not commutative")
    add("C2", first(1, lambda x: prod[x][p.top] == x == prod[p.top][x]), "top is not a unit")
    add("C2", first_nonassociative_triple(prod), "product not associative")
    # a column z defined at every x >= z' is monotone iff it is along the covers x < y
    # above z', by transitivity; the scan only names the witness, walking x >= z', y >= x
    covers = p._covers

    def monotone_on_covers(z):
        col, above = cols[z], up[inv[z]]
        return None not in map(col.__getitem__, iter_bits(above)) and all(
            not _image(col, covers[x]) & ~up[col[x]] for x in iter_bits(above))

    add("C2", next(
        ((x, y, z) for z in range(n) if not monotone_on_covers(z)
         for x in iter_bits(up[inv[z]]) if prod[x][z] is not None
         for y in iter_bits(up[x])
         if prod[y][z] is not None and not up[prod[x][z]] >> prod[y][z] & 1),
        None,
    ), "product not monotone")
    # only y >= x is walked: elsewhere recovery holds
    add("C2", next(((x, y) for x in range(n) for y in iter_bits(up[x])
                    if (v := prod[y][inv[x]]) is None or prod[y][inv[v]] != x), None),
        "recovery x = y (.) (y (.) x')' fails")

    c2_passed = not violations

    def odot(y, mask):
        if c2_passed and not mask & ~up[inv[y]]:
            return _image(prod[y], mask, p)
        return _odot_bits(prod, mask, y)

    # C3: unsharp adjointness, quantified over all triples
    up_imp = [list(map(p.upper_bits, row)) for row in imps]
    add("C3", next(adjointness_failures(p, inv, up_imp, odot), None),
        "unsharp adjointness fails")

    # C4: x -> 0 = {x'}
    add("C4", first(1, lambda x: imps[x][p.bottom] == 1 << inv[x]),
        "implication to bottom is not the involute singleton")
    if violations:
        return ValidationReport(violations, None)

    # C5: divisibility x (.) (x -> y) = L(x,y), once per distinct pair in a row
    divisible = all(
        odot(x, imp) == low for x in range(n) for imp, low in set(zip(imps[x], p.pair_lower[x]))
    )
    return ValidationReport([], replace(c, divisible=divisible))


def to_effect_algebra(c: UnsharpResiduatedPoset) -> EffectAlgebra:
    """Recover the effect algebra via x + y = (x' (.) y')' for x <= y'.

    Row x is read off the product row of x' as a whole; a cell with x <= y'
    and no product is a strictness gap, raised at its first y.  The algebra
    F always validates when `c` came from a valid algebra; a failure raises
    its report.  F keeps `c.poset`'s labels and bounds, and its order: F has
    x + y iff x <= inv(y), and x <=_F z iff x + z' is defined (Foulis and
    Bennett 1994), so x <=_F z iff x <= tau(z), tau = inv after F's
    complement.  inv is a permutation, or two sums 0 + y agree, so tau is
    one; reflexivity gives z <= tau(z), and along a cycle of tau
    antisymmetry makes tau the identity.
    """
    p, inv = c.poset, c.inv
    undefined, sums = object(), []
    for x, ux in enumerate(p.up):
        prow = c.products[inv[x]]
        row = [prow[v] if ux >> v & 1 else undefined for v in inv]
        if None in row:
            gap = Violation("C2", (inv[x], inv[row.index(None)]), "strictness gap")
            raise InvalidAlgebraError(ValidationReport([gap]))
        sums.append(tuple(None if t is undefined else inv[t] for t in row))
    return EffectAlgebra.from_tables(p.labels, sums, p.bottom, p.top, name=c.name)


class RoundtripResult(NamedTuple):
    equal: bool
    diffs: list[tuple]

    def __bool__(self):
        return self.equal


def roundtrip_check(E: EffectAlgebra) -> RoundtripResult:
    'Algebra -> tables -> algebra; compare sum tables, entrywise on a mismatch.'
    back = to_effect_algebra(from_effect_algebra(E))
    n, sums = E.n, back.sums
    diffs = [] if E.sums == sums else [(x, y, E.sums[x][y], sums[x][y]) for x in range(n)
                                       for y in range(n) if E.sums[x][y] != sums[x][y]]
    return RoundtripResult(not diffs, diffs)


def surp_roundtrip_check(c: UnsharpResiduatedPoset) -> RoundtripResult:
    """The reverse round trip: tables -> algebra -> tables.

    On tables passing C1-C4, `equal` holds iff C5 (divisibility) does.  The
    products come back whole, and C5 asks y (.) (y -> z) = L(y,z) with every
    product defined, so y -> z lies in U(y').  There y (.) is one-to-one (see
    `validate_surp`), so only one cell passes C5, and the rebuilt cell
    y' + L(y,z) does.  The order comes back too (see `to_effect_algebra`).
    """
    back = from_effect_algebra(to_effect_algebra(c))
    diffs = []
    for x in range(c.n):
        for y in range(c.n):
            if c.products[x][y] != back.products[x][y]:
                diffs.append(("product", x, y, c.products[x][y], back.products[x][y]))
            if c.imps[x][y] != back.imps[x][y]:
                diffs.append(("imp", x, y, c.imp(x, y), back.imp(x, y)))
    return RoundtripResult(not diffs, diffs)


def adjointness_exchange_equivalence(E: EffectAlgebra) -> PropertyReport:
    """Adjointness and the consequent-exchange law, evaluated independently.

    Both biconditionals are computed per triple and must agree pointwise
    (and each holds outright on a valid algebra).
    """
    adj = list(adjointness_failures(E.order, E.comp, E.up_imp_bits, E.odot_bits))
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
