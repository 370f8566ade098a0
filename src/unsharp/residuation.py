"""Strict unsharp residuated posets and the round trips to effect algebras.

The structure is (C, <=, (.), ->, ', 0, 1): a bounded poset with an antitone
involution, a strict partial product x (.) y (defined exactly when x' <= y),
and a subset-valued implication tied to the product by unsharp adjointness

    U(x,y') (.) y  subset-of  UL(y,z)   iff   U(x,y')  subset-of  U(y -> z).

Tables are validated condition by condition (C1..C5) so deliberately broken
candidates report exactly what they break.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .algebra import EffectAlgebra, InvalidAlgebraError, _image, first_asymmetric_pair
from .algebra import first_nonassociative_triple
from .implication import exchange_failures
from .poset import Involution, Poset, Subset, _walk_u_classes, iter_bits
from .poset import validate_involution
from .reports import ClauseResult, PropertyReport, ValidationReport, Violation, _check


@dataclass
class UnsharpResiduatedPoset:
    """Product and implication tables over a bounded involutive poset; each row of
    `imps` is a sequence of the `Subset`s x -> y, which `from_effect_algebra` keeps as masks."""

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


class _CellRow(Sequence):
    'A row of implication cells kept as masks; it equals, and prints as, its tuple of Subsets.'

    __slots__ = ("masks", "n")

    def __init__(self, masks: tuple[int, ...], n: int):
        self.masks, self.n = masks, n

    def __getitem__(self, y):
        return tuple(self)[y] if isinstance(y, slice) else Subset._wrap(self.masks[y], self.n)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _cell_masks(c: "UnsharpResiduatedPoset") -> list:
    'The cells of `c` as rows of masks, read off any row that is not a `_CellRow`.'
    return [row.masks if type(row) is _CellRow else [cell.bits for cell in row] for row in c.imps]


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

    x (.) y = (x' + y')' where defined, x -> y = x' + L(x,y).  The product
    table is the algebra's own, and each row of cells keeps the algebra's
    row of masks.  With `validate`, tables failing C1-C4 raise
    InvalidAlgebraError carrying the report.
    """
    imps = tuple(_CellRow(row, E.n) for row in E.imp_bits)
    c = UnsharpResiduatedPoset(E.order, E.comp, E.products, imps, name=E.name)
    c._source = (imps, E)  # C3 reads U(y -> z) off E while c keeps these cells
    if validate:
        report = validate_surp(c)
        if not report.ok:
            raise InvalidAlgebraError(report)
        return report.algebra
    return c


def adjointness_failures(p: Poset, inv, products, up_imp, odot=None) -> Iterator[tuple]:
    """Triples breaking unsharp adjointness (C3), in lexicographic order:
    U(x,y') (.) y <= UL(y,z)  iff  U(x,y') <= U(y -> z),
    with U(y -> z) read from the table `up_imp`.  U(x,y') (.) y is read off
    `products`, or given `odot`, an algebra's own `odot_bits`, as
    y (.) U(x,y'), every product of which is defined: U(x,y') lies in U(y')."""

    def sides(y, umask, uls, uis):
        image = _odot_bits(products, umask, y) if odot is None else odot(y, umask)
        lhs = [image is not None and image & ul == image for ul in uls]
        return lhs, [umask & ui == umask for ui in uis]

    return _walk_u_classes(p, inv, up_imp, sides)


def _source_tables(c: UnsharpResiduatedPoset):
    """U(y -> z) of the algebra `from_effect_algebra` built `c` from while `c` has its cells
    and order, and its `odot_bits` while also its products and involution; else None."""
    imps, E = getattr(c, "_source", (None, None))
    if imps is not c.imps or E.order is not c.poset:
        return None, None
    return E.up_imp_bits, E.odot_bits if E.products is c.products and E.comp is c.inv else None


def _first_adjointness_failure(c: UnsharpResiduatedPoset) -> Optional[tuple[int, int, int]]:
    'The first C3 triple, read from the tables `c` carries, which may be mutated.'
    up_imp, odot = _source_tables(c)
    if up_imp is None:
        up_imp = [list(map(c.poset.upper_bits, row)) for row in _cell_masks(c)]
    return next(adjointness_failures(c.poset, c.inv, c.products, up_imp, odot), None)


def validate_surp(c: UnsharpResiduatedPoset) -> ValidationReport:
    """Check (C1)-(C4) and set the divisibility flag per (C5).

    A failed involution (C1) stops the run; the remaining conditions are
    each checked independently with one witness apiece, since a single
    mutation can break several at once.
    """
    p = c.poset
    n, up = p.n, p.up
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

    # C3: unsharp adjointness, quantified over all triples
    add("C3", _first_adjointness_failure(c), "unsharp adjointness fails")

    # C4: x -> 0 = {x'}
    imps = _cell_masks(c)
    add("C4", first(1, lambda x: imps[x][p.bottom] == 1 << inv[x]),
        "implication to bottom is not the involute singleton")

    # C5: divisibility x (.) (x -> y) = L(x,y), once per distinct pair in a row;
    # every product of the algebra's own is defined, as x -> y lies in U(x')
    odot = _source_tables(c)[1] or (lambda x, imp: _odot_bits(prod, imp, x))
    divisible = all(
        odot(x, imp) == low for x in range(n) for imp, low in set(zip(imps[x], p.pair_lower[x]))
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
    adj_wit = _first_adjointness_failure(c)
    return PropertyReport(
        "dual-adjointness",
        [ClauseResult("cone_order_adjointness", adj_wit is None, adj_wit)],
    )


def to_effect_algebra(c: UnsharpResiduatedPoset) -> EffectAlgebra:
    """Recover the effect algebra via x + y = (x' (.) y')' for x <= y'.

    Row x is read off the product row of x' as a whole; a cell with x <= y'
    and no product is a strictness gap, raised at its first y.
    The construction always validates when `c` came from a valid algebra;
    a failure therefore indicates an invalid input and is raised with the
    offending report attached.
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
    E = EffectAlgebra.from_tables(p.labels, sums, p.bottom, p.top, name=c.name)
    if E.order.up != p.up:
        wrong = Violation("order", (), "derived order differs from the poset")
        raise InvalidAlgebraError(ValidationReport([wrong]))
    return E


@dataclass
class RoundtripResult:
    equal: bool
    diffs: list[tuple] = field(default_factory=list)

    def __bool__(self):
        return self.equal


def roundtrip_check(E: EffectAlgebra) -> RoundtripResult:
    'Algebra -> residuated tables -> algebra; compare sum tables, entrywise on a mismatch.'
    back = to_effect_algebra(from_effect_algebra(E, validate=False))
    n, sums = E.n, back.sums
    diffs = [] if E.sums == sums else [(x, y, E.sums[x][y], sums[x][y]) for x in range(n)
                                       for y in range(n) if E.sums[x][y] != sums[x][y]]
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
    adj = list(adjointness_failures(E.order, E.comp, E.products, E.up_imp_bits, E.odot_bits))
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
