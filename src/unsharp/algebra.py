"""Effect algebras: partial commutative sums with orthosupplements.

An effect algebra is (E, +, ', 0, 1) where + is a partial commutative and
associative operation, every x has a unique orthosupplement x' with
x + x' = 1, and 1 + x is only defined for x = 0.  The induced relation
x <= y  iff  x + z = y for some z is always a bounded partial order, and
everything downstream (cones, implication, residuation) lives on it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .poset import MAX_CARRIER, OrderError, Poset, Subset, check_order_axioms
from .poset import _bits, _involution_clauses, iter_bits, maximal_bits
from .reports import ClauseResult, PropertyReport, ValidationReport, Violation, _check

class InvalidAlgebraError(ValueError):
    'Raised when tables fail validation; carries the offending report.'

    def __init__(self, report: ValidationReport):
        self.report = report
        summary = "; ".join(str(v) for v in report.violations) or "invalid tables"
        super().__init__(summary)


class EffectAlgebra:
    """A finite effect algebra, read off a sum table known to be valid.

    The constructor is the only way an instance is made, and it checks
    nothing: `validate_tables` (and so :meth:`from_tables`) calls it once E3
    holds, decides the order stages on the instance and returns it only if
    the table passes; the enumerator calls it on tables valid by
    construction and `relabel` on isomorphic images of valid tables.  It
    takes the labels as a tuple and the sums as a tuple of rows, None where
    undefined, and reads x' (the u with x + u = 1) off the rows.  Instances
    are immutable afterwards, so the order (x <= y iff x + z = y for some z),
    the implication and the product tables are built on first use and kept,
    and an algebra the enumerator lists carries its canonical form.  The
    `*_bits` helpers work on subsets given as bitmasks and assume the
    operation is defined, which holds wherever the law suites call them.
    In every effect algebra the image of an interval under ', x + and x (.)
    is an interval, which those helpers read off two cones; any other set
    is walked member by member.
    """

    __slots__ = ("n", "sums", "comp", "zero", "one", "labels", "name", "__dict__")

    def __init__(self, labels, sums, zero, one, name="E"):
        self.n, self.sums, self.comp = len(sums), sums, tuple([row.index(one) for row in sums])
        self.zero, self.one, self.labels, self.name = zero, one, labels, name

    @cached_property
    def order(self) -> Poset:
        "x <= y iff x + z = y for some z, read off the rows in one pass."
        up, down = [], [0] * self.n
        for x, row in enumerate(self.sums):
            bit, mask = 1 << x, 0
            for v in row:
                if v is not None:
                    mask |= 1 << v
                    down[v] |= bit
            up.append(mask)
        return Poset._unchecked(tuple(up), tuple(down), self.zero, self.one, self.labels)

    @classmethod
    def from_tables(cls, labels, sums, zero, one, declared_comp=None, name="E"):
        report = validate_tables(labels, sums, zero, one, declared_comp, name)
        if not report.ok:
            raise InvalidAlgebraError(report)
        return report.algebra

    def __repr__(self):
        return f"<EffectAlgebra {self.name} n={self.n}>"

    # -- element arithmetic ---------------------------------------------

    def add(self, x: int, y: int) -> Optional[int]:
        'x + y, or None when undefined.'
        return self.sums[x][y]

    def leq(self, x: int, y: int) -> bool:
        return self.order.leq(x, y)

    def odot(self, x: int, y: int) -> Optional[int]:
        "x (.) y = (x' + y')', defined exactly when x' <= y."
        if not self.order.leq(self.comp[x], y):
            return None
        return self.comp[self.sums[self.comp[x]][self.comp[y]]]

    # -- bitmask kernel ---------------------------------------------------

    def comp_bits(self, mask: int) -> int:
        "A' = {x' : x in A}; [p,q]' = [q',p'], as ' is an order-reversing involution."
        if (pq := (p := self.order)._intervals.get(mask)) is None:
            return _image(self.comp, mask)
        return p.up[self.comp[pq[1]]] & p.down[self.comp[pq[0]]]

    def add_bits(self, x: int, mask: int) -> int:
        """x + A elementwise, for A below x'; x + [p,q] = [x+p, x+q] when x + q is
        defined, as x + w grows with w <= q, and any v in [x+p, x+q] lies above
        x, so it is some x + w, with p <= w <= q by cancellation."""
        return _image(self.sums[x], mask, self.order)

    def sum_bits(self, a: int, b: int) -> int:
        """A + B elementwise, for A below B' pairwise.

        When B is a down-set, x + B is the union of the intervals [x, x + m]
        over the maximal elements m of B, one mask AND each: for w <= m,
        x + w is defined and below x + m; and any v in [x, x + m] is some
        x + w, where x + w <= x + m gives w <= m by cancellation.

        When A = L(t) and B = L(m), the sum is one lookup in a table built
        once per algebra, bottom-up along the order: L(t) + L(m) is [t, t + m]
        joined with L(c) + L(m) for the lower covers c of t, since every x < t
        lies under one.  It is not L(t + m): that needs Riesz decomposition,
        which Boolean algebras and chains have and E6 and E9 do not.
        """
        m = (p := self.order)._principal.get(b)  # B = L(m): its maximal element by one lookup
        return self._sum_bits(a, b, maximal_bits(b, p.up) if m is None else 1 << m)

    def _sum_bits(self, a: int, b: int, tops: int) -> int:
        'A + B as in `sum_bits`, given the maximal elements of B.'
        up, down, sums, bits = (p := self.order).up, p.down, self.sums, 0
        maxima = []
        while tops:
            low = tops & -tops
            m = low.bit_length() - 1
            if down[m] & ~b:  # B is not a down-set
                for x in iter_bits(a):
                    bits |= _image(sums[x], b)
                return bits
            maxima.append(m)
            tops ^= low
        # a down-set with one maximal element m is L(m)
        if len(maxima) == 1 and (t := p._principal.get(a)) is not None:
            return self._down_sums[t][maxima[0]]
        while a:
            low = a & -a
            x = low.bit_length() - 1
            row, above = sums[x], up[x]
            for m in maxima:
                bits |= above & down[row[m]]
            a ^= low
        return bits

    @cached_property
    def _down_sums(self) -> tuple[list[int], ...]:
        "L(t) + L(m) for every t <= m', 0 elsewhere, built as `sum_bits` describes."
        n, up, down = self.n, self.order.up, self.order.down
        table: list = [None] * n
        for t in sorted(range(n), key=lambda t: down[t].bit_count()):
            row = [0 if v is None else up[t] & down[v] for v in self.sums[t]]
            for c in iter_bits(maximal_bits(down[t] & ~(1 << t), up)):
                row = [r and r | s for r, s in zip(row, table[c])]
            table[t] = row
        return tuple(table)

    def odot_bits(self, x: int, mask: int) -> int:
        """x (.) A elementwise, for every element of A above x'; x (.) [p,q] =
        [x (.) p, x (.) q] when x (.) p is defined: it is (x' + [q',p'])'."""
        return _image(self.products[x], mask, self.order)

    @cached_property
    def products(self) -> tuple[tuple[Optional[int], ...], ...]:
        "x (.) y = (x' + y')' for every pair, None where undefined."
        comp, sums = self.comp, self.sums
        return tuple(
            tuple(None if (v := sums[c][d]) is None else comp[v] for d in comp) for c in comp
        )

    @cached_property
    def imp_bits(self) -> tuple[tuple[int, ...], ...]:
        "x -> y = x' + L(x,y) for every pair, as bitmasks."
        low = self.order.pair_lower
        return tuple(
            tuple(self.add_bits(self.comp[x], m) for m in low[x]) for x in range(self.n)
        )

    @cached_property
    def up_imp_bits(self) -> tuple[tuple[int, ...], ...]:
        "U(x -> y) for every pair, as bitmasks."
        upper = self.order.upper_bits
        return tuple(tuple(upper(m) for m in row) for row in self.imp_bits)

    # -- subset helpers --------------------------------------------------

    def subset(self, *elements: int) -> Subset:
        return Subset.of(self.n, elements)

    def full_set(self) -> Subset:
        return Subset.full(self.n)

    def set_complement(self, a: Subset) -> Subset:
        "A' = {x' : x in A}."
        return Subset._wrap(self.comp_bits(_bits(self.n, a)), self.n)

    def add_elem_set(self, x: int, a: Subset) -> Subset:
        'x + A elementwise; requires A <= x-orthosupplement.'
        bits = _bits(self.n, a)
        xc = self.comp[x]
        outside = bits & ~self.order.down[xc]
        if outside:
            y = (outside & -outside).bit_length() - 1
            raise ValueError(
                f"sum undefined: {self.labels[y]} is not below "
                f"{self.labels[xc]} (adding {self.labels[x]})"
            )
        return Subset._wrap(self.add_bits(x, bits), self.n)

    def add_sets(self, a: Subset, b: Subset) -> Subset:
        'A + B elementwise; requires A <= B-orthosupplement pairwise.'
        if a.n != self.n or b.n != self.n:  # inline: the set-sum loops call this hot
            _bits(self.n, a if a.n != self.n else b)
        # A is below B' pairwise iff it is below m' for every maximal m of B
        m = (p := self.order)._principal.get(b.bits)
        if m is None:
            tops = maximal_bits(b.bits, p.up)
            below = p.lower_bits(self.comp_bits(tops))
        else:
            tops, below = 1 << m, p.down[self.comp[m]]
        if a.bits & ~below:
            x, y = next((x, y) for x in a for y in b if not p.leq(x, self.comp[y]))
            raise ValueError(f"set sum undefined: {self.labels[x]} + {self.labels[y]}")
        if m is not None and (t := p._principal.get(a.bits)) is not None:
            return Subset._wrap(self._down_sums[t][m], self.n)
        return Subset._wrap(self._sum_bits(a.bits, b.bits, tops), self.n)

    def render(self, a: Subset) -> str:
        'Subset as "{x,y,...}" in declared element order.'
        return "{" + ",".join(self.labels[i] for i in a) + "}"


def _image(row: Sequence[int], mask: int, order: Optional[Poset] = None) -> int:
    """The bitmask {row[a] : a in A}; every row[a] must be defined.  Given the
    order, an interval [p,q] with row[p] and row[q] defined maps onto
    [row[p], row[q]], as it does in the rows of sums and products."""
    if order is not None and (pq := order._intervals.get(mask)) is not None:
        lo, hi = row[pq[0]], row[pq[1]]
        if lo is not None and hi is not None:
            return order.up[lo] & order.down[hi]
    bits = 0
    while mask:
        low = mask & -mask
        bits |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return bits


def validate_tables(
    labels: Sequence[str],
    sums: Sequence[Sequence[Optional[int]]],
    zero: int,
    one: int,
    declared_comp: Optional[dict] = None,
    name: str = "E",
) -> ValidationReport:
    """Validate a partial sum table and, if it passes, build its algebra.

    Stages run in the order E1, E4, E3, induced-order axioms, E2; the
    first failing stage stops the run and reports its first witness.
    Missing zero-row entries are filled with x + 0 = x beforehand;
    explicitly conflicting ones are left to fail the axiom checks.
    Structural problems (bad shape, an index that is not an int in 0..n-1)
    raise ValueError instead of being reported, since no algebra can be
    read off at all.  A stage walks a row only when the row fails, for the
    witness.  The algebra is built once E3 and the declared complements
    hold; the order stages, implied by E1-E4, build its order and read its
    cones only if E2 fails, so a valid table's order waits for its first
    reader.
    """
    labels = tuple(labels)
    n = len(labels)
    if not 1 <= n <= MAX_CARRIER:
        raise ValueError(f"carrier size {n} outside 1..{MAX_CARRIER}")
    if len(set(labels)) != n:
        raise ValueError("labels are not pairwise distinct")
    _check_indices("zero/one index", n, zero, one)
    if len(sums) != n or any(len(row) != n for row in sums):
        raise ValueError("sum table is not n x n")
    table: list[list[Optional[int]]] = [list(row) for row in sums]
    for row in table:
        for v in row:
            if v is not None and not (isinstance(v, int) and 0 <= v < n):
                _check_indices(f"sum value {v!r}", n, v)
    for x, u in (declared_comp or {}).items():
        _check_indices(f"declared complement {x!r}: {u!r}", n, x, u)

    for x in range(n):
        if table[zero][x] is None and table[x][zero] is None:
            table[zero][x] = x
            table[x][zero] = x
    rows = tuple(map(tuple, table))

    def fail(axiom, witness, message):
        return ValidationReport([Violation(axiom, witness, message)])

    if tuple(zip(*rows)) != rows:
        return fail("E1", first_asymmetric_pair(rows), "sum table is not symmetric")

    # E4: one + x only for x = zero
    for x in range(n):
        if x != zero and rows[one][x] is not None:
            return fail("E4", (x,), "sum with the top element defined")

    # E3: exactly one orthosupplement per element
    for x, row in enumerate(rows):
        if row.count(one) != 1:
            if one not in row:
                return fail("E3", (x,), "no orthosupplement")
            u = row.index(one)
            return fail("E3", (x, u, row.index(one, u + 1)), "duplicate complement candidates")
    if declared_comp:
        for x, u in declared_comp.items():
            if rows[x].index(one) != u:
                wit = (x, u, rows[x].index(one))
                return fail("complement", wit, "declared complement disagrees with the table")

    # induced-order axioms; x <= y iff some z gives x + z = y.  With E1, E3
    # and E4, E2 alone makes this a partial order with bottom zero (Foulis &
    # Bennett 1994): (x + a) + b = x + (a + b) is transitivity; one + zero =
    # one by E3 and E4, so (x' + x) + zero = one gives x + zero = x by E3; and
    # y = x + a, x = y + b give x + (a + b) = x, which E2 and E4 allow only for
    # a = b = zero.  So the order stage can fail only where E2 does
    algebra = EffectAlgebra(labels, rows, zero, one, name)
    triple = first_nonassociative_triple(rows)
    if triple:
        up = algebra.order.up
        try:
            check_order_axioms(up)
        except OrderError as exc:
            return fail("order", exc.witness, f"induced relation not {exc.reason}")
        if missed := algebra.order.full_bits & ~up[zero]:  # the elements not above zero
            return fail("order", (zero, missed.bit_length() - 1), "zero is not a bottom element")
        return fail("E2", triple, "associativity fails")
    return ValidationReport([], algebra)


def _check_indices(what: str, n: int, *values) -> None:
    'Raise ValueError naming `what` unless every value is an int in 0..n-1.'
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"{what} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"{what} outside the carrier")


def first_asymmetric_pair(table) -> Optional[tuple[int, int]]:
    "The first (x, y), x < y, where the partial table is not symmetric, definedness included."
    n = len(table)
    return next(
        ((x, y) for x in range(n) for y in range(x + 1, n) if table[x][y] != table[y][x]),
        None,
    )


def first_nonassociative_triple(table) -> Optional[tuple[int, int, int]]:
    """The first (x, y, z) where (xy)z and x(yz) differ, definedness included.

    Undefined is coded as n, whose row and column are all n, and each row
    is a bytes object (n <= 64).  For each x, (xy)z over all (y, z) in
    order is the rows of x + y joined, and x(yz) is the whole table read
    through row x by `bytes.translate`.  The two strings are scanned only
    when they differ, and their first difference is the first witness.
    """
    n = len(table)
    coded = [bytes([n if v is None else v for v in row] + [n]) for row in table]
    coded.append(bytes([n] * (n + 1)))
    flat, pad = b"".join(coded[:n]), bytes(255 - n)
    for x in range(n):
        row_x = coded[x]
        left = b"".join(map(coded.__getitem__, row_x[:n]))
        right = flat.translate(row_x + pad)
        if left != right:
            i = next(i for i, (u, v) in enumerate(zip(left, right)) if u != v)
            return (x, *divmod(i, n + 1))
    return None


# -- derived laws ---------------------------------------------------------


def check_sum_laws(E: EffectAlgebra) -> PropertyReport:
    """Seven basic laws of + and ' that every valid algebra satisfies.

    Each clause records the lexicographically first witness on failure.
    The algebra's tables need not be valid: x' is whatever u a row gives
    x + u = 1 first, and a law reads undefined sums as failing.  Monotony and
    recovery can fail only at b >= a, so only those b are walked; once ' is an
    antitone involution, a <= b' iff b <= a', so row a must be defined exactly on L(a').
    """
    n, comp, sums, up, down = E.n, E.comp, E.sums, E.order.up, E.order.down
    # the complement clauses are the involution clauses on (E.order, E.comp)
    involutive, antitone, swaps = _involution_clauses(E.order, comp)
    clauses = [
        involutive._replace(clause="double_complement"),
        antitone._replace(clause="complement_antitone"),
    ]

    clauses.append(_check(
        "sum_defined_iff_below_complement", n, 2,
        lambda a, b: (sums[a][b] is not None) == E.leq(a, comp[b]),
        (lambda: all(None not in map(row.__getitem__, iter_bits(down[comp[a]]))
                     and row.count(None) == n - down[comp[a]].bit_count()
                     for a, row in enumerate(sums)))
        if involutive.passed and antitone.passed else None,
    ))

    wit = next(
        ((a, b, c) for a in range(n) for b in iter_bits(up[a]) for c in range(n)
         if sums[b][c] is not None
         and (sums[a][c] is None or not up[sums[a][c]] >> sums[b][c] & 1)),
        None,
    )
    clauses.append(ClauseResult("sum_monotone", wit is None, wit))

    def recovers(a, b):
        d, e = sums[a][comp[b]], sums[comp[b]][a]
        return (
            d is not None and sums[a][comp[d]] == b
            and e is not None and (f := sums[comp[b]][comp[e]]) is not None and comp[f] == a
        )

    wit = next(((a, b) for a in range(n) for b in iter_bits(up[a]) if not recovers(a, b)), None)
    clauses.append(ClauseResult("difference_recovery", wit is None, wit))
    clauses.append(_check("zero_neutral", n, 1, lambda a: sums[a][E.zero] == a == sums[E.zero][a]))

    clauses.append(swaps._replace(clause="bounds_complement"))
    return PropertyReport("sum-laws", clauses)


def check_cone_equations(E: EffectAlgebra) -> PropertyReport:
    """Both cones of a pair are recovered from sums against the pair itself.

    L(a,b) = (a' + (a' + L(a,b))')'  and  U(a,b) = a + (a + U(a,b)')'.
    """
    n, comp, add, ac = E.n, E.comp_bits, E.add_bits, E.comp
    low2, up2 = E.order.pair_lower, E.order.pair_upper
    return PropertyReport(
        "cone-equations",
        [
            _check(
                "lower_cone_reconstruction", n, 2,
                lambda a, b: comp(add(ac[a], comp(add(ac[a], low2[a][b])))) == low2[a][b],
                key=low2.__getitem__,
            ),
            _check(
                "upper_cone_reconstruction", n, 2,
                lambda a, b: add(a, comp(add(a, comp(up2[a][b])))) == up2[a][b],
                key=up2.__getitem__,
            ),
        ],
    )
