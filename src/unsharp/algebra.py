"""Effect algebras: partial commutative sums with orthosupplements.

An effect algebra is (E, +, ', 0, 1) where + is a partial commutative and
associative operation, every x has a unique orthosupplement x' with
x + x' = 1, and 1 + x is only defined for x = 0.  The induced relation
x <= y  iff  x + z = y for some z is always a bounded partial order, and
everything downstream (cones, implication, residuation) lives on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .poset import Poset, Subset, iter_bits, iter_submasks
from .reports import ClauseResult, PropertyReport, ValidationReport, Violation

SumTable = tuple[tuple[Optional[int], ...], ...]


class InvalidAlgebraError(ValueError):
    'Raised when tables fail validation; carries the offending report.'

    def __init__(self, report: ValidationReport):
        self.report = report
        summary = "; ".join(str(v) for v in report.violations) or "invalid tables"
        super().__init__(summary)


class EffectAlgebra:
    """A validated finite effect algebra.

    Instances come out of :func:`validate_tables` (or the convenience
    constructor :meth:`from_tables`) and are immutable afterwards, so the
    implication table is built on first use and kept.  The `*_bits`
    helpers work on subsets given as bitmasks and assume the operation is
    defined, which holds wherever the law suites call them.
    """

    __slots__ = ("n", "sums", "comp", "zero", "one", "labels", "order", "name", "__dict__")

    def __init__(self, n, sums, comp, zero, one, labels, order, name="E"):
        self.n = n
        self.sums = sums
        self.comp = comp
        self.zero = zero
        self.one = one
        self.labels = labels
        self.order = order
        self.name = name

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

    def complement(self, x: int) -> int:
        return self.comp[x]

    def leq(self, x: int, y: int) -> bool:
        return self.order.leq(x, y)

    def odot(self, x: int, y: int) -> Optional[int]:
        "x (.) y = (x' + y')', defined exactly when x' <= y."
        if not self.order.leq(self.comp[x], y):
            return None
        return self.comp[self.sums[self.comp[x]][self.comp[y]]]

    # -- bitmask kernel ---------------------------------------------------

    def comp_bits(self, mask: int) -> int:
        "A' = {x' : x in A}."
        bits, comp = 0, self.comp
        while mask:
            low = mask & -mask
            bits |= 1 << comp[low.bit_length() - 1]
            mask ^= low
        return bits

    def add_bits(self, x: int, mask: int) -> int:
        "x + A elementwise, for A below x'."
        bits, row = 0, self.sums[x]
        while mask:
            low = mask & -mask
            bits |= 1 << row[low.bit_length() - 1]
            mask ^= low
        return bits

    def sum_bits(self, a: int, b: int) -> int:
        "A + B elementwise, for A below B' pairwise."
        bits = 0
        for x in iter_bits(a):
            bits |= self.add_bits(x, b)
        return bits

    def odot_bits(self, x: int, mask: int) -> int:
        "x (.) A = (x' + A')' elementwise, for every element of A above x'."
        return self.comp_bits(self.add_bits(self.comp[x], self.comp_bits(mask)))

    @cached_property
    def imp_bits(self) -> tuple[tuple[int, ...], ...]:
        "x -> y = x' + L(x,y) for every pair, as bitmasks."
        low = self.order.pair_lower
        return tuple(
            tuple(self.add_bits(self.comp[x], m) for m in low[x]) for x in range(self.n)
        )

    # -- subset helpers --------------------------------------------------

    def subset(self, *elements: int) -> Subset:
        return Subset.of(self.n, elements)

    def full_set(self) -> Subset:
        return Subset.full(self.n)

    def set_complement(self, a: Subset) -> Subset:
        "A' = {x' : x in A}."
        if a.n != self.n:
            raise ValueError("carrier mismatch")
        return Subset(self.comp_bits(a.bits), self.n)

    def add_elem_set(self, x: int, a: Subset) -> Subset:
        'x + A elementwise; requires A <= x-orthosupplement.'
        if a.n != self.n:
            raise ValueError("carrier mismatch")
        xc = self.comp[x]
        outside = a.bits & ~self.order.down[xc]
        if outside:
            y = (outside & -outside).bit_length() - 1
            raise ValueError(
                f"sum undefined: {self.labels[y]} is not below "
                f"{self.labels[xc]} (adding {self.labels[x]})"
            )
        return Subset(self.add_bits(x, a.bits), self.n)

    def add_sets(self, a: Subset, b: Subset) -> Subset:
        'A + B elementwise; requires A <= B-orthosupplement pairwise.'
        if a.n != self.n or b.n != self.n:
            raise ValueError("carrier mismatch")
        if not self.order.set_leq(a, self.set_complement(b)):
            wit = next(
                (x, y)
                for x in a
                for y in b
                if not self.order.leq(x, self.comp[y])
            )
            raise ValueError(
                f"set sum undefined: {self.labels[wit[0]]} + {self.labels[wit[1]]}"
            )
        return Subset(self.sum_bits(a.bits, b.bits), self.n)

    def render(self, a: Subset) -> str:
        'Subset as "{x,y,...}" in declared element order.'
        return "{" + ",".join(self.labels[i] for i in a) + "}"


def validate_tables(
    labels: Sequence[str],
    sums: Sequence[Sequence[Optional[int]]],
    zero: int,
    one: int,
    declared_comp: Optional[dict] = None,
    name: str = "E",
) -> ValidationReport:
    """Validate a partial sum table and derive the full structure.

    Stages run in the order E1, E4, E3, induced-order axioms, E2; the
    first failing stage stops the run and reports its first witness.
    Missing zero-row entries are filled with x + 0 = x beforehand;
    explicitly conflicting ones are left to fail the axiom checks.
    Structural problems (bad shape, bad indices) raise ValueError instead
    of being reported, since no algebra can be read off at all.
    """
    labels = tuple(labels)
    n = len(labels)
    if not 1 <= n <= 64:
        raise ValueError(f"carrier size {n} outside 1..64")
    if len(set(labels)) != n:
        raise ValueError("labels are not pairwise distinct")
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one index outside the carrier")
    if len(sums) != n or any(len(row) != n for row in sums):
        raise ValueError("sum table is not n x n")
    table: list[list[Optional[int]]] = [list(row) for row in sums]
    for row in table:
        for v in row:
            if v is not None and not 0 <= v < n:
                raise ValueError(f"sum value {v} outside the carrier")

    for x in range(n):
        if table[zero][x] is None and table[x][zero] is None:
            table[zero][x] = x
            table[x][zero] = x

    def fail(axiom, witness, message):
        return ValidationReport([Violation(axiom, witness, message)])

    # E1: commutativity, including matching definedness
    for x in range(n):
        for y in range(x + 1, n):
            if table[x][y] != table[y][x]:
                return fail("E1", (x, y), "sum table is not symmetric")

    # E4: one + x only for x = zero
    for x in range(n):
        if x != zero and table[one][x] is not None:
            return fail("E4", (x,), "sum with the top element defined")

    # E3: exactly one orthosupplement per element
    comp: list[Optional[int]] = [None] * n
    for x in range(n):
        candidates = [u for u in range(n) if table[x][u] == one]
        if not candidates:
            return fail("E3", (x,), "no orthosupplement")
        if len(candidates) > 1:
            return fail(
                "E3",
                (x, candidates[0], candidates[1]),
                "duplicate complement candidates",
            )
        comp[x] = candidates[0]
    if declared_comp:
        for x, u in declared_comp.items():
            if comp[x] != u:
                return fail(
                    "complement",
                    (x, u, comp[x]),
                    "declared complement disagrees with the table",
                )

    # induced-order axioms; x <= y iff some z gives x + z = y
    up = [0] * n
    for x in range(n):
        for z in range(n):
            v = table[x][z]
            if v is not None:
                up[x] |= 1 << v
    full = (1 << n) - 1
    for x in range(n):
        if not up[x] >> x & 1:
            return fail("order", (x,), "induced relation not reflexive")
    for x in range(n):
        for y in range(x + 1, n):
            if up[x] >> y & 1 and up[y] >> x & 1:
                return fail("order", (x, y), "induced relation not antisymmetric")
    for x in range(n):
        rest = up[x]
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            if up[y] & ~up[x]:
                z = (up[y] & ~up[x]).bit_length() - 1
                return fail("order", (x, y, z), "induced relation not transitive")
    if up[zero] != full:
        x = (~up[zero] & full).bit_length() - 1
        return fail("order", (zero, x), "zero is not a bottom element")
    for x in range(n):
        if not up[x] >> one & 1:
            return fail("order", (x, one), "one is not a top element")

    # E2: associativity with matching definedness
    for x in range(n):
        for y in range(n):
            s_xy = table[x][y]
            for z in range(n):
                s_yz = table[y][z]
                left = table[s_xy][z] if s_xy is not None else None
                right = table[x][s_yz] if s_yz is not None else None
                if left != right:
                    return fail("E2", (x, y, z), "associativity fails")

    order = Poset(up, labels)
    algebra = EffectAlgebra(
        n,
        tuple(tuple(row) for row in table),
        tuple(comp),  # fully populated here
        zero,
        one,
        labels,
        order,
        name,
    )
    return ValidationReport([], algebra)


# -- derived laws ---------------------------------------------------------


def check_sum_laws(E: EffectAlgebra) -> PropertyReport:
    """Seven basic laws of + and ' that every valid algebra satisfies.

    Each clause records the lexicographically first witness on failure.
    """
    n, comp, sums, leq = E.n, E.comp, E.sums, E.leq
    clauses = []

    wit = next(((a,) for a in range(n) if comp[comp[a]] != a), None)
    clauses.append(ClauseResult("double_complement", wit is None, wit))

    wit = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if leq(a, b) and not leq(comp[b], comp[a])
        ),
        None,
    )
    clauses.append(ClauseResult("complement_antitone", wit is None, wit))

    wit = next(
        (
            (a, b)
            for a in range(n)
            for b in range(n)
            if (sums[a][b] is not None) != leq(a, comp[b])
        ),
        None,
    )
    clauses.append(ClauseResult("sum_defined_iff_below_complement", wit is None, wit))

    wit = None
    for a in range(n):
        for b in range(n):
            if not leq(a, b):
                continue
            for c in range(n):
                if sums[b][c] is None:
                    continue
                if sums[a][c] is None or not leq(sums[a][c], sums[b][c]):
                    wit = (a, b, c)
                    break
            if wit:
                break
        if wit:
            break
    clauses.append(ClauseResult("sum_monotone", wit is None, wit))

    wit = None
    for a in range(n):
        for b in range(n):
            if not leq(a, b):
                continue
            d = sums[a][comp[b]]
            if d is None or sums[a][comp[d]] != b:
                wit = (a, b)
                break
            e = sums[comp[b]][a]
            if e is None or comp[sums[comp[b]][comp[e]]] != a:
                wit = (a, b)
                break
        if wit:
            break
    clauses.append(ClauseResult("difference_recovery", wit is None, wit))

    wit = next(
        ((a,) for a in range(n) if sums[a][E.zero] != a or sums[E.zero][a] != a),
        None,
    )
    clauses.append(ClauseResult("zero_neutral", wit is None, wit))

    ok = comp[E.zero] == E.one and comp[E.one] == E.zero
    clauses.append(ClauseResult("bounds_complement", ok, None if ok else (E.zero, E.one)))
    return PropertyReport("sum-laws", clauses)


def check_cone_equations(E: EffectAlgebra) -> PropertyReport:
    """Both cones of a pair are recovered from sums against the pair itself.

    L(a,b) = (a' + (a' + L(a,b))')'  and  U(a,b) = a + (a + U(a,b)')'.
    """
    p, comp, add = E.order, E.comp_bits, E.add_bits
    low_wit = up_wit = None
    for a in range(E.n):
        ac = E.comp[a]
        for b in range(E.n):
            low = p.pair_lower[a][b]
            if low_wit is None and comp(add(ac, comp(add(ac, low)))) != low:
                low_wit = (a, b)
            upper = p.pair_upper[a][b]
            if up_wit is None and add(a, comp(add(a, comp(upper)))) != upper:
                up_wit = (a, b)
    return PropertyReport(
        "cone-equations",
        [
            ClauseResult("lower_cone_reconstruction", low_wit is None, low_wit),
            ClauseResult("upper_cone_reconstruction", up_wit is None, up_wit),
        ],
    )


@dataclass
class MonotonicityResult:
    holds: bool
    witness: Optional[tuple]  # (x, A, B) with A, B as Subsets
    exhaustive: bool

    def __bool__(self):
        return self.holds


def is_monotonous(E: EffectAlgebra, samples: int = 4000, seed: int = 0) -> MonotonicityResult:
    """Does L(A) <= U(B) force L(x+A) <= U(x+B) whenever A, B <= x'?

    A and B range over nonempty subsets; the empty set is excluded because
    U({}) is the whole carrier by convention, which would fail the law
    vacuously even on Boolean algebras.  Exhaustive over all subset pairs
    for n <= 9, randomly sampled above.  x = 0 is skipped: there x + A = A
    and the implication is a tautology.
    """
    n, p = E.n, E.order
    L, U = p.lower_bits, p.upper_bits

    def set_leq(a_bits, b_bits):
        return not (b_bits & ~U(a_bits))

    if n <= 9:
        for x in range(n):
            if x == E.zero:
                continue
            dom = p.down[E.comp[x]]
            # per submask A of dom: U(L(A)), U(A), U(L(x+A)) and U(x+A)
            ul, u, ul_img, u_img = ([0] * (dom + 1) for _ in range(4))
            for mask in iter_submasks(dom):
                img = E.add_bits(x, mask)
                ul[mask], u[mask] = U(L(mask)), U(mask)
                ul_img[mask], u_img[mask] = U(L(img)), U(img)
            for a in iter_submasks(dom):
                for b in iter_submasks(dom):
                    if (
                        a
                        and b
                        and not (u[b] & ~ul[a])
                        and u_img[b] & ~ul_img[a]
                    ):
                        return MonotonicityResult(
                            False, (x, Subset(a, n), Subset(b, n)), True
                        )
        return MonotonicityResult(True, None, True)

    rng = random.Random(seed)
    for _ in range(samples):
        x = rng.randrange(n)
        dom = p.down[E.comp[x]]
        pick = lambda: dom & rng.getrandbits(n)  # noqa: E731
        a, b = pick(), pick()
        if not a or not b or x == E.zero or not set_leq(L(a), U(b)):
            continue
        if not set_leq(L(E.add_bits(x, a)), U(E.add_bits(x, b))):
            return MonotonicityResult(False, (x, Subset(a, n), Subset(b, n)), False)
    return MonotonicityResult(True, None, False)
