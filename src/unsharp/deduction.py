"""Deductive systems: subsets containing 1 and closed under implication.

D is deductive when 1 is a member and, whenever x is a member and the whole
subset x -> y lands inside D, y is a member too.  For proper systems this
is equivalent to D being disjoint from its elementwise orthosupplement
(th3), so the systems are {1} plus at most one member of each complement
pair, and E itself.  Counting and listing use that form at every size;
`characterization_agreement` is where th3 is tested against the definition.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional

from .algebra import EffectAlgebra
from .poset import Subset, _bits, iter_bits


class DeductiveCheck(NamedTuple):
    holds: bool
    witness: Optional[tuple] = None  # (x, y) breaking closure, ("one",), or th3's subset
    exhaustive: bool = True  # th3 reduces to polynomially many subsets at every size

    def __bool__(self):
        return self.holds


def _closure_witness(E: EffectAlgebra, bits: int) -> Optional[tuple[int, int]]:
    'First (x, y) with x in D and x -> y inside D but y outside; None when D is closed.'
    outside = E.order.full_bits & ~bits
    for x in iter_bits(bits):
        row = E.imp_bits[x]
        for y in iter_bits(outside):
            if not row[y] & ~bits:
                return (x, y)
    return None


def is_deductive_system(E: EffectAlgebra, d: Subset) -> DeductiveCheck:
    """Both defining conditions, checked directly with no shortcut."""
    bits = _bits(E.n, d)
    if not bits >> E.one & 1:
        return DeductiveCheck(False, ("one",))
    wit = _closure_witness(E, bits)
    return DeductiveCheck(wit is None, wit)


def characterize(E: EffectAlgebra, d: Subset) -> bool:
    """Proper D containing 1 is deductive iff D and D' are disjoint."""
    bits = _bits(E.n, d)
    if not bits >> E.one & 1:
        raise ValueError("characterization needs 1 as a member")
    if bits == E.order.full_bits:
        raise ValueError("characterization needs a proper subset; E itself is always deductive")
    return not E.comp_bits(bits) & bits


def characterization_agreement(E: EffectAlgebra) -> DeductiveCheck:
    """Compare the direct closure test with the disjointness criterion on
    every proper subset containing 1; the witness is a disagreeing subset.

    The systems are the closed sets of the Horn rules "x and all of x -> y
    give y", so they form a Moore family and both directions reduce to
    polynomially many subsets:

    * disjoint => closed: a disjoint proper D failing closure at (x, y)
      contains D0 = {1, x} u (x -> y), which is disjoint, proper and fails
      at (x, y) too; so only the n^2 sets D0 are checked;
    * closed => disjoint: a closed D meeting D' contains some {1, z, z'},
      hence its closure; so it holds iff cl({1, z, z'}) = E for every z.

    The witness is the first offending D0, by (x, y), or else the first
    proper cl({1, z, z'}), by z.
    """
    one_bit, full, comp = 1 << E.one, E.order.full_bits, E.comp
    for x in range(E.n):
        # 0 and x' lie in D0', so a disjoint D0 avoids them; y outside D0
        # makes it proper
        base, base_comp = one_bit | 1 << x, 1 << E.zero | 1 << comp[x]
        for y, cell in enumerate(E.imp_bits[x]):
            d0 = base | cell
            if not (d0 >> y & 1 or d0 & base_comp or E.comp_bits(d0) & d0):
                return DeductiveCheck(False, tuple(iter_bits(d0)))
    for z in range(E.n):
        if comp[z] < z:
            continue  # the same generators as for z'
        closed = _closure(E, one_bit | 1 << z | 1 << comp[z])
        if closed != full:
            return DeductiveCheck(False, tuple(iter_bits(closed)))
    return DeductiveCheck(True)


def _closure(E: EffectAlgebra, bits: int) -> int:
    'The least closed superset: add each y that x -> y forces for some member x.'
    imp, full = E.imp_bits, E.order.full_bits
    grown = None
    while grown != bits:
        grown = bits
        for x in iter_bits(grown):
            row = imp[x]
            for y in iter_bits(full & ~bits):
                if not row[y] & ~bits:
                    bits |= 1 << y
    return bits


def count_ded(E: EffectAlgebra) -> int:
    """The number of deductive systems, 3^k + 1 for the k complement pairs
    {x, x'} with x' != x; just 1 when {1} is the whole carrier."""
    return 3 ** len(_complement_pairs(E)) + (E.n > 1)


def _complement_pairs(E: EffectAlgebra) -> list[tuple[int, int]]:
    "The interior pairs (x, x') with x < x', each once."
    return [
        (x, E.comp[x])
        for x in range(E.n)
        if x not in (E.zero, E.one) and E.comp[x] > x
    ]


def enumerate_ded(E: EffectAlgebra) -> list[Subset]:
    'All deductive systems, in the order of iter_ded.'
    return list(iter_ded(E))


def iter_ded(E: EffectAlgebra) -> Iterator[Subset]:
    """All deductive systems, one at a time, by size then sorted members:
    {1} plus at most one member of each complement pair, then the whole
    carrier, the systems th3 describes.  Adding 1 to every set keeps their
    order, so the picks are generated in lexicographic order of their member
    tuples, and the first systems arrive at once even when there are 3^31."""
    pairs = _complement_pairs(E)
    partner = {x: xc for x, xc in pairs} | {xc: x for x, xc in pairs}
    elems = [*sorted(partner), E.n]  # E.n ends the list: no pair has a member there
    pairs_above = [sum(xc >= c for _, xc in pairs) for c in range(E.n + 1)]

    one_bit, full = 1 << E.one, (1 << E.n) - 1
    for size in range(len(pairs) + 1):
        # frames (next position in elems, picks needed, partners blocked, members),
        # depth first: taking elems[i] is popped before passing it over
        stack = [(0, size, 0, one_bit)]
        while stack:
            i, need, blocked, bits = stack.pop()
            if not need:
                yield Subset._wrap(bits, E.n)
                continue
            c = elems[i]
            # the free pairs with a member at c or later; never grows with c
            if pairs_above[c] - (blocked >> c).bit_count() < need:
                continue
            stack.append((i + 1, need, blocked, bits))
            if not blocked >> c & 1:
                stack.append((i + 1, need - 1, blocked | 1 << partner[c], bits | 1 << c))
    if full != one_bit:
        yield Subset._wrap(full, E.n)


def generate(E: EffectAlgebra, m: Subset) -> Subset:
    """Least deductive system containing M.

    M u {1} when M avoids 0 and is disjoint from M'; all of E otherwise.
    """
    return Subset._wrap(_generated(E, _bits(E.n, m)), E.n)


def _generated(E: EffectAlgebra, bits: int) -> int:
    if bits >> E.zero & 1 or E.comp_bits(bits) & bits:
        return E.order.full_bits
    return bits | 1 << E.one


def atoms(E: EffectAlgebra) -> list[Subset]:
    """Minimal systems above {1}: exactly the {1,x} with x not in {0,1}, x' != x.

    An empty list means the hypothesis is unsatisfiable (e.g. two-element E).
    """
    return [
        Subset._wrap((1 << E.one) | (1 << x), E.n)
        for x in range(E.n)
        if x not in (E.zero, E.one) and E.comp[x] != x
    ]


class CompletenessReport(NamedTuple):
    ok: bool
    exhaustive: bool  # always True: pairs decide every family
    families_checked: int
    witness: Optional[tuple] = None


class DedLattice:
    """The lattice of all deductive systems, ordered by inclusion."""

    def __init__(self, algebra: EffectAlgebra, systems: list[Subset]):
        self.algebra = algebra
        self.systems = systems
        self.index = {s.bits: i for i, s in enumerate(systems)}

    def leq(self, i: int, j: int) -> bool:
        return self.systems[i].issubset(self.systems[j])

    def meet(self, i: int, j: int) -> int:
        return self.index[self.systems[i].bits & self.systems[j].bits]

    def join(self, i: int, j: int) -> int:
        union = self.systems[i].bits | self.systems[j].bits
        return self.index[_generated(self.algebra, union)]

    def check_completeness(self) -> CompletenessReport:
        """Every family of systems must have an inf and a sup in the lattice.

        The systems are the closed sets of a closure, so the inf of a
        family is its intersection (E for the empty family) and the sup is
        the system generated by its union; each is one index lookup.  The
        empty family, the singletons and the pairs decide every family,
        exactly and at every size: intersection is associative, and
        `_generated` is extensive, monotone and idempotent, so
        gen(A u B u C) = gen(gen(A u B) u C); by induction on its size,
        every family then has both bounds once every pair has them.  That
        is 1 + k + k(k-1)/2 families for k systems, in that order.
        """
        k = len(self.systems)
        members = [s.bits for s in self.systems]
        full = self.algebra.order.full_bits
        checked = 1 + k + k * (k - 1) // 2
        singletons = ((i,) for i in range(k))
        for family in itertools.chain([()], singletons, itertools.combinations(range(k), 2)):
            inf, union = full, 0
            for i in family:
                inf &= members[i]
                union |= members[i]
            if inf not in self.index or _generated(self.algebra, union) not in self.index:
                return CompletenessReport(False, True, checked, family)
        return CompletenessReport(True, True, checked)


def ded_lattice(E: EffectAlgebra) -> DedLattice:
    return DedLattice(E, enumerate_ded(E))
