"""Deductive systems: subsets containing 1 and closed under implication.

D is deductive when 1 is a member and, whenever x is a member and the whole
subset x -> y lands inside D, y is a member too.  For proper systems this
is equivalent to D being disjoint from its elementwise orthosupplement
(th3), so the systems are {1} plus at most one member of each complement
pair, and E itself.  Counting and listing use that form at every size;
`characterization_agreement` is where th3 is tested against the definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .algebra import EffectAlgebra
from .poset import Subset, iter_bits

BRUTE_FORCE_LIMIT = 20
TH3_SAMPLES = 2000  # seeded subsets checked by th3 above BRUTE_FORCE_LIMIT


@dataclass
class DeductiveCheck:
    holds: bool
    witness: Optional[tuple] = None  # (x, y) breaking closure, or ("one",)
    exhaustive: bool = True  # False when only a seeded sample of subsets was checked

    def __bool__(self):
        return self.holds


@dataclass
class DeductiveSystem:
    members: Subset
    algebra: EffectAlgebra

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members


def _closure_witness(E: EffectAlgebra, bits: int) -> Optional[tuple[int, int]]:
    'First (x, y) with x in D and x -> y inside D but y outside; None when D is closed.'
    imp = E.imp_bits
    outside = E.order.full_bits & ~bits
    rest = bits
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low
        row = imp[x]
        todo = outside
        while todo:
            ylow = todo & -todo
            y = ylow.bit_length() - 1
            if not row[y] & ~bits:
                return (x, y)
            todo ^= ylow
    return None


def is_deductive_system(E: EffectAlgebra, d: Subset) -> DeductiveCheck:
    """Both defining conditions, checked directly with no shortcut."""
    if d.n != E.n:
        raise ValueError("carrier mismatch")
    if E.one not in d:
        return DeductiveCheck(False, ("one",))
    wit = _closure_witness(E, d.bits)
    return DeductiveCheck(wit is None, wit)


def characterize(E: EffectAlgebra, d: Subset) -> bool:
    """Proper D containing 1 is deductive iff D and D' are disjoint."""
    if d.n != E.n:
        raise ValueError("carrier mismatch")
    if E.one not in d:
        raise ValueError("characterization needs 1 as a member")
    if d.bits == E.full_set().bits:
        raise ValueError("characterization needs a proper subset; E itself is always deductive")
    return not E.comp_bits(d.bits) & d.bits


def characterization_agreement(E: EffectAlgebra) -> DeductiveCheck:
    """Compare the direct closure test with the disjointness criterion on
    proper subsets containing 1; the witness is the first disagreeing one.

    Every such subset is swept up to 20 elements.  Above that a seeded
    sample is checked and the result says so: every {1,x}, then unions of
    {1} with one choice (neither, x or x') per complement pair, which are
    deductive, then random subsets containing 1, which mostly are not.
    """
    one_bit = 1 << E.one
    full = (1 << E.n) - 1
    exhaustive = E.n <= BRUTE_FORCE_LIMIT
    if exhaustive:
        masks = range(1 << E.n)
    else:
        masks = _th3_sample(E)
    for mask in masks:
        if not mask & one_bit or mask == full:
            continue
        closed = _closure_witness(E, mask) is None
        if closed != (not E.comp_bits(mask) & mask):
            return DeductiveCheck(False, tuple(iter_bits(mask)), exhaustive)
    return DeductiveCheck(True, None, exhaustive)


def _th3_sample(E: EffectAlgebra):
    rng = random.Random(0)
    one_bit = 1 << E.one
    for x in range(E.n):
        yield one_bit | 1 << x
    pairs = _complement_pairs(E)
    for _ in range(TH3_SAMPLES // 2):
        bits = one_bit
        for x, xc in pairs:
            bits |= (0, 1 << x, 1 << xc)[rng.randrange(3)]
        yield bits
    for _ in range(TH3_SAMPLES - TH3_SAMPLES // 2):
        yield rng.getrandbits(E.n) | one_bit


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


def enumerate_ded(E: EffectAlgebra) -> list[DeductiveSystem]:
    'All deductive systems, in the order of iter_ded.'
    return list(iter_ded(E))


def iter_ded(E: EffectAlgebra) -> Iterator[DeductiveSystem]:
    """All deductive systems, one at a time, by size then sorted members.

    Generated in order from the complement pairs, so the first systems
    arrive at once even when there are 3^31 of them."""
    for bits in _closed_form_ded(E):
        yield DeductiveSystem(Subset(bits, E.n), E)


def _closed_form_ded(E: EffectAlgebra) -> Iterator[int]:
    """{1} plus at most one member of each complement pair, then the whole
    carrier: the systems th3 describes, as masks in the order of
    `iter_ded`.  Adding 1 to every set keeps their order, so the
    picks are generated in lexicographic order of their member tuples."""
    pairs = _complement_pairs(E)
    partner = {x: xc for x, xc in pairs} | {xc: x for x, xc in pairs}
    elems = sorted(partner)
    pairs_above = [sum(xc >= c for _, xc in pairs) for c in range(E.n + 1)]

    def picks(start: int, need: int, blocked: int) -> Iterator[int]:
        if not need:
            yield 0
            return
        for i, c in enumerate(elems[start:], start + 1):
            # the free pairs with a member at c or later; never grows with c
            if pairs_above[c] - (blocked >> c).bit_count() < need:
                return
            if not blocked >> c & 1:
                for rest in picks(i, need - 1, blocked | 1 << partner[c]):
                    yield 1 << c | rest

    one_bit, full = 1 << E.one, (1 << E.n) - 1
    for size in range(len(pairs) + 1):
        for bits in picks(0, size, 0):
            yield one_bit | bits
    if full != one_bit:
        yield full


def generate(E: EffectAlgebra, m: Subset) -> Subset:
    """Least deductive system containing M.

    M u {1} when M avoids 0 and is disjoint from M'; all of E otherwise.
    """
    if m.n != E.n:
        raise ValueError("carrier mismatch")
    if E.zero in m or not E.set_complement(m).isdisjoint(m):
        return E.full_set()
    return m.add(E.one)


def atoms(E: EffectAlgebra) -> list[DeductiveSystem]:
    """Minimal systems above {1}: exactly the {1,x} with x not in {0,1}, x' != x.

    An empty list means the hypothesis is unsatisfiable (e.g. two-element E).
    """
    return [
        DeductiveSystem(Subset((1 << E.one) | (1 << x), E.n), E)
        for x in range(E.n)
        if x not in (E.zero, E.one) and E.comp[x] != x
    ]


@dataclass
class CompletenessReport:
    ok: bool
    exhaustive: bool
    families_checked: int
    witness: Optional[tuple] = None


@dataclass
class DedLattice:
    """The lattice of all deductive systems, ordered by inclusion."""

    algebra: EffectAlgebra
    systems: list[DeductiveSystem]
    index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {
                s.members.bits: i for i, s in enumerate(self.systems)
            }

    def leq(self, i: int, j: int) -> bool:
        return self.systems[i].members.issubset(self.systems[j].members)

    def meet(self, i: int, j: int) -> int:
        bits = self.systems[i].members.bits & self.systems[j].members.bits
        return self.index[bits]

    def join(self, i: int, j: int) -> int:
        union = self.systems[i].members | self.systems[j].members
        return self.index[generate(self.algebra, union).bits]

    def _family_bounds(self, family: list[int]) -> Optional[tuple[int, int]]:
        """Greatest lower / least upper bound of a family, or None if missing."""
        members = [s.members.bits for s in self.systems]
        lowers = [
            b for b in members if all(not (b & ~members[i]) for i in family)
        ]
        uppers = [
            b for b in members if all(not (members[i] & ~b) for i in family)
        ]
        inf = [b for b in lowers if all(not (o & ~b) for o in lowers)]
        sup = [b for b in uppers if all(not (b & ~o) for o in uppers)]
        if len(inf) != 1 or len(sup) != 1:
            return None
        return inf[0], sup[0]

    def check_completeness(self, samples: int = 400, seed: int = 0) -> CompletenessReport:
        """Every family of systems must have an inf and a sup in the lattice.

        Exhaustive over all families when there are at most 20 systems;
        otherwise all pairs plus seeded random families.
        """
        k = len(self.systems)
        families: list[list[int]]
        exhaustive = k <= BRUTE_FORCE_LIMIT
        if exhaustive:
            families = [
                [i for i in range(k) if mask >> i & 1] for mask in range(1 << k)
            ]
        else:
            families = [[], list(range(k))]
            families += [[i] for i in range(k)]
            families += [[i, j] for i in range(k) for j in range(i + 1, k)]
            rng = random.Random(seed)
            for _ in range(samples):
                size = rng.randrange(k + 1)
                families.append(sorted(rng.sample(range(k), size)))
        for family in families:
            if self._family_bounds(family) is None:
                return CompletenessReport(False, exhaustive, len(families), tuple(family))
        return CompletenessReport(True, exhaustive, len(families))


def ded_lattice(E: EffectAlgebra) -> DedLattice:
    return DedLattice(E, enumerate_ded(E))
