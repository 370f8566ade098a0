"""Finite bounded posets with bit-set subsets, cones, and antitone involutions.

Carriers are {0, ..., n-1} with n <= 64 so every subset fits in one machine
word and cone arithmetic is a handful of AND/OR operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .reports import ClauseResult, PropertyReport, _check

MAX_CARRIER = 64


def iter_bits(mask: int) -> Iterator[int]:
    'The members of a bitmask, in increasing order.'
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bits(n: int, s: "Subset") -> int:
    'The mask of `s`, which must be a subset of the carrier {0..n-1}.'
    if s.n != n:
        raise ValueError(f"carrier mismatch: subset over {s.n} elements, carrier has {n}")
    return s.bits


@dataclass(frozen=True)
class Subset:
    """An immutable subset of {0..n-1} stored as a bitmask."""

    bits: int
    n: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_CARRIER:
            raise ValueError(f"carrier size {self.n} outside 0..{MAX_CARRIER}")
        if self.bits < 0 or self.bits & ~((1 << self.n) - 1):
            raise ValueError("subset bits fall outside the carrier")

    @classmethod
    def _wrap(cls, bits: int, n: int) -> "Subset":
        'A Subset of a mask computed over a carrier the package holds; nothing is checked.'
        s = object.__new__(cls)
        fields = s.__dict__  # filled directly, past the frozen __setattr__
        fields["bits"], fields["n"] = bits, n
        return s

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls.of(n, range(n))

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        if not 0 <= n <= MAX_CARRIER:
            raise ValueError(f"carrier size {n} outside 0..{MAX_CARRIER}")
        bits = 0
        for x in elements:
            if not 0 <= x < n:
                raise ValueError(f"element {x} outside carrier 0..{n - 1}")
            bits |= 1 << x
        return cls._wrap(bits, n)

    @classmethod
    def single(cls, n: int, x: int) -> "Subset":
        return cls.of(n, (x,))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.n and bool(self.bits >> x & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _coerced(self, other: "Subset") -> int:
        if self.n != other.n:
            raise ValueError("carrier mismatch between subsets")
        return other.bits

    def __or__(self, other: "Subset") -> "Subset":
        return Subset._wrap(self.bits | self._coerced(other), self.n)

    def __and__(self, other: "Subset") -> "Subset":
        return Subset._wrap(self.bits & self._coerced(other), self.n)

    def __sub__(self, other: "Subset") -> "Subset":
        return Subset._wrap(self.bits & ~self._coerced(other), self.n)

    def issubset(self, other: "Subset") -> bool:
        return not (self.bits & ~self._coerced(other))

    def isdisjoint(self, other: "Subset") -> bool:
        return not (self.bits & self._coerced(other))

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def add(self, x: int) -> "Subset":
        if not 0 <= x < self.n:
            raise ValueError(f"element {x} outside carrier")
        return Subset._wrap(self.bits | 1 << x, self.n)


class OrderError(ValueError):
    'Up-sets that break reflexivity, antisymmetry or transitivity, with the first witness.'

    def __init__(self, reason: str, witness: tuple[int, ...]):
        super().__init__(f"order not {reason} at ({','.join(map(str, witness))})")
        self.reason = reason
        self.witness = witness


def check_order_axioms(up: Sequence[int]) -> None:
    """Raise OrderError at the first axiom the up-sets break, with its first witness.

    Reflexivity is checked for x in turn, then antisymmetry for x < y, then
    transitivity for x <= y, naming the largest z above y but not above x.
    A mask outside the carrier raises ValueError where reflexivity meets it.
    """
    full = (1 << len(up)) - 1
    for x, mask in enumerate(up):
        if mask < 0 or mask & ~full:
            raise ValueError(f"up-mask of {x} falls outside the carrier")
        if not mask >> x & 1:
            raise OrderError("reflexive", (x,))
    for x, mask in enumerate(up):
        for y in iter_bits(mask & ~((2 << x) - 1)):
            if up[y] >> x & 1:
                raise OrderError("antisymmetric", (x, y))
    for x, mask in enumerate(up):
        for y in iter_bits(mask):
            if up[y] & ~mask:
                raise OrderError("transitive", (x, y, (up[y] & ~mask).bit_length() - 1))


class Poset:
    """A bounded partial order, kept as up-set bitmasks (up[x] = {y : x <= y}).

    The constructor checks the order axioms with `check_order_axioms`
    (raising OrderError) and the existence of a bottom and a top; anything
    else raises ValueError.
    The pair-cone tables are built on first use and kept, since the order
    never changes.
    """

    __slots__ = ("n", "up", "down", "bottom", "top", "labels", "full_bits", "__dict__")

    def __init__(self, up: Sequence[int], labels: Optional[Sequence[str]] = None):
        n = len(up)
        if not 1 <= n <= MAX_CARRIER:
            raise ValueError(f"carrier size {n} outside 1..{MAX_CARRIER}")
        up = tuple(int(m) for m in up)
        check_order_axioms(up)
        down = [0] * n
        for x in range(n):
            for y in iter_bits(up[x]):
                down[y] |= 1 << x
        full = (1 << n) - 1
        bottoms = [x for x in range(n) if up[x] == full]
        tops = [y for y in range(n) if down[y] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("order is not bounded by a unique bottom and top")
        if labels is None:
            labels = tuple(f"e{x}" for x in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("label count differs from carrier size")
            if len(set(labels)) != n:
                raise ValueError("labels are not pairwise distinct")
        self._assign(up, tuple(down), bottoms[0], tops[0], labels)

    @classmethod
    def _unchecked(cls, up, down, bottom, top, labels) -> "Poset":
        'A poset from masks already known to form a bounded order; nothing is checked.'
        p = cls.__new__(cls)
        p._assign(up, down, bottom, top, labels)
        return p

    def _assign(self, up, down, bottom, top, labels):
        self.n, self.full_bits = len(up), (1 << len(up)) - 1
        self.up, self.down, self.bottom, self.top, self.labels = up, down, bottom, top, labels

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def comparable(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y | self.up[y] >> x) & 1)

    # -- cones ---------------------------------------------------------
    # L([p,q]) = L(p) and U([p,q]) = U(q) by transitivity: p and q lie in [p,q]

    def lower_bits(self, mask: int) -> int:
        'L(A) for A given as a bitmask; L(empty) is the whole carrier, and L([p,q]) = L(p).'
        if mask & (mask - 1) and (pq := self._intervals.get(mask)) is not None:
            return self.down[pq[0]]
        bits, down = self.full_bits, self.down
        while mask:
            low = mask & -mask
            bits &= down[low.bit_length() - 1]
            mask ^= low
        return bits

    def upper_bits(self, mask: int) -> int:
        'U(A) for A given as a bitmask; U(empty) is the whole carrier, and U([p,q]) = U(q).'
        if mask & (mask - 1) and (pq := self._intervals.get(mask)) is not None:
            return self.up[pq[1]]
        bits, up = self.full_bits, self.up
        while mask:
            low = mask & -mask
            bits &= up[low.bit_length() - 1]
            mask ^= low
        return bits

    @cached_property
    def pair_lower(self) -> tuple[tuple[int, ...], ...]:
        'L(x,y) for every pair, as bitmasks.'
        return tuple(tuple(dx & dy for dy in self.down) for dx in self.down)

    @cached_property
    def pair_upper(self) -> tuple[tuple[int, ...], ...]:
        'U(x,y) for every pair, as bitmasks.'
        return tuple(tuple(ux & uy for uy in self.up) for ux in self.up)

    @cached_property
    def pair_ul(self) -> tuple[tuple[int, ...], ...]:
        'UL(x,y), the upper cone of the lower cone of every pair, as bitmasks.'
        return tuple(tuple(self.upper_bits(m) for m in row) for row in self.pair_lower)

    def lower_cone(self, a: Subset) -> Subset:
        'L(A): everything below all of A; L(empty) is the whole carrier.'
        return Subset._wrap(self.lower_bits(_bits(self.n, a)), self.n)

    def upper_cone(self, a: Subset) -> Subset:
        'U(A): everything above all of A; U(empty) is the whole carrier.'
        return Subset._wrap(self.upper_bits(_bits(self.n, a)), self.n)

    def cone_pair(self, *elements: int) -> tuple[Subset, Subset]:
        'L(A) and U(A) for A given by its elements; one or two in-range ints read the cones off.'
        n = self.n
        if 0 < len(elements) < 3:
            x, y = elements[0], elements[-1]
            if type(x) is type(y) is int and 0 <= x < n and 0 <= y < n:
                low, upp = self.down[x] & self.down[y], self.up[x] & self.up[y]
                return Subset._wrap(low, n), Subset._wrap(upp, n)
        bits = Subset.of(n, elements).bits
        return Subset._wrap(self.lower_bits(bits), n), Subset._wrap(self.upper_bits(bits), n)

    def set_leq(self, a: Subset, b: Subset) -> bool:
        'Every element of A below every element of B; vacuous when either is empty.'
        return not ~self.upper_bits(_bits(self.n, a)) & _bits(self.n, b)

    def interval(self, a: int, b: int) -> Subset:
        '[a,b] as a subset, possibly empty.'
        return Subset._wrap(self.up[a] & self.down[b], self.n)

    # -- lattice structure ----------------------------------------------

    def meet(self, x: int, y: int) -> Optional[int]:
        """Greatest common lower bound, or None when no greatest one exists."""
        return self._meets[x][y]

    @cached_property
    def _principal(self) -> dict[int, int]:
        'L(t) -> t: a mask is a principal down-set iff it is a key, and L is one-to-one.'
        return {d: t for t, d in enumerate(self.down)}

    @cached_property
    def _intervals(self) -> dict[int, tuple[int, int]]:
        '[p,q] -> (p, q) for every p <= q: a nonempty interval has a least and a greatest member.'
        down = self.down
        return {u & down[q]: (p, q) for p, u in enumerate(self.up) for q in iter_bits(u)}

    @cached_property
    def _meets(self) -> tuple[tuple[Optional[int], ...], ...]:
        'The meet of every pair: the m with L(x,y) = L(m), None where there is none.'
        return tuple(tuple(map(self._principal.get, row)) for row in self.pair_lower)

    # a finite set has a least element iff it has exactly one minimal one
    def join(self, x: int, y: int) -> Optional[int]:
        """Least common upper bound, or None when no least one exists."""
        minima = maximal_bits(self.up[x] & self.up[y], self.down)
        return minima.bit_length() - 1 if not minima & (minima - 1) else None

    def is_lattice(self) -> bool:
        'Every pair has a meet and a join.'
        # pairwise meets give every finite meet, so the join of x, y is the meet of U(x,y)
        return all(None not in row for row in self._meets)

    @cached_property
    def _covers(self) -> tuple[int, ...]:
        'The upper covers of every x, as bitmasks: the minimal elements strictly above it.'
        return tuple(maximal_bits(u & ~(1 << x), self.down) for x, u in enumerate(self.up))

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        return [(x, y) for x, covers in enumerate(self._covers) for y in iter_bits(covers)]


def maximal_bits(mask: int, up: Sequence[int]) -> int:
    'The members of `mask` with no other member above them; given down-sets, the minimal ones.'
    tops, rest = 0, mask
    while rest:
        low = rest & -rest
        rest ^= low
        if up[low.bit_length() - 1] & mask == low:
            tops |= low
    return tops


def validate_involution(p: Poset, m: Sequence[int]) -> PropertyReport:
    """Check that the map x -> m[x] is an antitone involution swapping bottom and top.

    Every broken invariant gets its own clause with the first witness.
    """
    clauses = []
    if len(m) != p.n or sorted(m) != list(range(p.n)):
        dup = next((x for x in range(len(m)) if m.count(m[x]) > 1), None)
        clauses.append(ClauseResult("permutation", False, None if dup is None else (dup,),
                                    detail="mapping is not a permutation of the carrier"))
        return PropertyReport("involution", clauses)
    clauses.append(ClauseResult("permutation", True))
    return PropertyReport("involution", clauses + _involution_clauses(p, m))


def _involution_clauses(p: Poset, m: Sequence[int]) -> list[ClauseResult]:
    'The involutive, antitone and swaps_bounds clauses, for any map m of the carrier into itself.'
    swaps = m[p.bottom] == p.top and m[p.top] == p.bottom
    # only y >= x is walked: elsewhere antitone holds
    wit = next(((x, y) for x in range(p.n) for y in iter_bits(p.up[x])
                if not p.up[m[y]] >> m[x] & 1), None)
    return [
        _check("involutive", p.n, 1, lambda x: m[m[x]] == x),
        ClauseResult("antitone", wit is None, wit),
        ClauseResult("swaps_bounds", swaps, None if swaps else (p.bottom, p.top)),
    ]


def _walk_u_classes(p: Poset, inv, up_imp, sides) -> Iterator[tuple[int, int, int]]:
    """The triples (x, y, z) failing an adjointness law, in lexicographic order.

    The law, a biconditional, reads x only through U(x,y') and z only through
    the class (UL(y,z), U(y -> z)), with U(y -> z) taken from `up_imp`.  Per
    column y, `sides(y, U(x,y'), uls, uis)` runs once per distinct U(x,y') on
    the classes' UL(y,z) and U(y -> z) and returns the two sides' truth values,
    class by class; a class fails where they differ.  All columns are decided
    first; the pairs (x, y) are walked only in columns where a class fails.
    """
    n, up, bad = p.n, p.up, []
    for y in range(n):
        keys = list(zip(p.pair_ul[y], up_imp[y]))
        uls, uis = zip(*dict.fromkeys(keys))
        col = {}  # U(x,y') -> the z whose class fails with it, as a mask
        for umask in dict.fromkeys(map(up[inv[y]].__and__, up)):
            lhs, rhs = sides(y, umask, uls, uis)
            if lhs != rhs:
                failed = {key for key, lh, rh in zip(zip(uls, uis), lhs, rhs) if lh != rh}
                col[umask] = sum(1 << z for z, key in enumerate(keys) if key in failed)
        if col:
            bad.append((y, col))
    for x in range(n):
        for y, col in bad:
            for z in iter_bits(col.get(up[x] & up[inv[y]], 0)):
                yield (x, y, z)
