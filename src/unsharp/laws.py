"""Contraposition, monotonicity and related global laws.

The unsharp contraposition law compares upper cones of implications,
U(x -> y) against U(y' -> x').  It holds for every comparable pair but can
fail on incomparable ones; on lattices it is equivalent to the identity
x' + (x ^ y) = y + (x' ^ y').  Monotonicity (`is_monotonous`) rides along
with cone-level adjointness, the law it is tied to.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .algebra import EffectAlgebra
from .poset import Subset, _walk_u_classes, iter_bits
from .reports import ClauseResult, LawReport, LawViolation, PropertyReport


def contraposition_pair(E: EffectAlgebra, x: int, y: int):
    "U(x -> y) vs U(y' -> x'): returns (equal, lhs cone, rhs cone)."
    up_imp = E.up_imp_bits
    lhs, rhs = up_imp[x][y], up_imp[E.comp[y]][E.comp[x]]
    return lhs == rhs, Subset._wrap(lhs, E.n), Subset._wrap(rhs, E.n)


def _contraposition_failures(E: EffectAlgebra) -> Iterator[tuple[int, int]]:
    "Pairs (x, y) with U(x -> y) != U(y' -> x'), in lexicographic order."
    up_imp, comp = E.up_imp_bits, E.comp
    for x in range(E.n):
        for y in range(E.n):
            if up_imp[x][y] != up_imp[comp[y]][comp[x]]:
                yield x, y


def counterexample_search(E: EffectAlgebra) -> LawReport:
    """Every pair breaking contraposition, annotated comparable/incomparable."""
    failing = []
    for x, y in _contraposition_failures(E):
        _, lhs, rhs = contraposition_pair(E, x, y)
        failing.append(LawViolation(x, y, lhs, rhs, E.order.comparable(x, y)))
    return LawReport("contraposition", failing, not any(v.comparable for v in failing))


def check_comparable_contraposition(E: EffectAlgebra) -> PropertyReport:
    """Contraposition on comparable pairs, plus the meet-variant clause.

    The variant U(x -> y) = U((x^y)' -> x') is checked for every pair whose
    meet exists (all of them on a lattice).
    """
    p, comp, up_imp = E.order, E.comp, E.up_imp_bits
    wit = next(((x, y) for x, y in _contraposition_failures(E) if p.comparable(x, y)), None)
    clauses = [ClauseResult("comparable_pairs", wit is None, wit)]

    pairs = [(x, y) for x in range(E.n) for y in range(E.n) if p.meet(x, y) is not None]
    wit = next(((x, y) for x, y in pairs if up_imp[x][y] != up_imp[comp[p.meet(x, y)]][comp[x]]),
               None)
    checked = len(pairs) if wit is None else pairs.index(wit) + 1  # up to the witness
    clauses.append(
        ClauseResult("meet_variant", wit is None, wit, detail=f"{checked} pairs with meets")
    )
    return PropertyReport("comparable-contraposition", clauses)


def check_lattice_identity(E: EffectAlgebra) -> LawReport:
    """x' + (x ^ y) = y + (x' ^ y') on a lattice, pair by pair.

    It holds on an MV-effect algebra, a lattice where x ^ y = 0 makes x + y
    defined, and so does global contraposition.  On a lattice L(x,y) is the
    down-set of x ^ y and z -> x' + z maps [0,x] onto [x',1] in order, so
    U(x -> y) is the up-set of x' + (x ^ y) = x' (+) y, where a (+) b =
    a + (a' ^ b) is the MV sum.  It commutes (Dvurecenskij and Pulmannova
    2000, ch. 1): x' (+) y = y (+) x' = y + (y' ^ x').
    """
    p = E.order
    if not p.is_lattice():
        raise ValueError("not a lattice")
    failing = []
    for x in range(E.n):
        xc = E.comp[x]
        for y in range(E.n):
            lhs = E.sums[xc][p.meet(x, y)]
            rhs = E.sums[y][p.meet(xc, E.comp[y])]
            if lhs != rhs:
                failing.append(
                    LawViolation(x, y, E.subset(lhs), E.subset(rhs), p.comparable(x, y))
                )
    return LawReport("identity1", failing, not any(v.comparable for v in failing))


class IdentityEquivalence(NamedTuple):
    contraposition_holds: bool
    identity_holds: bool

    @property
    def equivalent(self) -> bool:
        return self.contraposition_holds == self.identity_holds

    def __bool__(self):
        return self.equivalent


def identity_contraposition_equivalence(E: EffectAlgebra) -> IdentityEquivalence:
    """On a lattice, the identity and global contraposition stand or fall together.

    Both global truths are computed independently; callers assert they match.
    """
    contra = counterexample_search(E).holds_globally
    ident = check_lattice_identity(E).holds_globally
    return IdentityEquivalence(contra, ident)


class MonotonicityResult(NamedTuple):
    holds: bool
    witness: Optional[tuple]  # (x, A, B) with A, B as Subsets
    exhaustive: bool  # always True: the reduction is exact at every size

    def __bool__(self):
        return self.holds


def is_monotonous(E: EffectAlgebra) -> MonotonicityResult:
    """Does L(A) <= U(B) force L(x+A) <= U(x+B) whenever A, B <= x'?

    A and B range over nonempty subsets; the empty set is excluded because
    U({}) is the whole carrier by convention, which would fail the law
    vacuously even on Boolean algebras.  x = 0 is skipped: there x + A = A
    and the implication is a tautology.

    Decided exactly at every size, with O(n^2) pairs (l, u) per x instead
    of all 2^n x 2^n pairs (A, B).  The premise, U(B) inside UL(A), only
    gets easier as A and B grow.  The conclusion fails when some l in
    L(x+A) and u in U(x+B) have l not <= u, and for a fixed (l, u) that
    means exactly A inside A_l = {a <= x' : l <= x+a} and B inside
    B_u = {b <= x' : x+b <= u}.  So x fails iff some l not <= u with A_l
    and B_u nonempty meets the premise at (A_l, B_u).

    The witness is the one a sweep over A and B from dom down to 0 finds:
    the first failing x, then the numerically largest failing A, which is
    the largest such A_l since every failing A lies inside one, then
    likewise the largest B_u failing with that A.  The A_l of the first
    failing l need not be the largest: on EA8-40 of the labeled listing
    (`enumerate_effect_algebras(8)`) it gives (x4, {x3,x4,x5}, {0,x6})
    where the sweep gives (x4, {x3,x5,x6}, {0,x4}).
    """
    n, p = E.n, E.order
    L, U, up, down = p.lower_bits, p.upper_bits, p.up, p.down
    for x in range(n):
        if x == E.zero:
            continue
        dom, row = down[E.comp[x]], E.sums[x]
        a_of, b_of = [0] * n, [0] * n  # A_l and B_u
        for a in iter_bits(dom):
            for l in iter_bits(down[row[a]]):
                a_of[l] |= 1 << a
            for u in iter_bits(up[row[a]]):
                b_of[u] |= 1 << a
        lows = [(l, a_of[l], U(L(a_of[l]))) for l in range(n) if a_of[l]]
        ups = [(u, b_of[u], U(b_of[u])) for u in range(n) if b_of[u]]

        def fails(l, ul):
            'The B_u failing with (l, UL(A)).'
            return [b for u, b, ub in ups if not up[l] >> u & 1 and not ub & ~ul]

        best_a = max((a for l, a, ul in lows if fails(l, ul)), default=0)
        if best_a:
            ul = U(L(best_a))
            best_b = max(
                b for l, a, _ in lows if not best_a & ~a for b in fails(l, ul)
            )
            return MonotonicityResult(False, (x, Subset(best_a, n), Subset(best_b, n)), True)
    return MonotonicityResult(True, None, True)


class ConeAdjointness(NamedTuple):
    """Cone-level adjointness status together with the monotonicity probe."""

    holds_globally: bool
    witness: Optional[tuple]
    monotonicity: MonotonicityResult


def check_cone_level_adjointness(E: EffectAlgebra) -> ConeAdjointness:
    """L(U(x,y') (.) y) <= UL(y,z) iff LU(x,y') <= U(y -> z), recorded only.

    The result is reported, never asserted: the law is tied to monotonicity,
    which not every algebra enjoys, so the probe result rides along.
    """
    wit = next(_cone_adjointness_failures(E), None)
    return ConeAdjointness(wit is None, wit, is_monotonous(E))


def _cone_adjointness_failures(E: EffectAlgebra) -> Iterator[tuple[int, int, int]]:
    'The triples breaking cone-level adjointness, in lexicographic order.'
    L, U = E.order.lower_bits, E.order.upper_bits

    def sides(y, uxy, uls, uis):
        u_image_low, u_low_uxy = U(L(E.odot_bits(y, uxy))), U(L(uxy))
        return [ul & u_image_low == ul for ul in uls], [ui & u_low_uxy == ui for ui in uis]

    return _walk_u_classes(E.order, E.comp, E.up_imp_bits, sides)
