"""Contraposition and related global laws.

The unsharp contraposition law compares upper cones of implications,
U(x -> y) against U(y' -> x').  It holds for every comparable pair but can
fail on incomparable ones; on lattices it is equivalent to the identity
x' + (x ^ y) = y + (x' ^ y').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import EffectAlgebra, MonotonicityResult, is_monotonous
from .poset import Subset
from .reports import ClauseResult, LawReport, LawViolation, PropertyReport


def contraposition_pair(E: EffectAlgebra, x: int, y: int):
    "U(x -> y) vs U(y' -> x'): returns (equal, lhs cone, rhs cone)."
    up_imp = E.up_imp_bits
    lhs, rhs = up_imp[x][y], up_imp[E.comp[y]][E.comp[x]]
    return lhs == rhs, Subset(lhs, E.n), Subset(rhs, E.n)


def _contraposition_failures(E: EffectAlgebra) -> Iterator[tuple[int, int]]:
    "Pairs (x, y) with U(x -> y) != U(y' -> x'), in lexicographic order."
    up_imp, comp = E.up_imp_bits, E.comp
    for x in range(E.n):
        for y in range(E.n):
            if up_imp[x][y] != up_imp[comp[y]][comp[x]]:
                yield x, y


def counterexample_search(E: EffectAlgebra) -> LawReport:
    """Every pair breaking contraposition, annotated comparable/incomparable."""
    report = LawReport("contraposition")
    for x, y in _contraposition_failures(E):
        _, lhs, rhs = contraposition_pair(E, x, y)
        cmp = E.order.comparable(x, y)
        report.failing_pairs.append(LawViolation(x, y, lhs, rhs, cmp))
        if cmp:
            report.comparable_only_status = False
    return report


def check_comparable_contraposition(E: EffectAlgebra) -> PropertyReport:
    """Contraposition on comparable pairs, plus the meet-variant clause.

    The variant U(x -> y) = U((x^y)' -> x') is checked for every pair whose
    meet exists (all of them on a lattice).
    """
    p, comp, up_imp = E.order, E.comp, E.up_imp_bits
    wit = next(((x, y) for x, y in _contraposition_failures(E) if p.comparable(x, y)), None)
    clauses = [ClauseResult("comparable_pairs", wit is None, wit)]

    wit = None
    checked = 0
    for x in range(E.n):
        for y in range(E.n):
            m = p.meet(x, y)
            if m is None:
                continue
            checked += 1
            if up_imp[x][y] != up_imp[comp[m]][comp[x]]:
                wit = (x, y)
                break
        if wit:
            break
    clauses.append(
        ClauseResult("meet_variant", wit is None, wit, detail=f"{checked} pairs with meets")
    )
    return PropertyReport("comparable-contraposition", clauses)


def check_lattice_identity(E: EffectAlgebra) -> LawReport:
    """x' + (x ^ y) = y + (x' ^ y') on a lattice, pair by pair."""
    p = E.order
    if not p.is_lattice():
        raise ValueError("not a lattice")
    report = LawReport("identity1")
    for x in range(E.n):
        xc = E.comp[x]
        for y in range(E.n):
            lhs = E.sums[xc][p.meet(x, y)]
            rhs = E.sums[y][p.meet(xc, E.comp[y])]
            if lhs != rhs:
                cmp = p.comparable(x, y)
                report.failing_pairs.append(
                    LawViolation(x, y, E.subset(lhs), E.subset(rhs), cmp)
                )
                if cmp:
                    report.comparable_only_status = False
    return report


@dataclass
class IdentityEquivalence:
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


@dataclass
class ConeAdjointness:
    """Cone-level adjointness status together with the monotonicity probe."""

    holds_globally: bool
    witness: Optional[tuple]
    monotonicity: MonotonicityResult


def check_cone_level_adjointness(E: EffectAlgebra) -> ConeAdjointness:
    """L(U(x,y') (.) y) <= UL(y,z) iff LU(x,y') <= U(y -> z), recorded only.

    The result is reported, never asserted: the law is tied to monotonicity,
    which not every algebra enjoys, so the probe result rides along.
    """
    p, n, comp = E.order, E.n, E.comp
    L, U, ul = p.lower_bits, p.upper_bits, p.pair_ul
    up_imp = E.up_imp_bits
    wit = None
    for x in range(n):
        for y in range(n):
            uxy = p.up[x] & p.up[comp[y]]
            u_image_low = U(L(E.odot_bits(y, uxy)))
            u_low_uxy = U(L(uxy))
            z = next(
                (
                    z
                    for z in range(n)
                    if (not ul[y][z] & ~u_image_low) != (not up_imp[y][z] & ~u_low_uxy)
                ),
                None,
            )
            if z is not None:
                wit = (x, y, z)
                break
        if wit:
            break
    return ConeAdjointness(wit is None, wit, is_monotonous(E))
