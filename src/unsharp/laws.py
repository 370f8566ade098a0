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
from .poset import Subset, _walk_u_classes
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

    pairs = [(x, y) for x in range(E.n) for y in range(E.n) if p.meet(x, y) is not None]
    wit = next(((x, y) for x, y in pairs if up_imp[x][y] != up_imp[comp[p.meet(x, y)]][comp[x]]),
               None)
    checked = len(pairs) if wit is None else pairs.index(wit) + 1  # up to the witness
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
    wit = next(_cone_adjointness_failures(E), None)
    return ConeAdjointness(wit is None, wit, is_monotonous(E))


def _cone_adjointness_failures(E: EffectAlgebra) -> Iterator[tuple[int, int, int]]:
    'The triples breaking cone-level adjointness, in lexicographic order.'
    L, U = E.order.lower_bits, E.order.upper_bits

    def sides(y, uxy, uls, uis):
        u_image_low, u_low_uxy = U(L(E.odot_bits(y, uxy))), U(L(uxy))
        return [ul & u_image_low == ul for ul in uls], [ui & u_low_uxy == ui for ui in uis]

    return _walk_u_classes(E.order, E.comp, E.up_imp_bits, sides)
