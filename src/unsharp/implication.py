"""Subset-valued implication x -> y = x' + L(x,y) and its laws."""

from __future__ import annotations

import itertools
from typing import Iterator, Union

from .algebra import EffectAlgebra
from .poset import Subset
from .reports import ClauseResult, PropertyReport, _check

ElemOrSet = Union[int, Subset]


def _as_subset(E: EffectAlgebra, v: ElemOrSet) -> Subset:
    if isinstance(v, Subset):
        if v.n != E.n:
            raise ValueError("carrier mismatch")
        return v
    return Subset.single(E.n, v)


def implies(E: EffectAlgebra, x: int, y: int) -> Subset:
    "x -> y = x' + L(x,y); always defined since L(x,y) <= x."
    return Subset(E.imp_bits[x][y], E.n)


def implies_sets(E: EffectAlgebra, a: ElemOrSet, b: ElemOrSet) -> Subset:
    """A -> B = A' + L(A u B), with elements read as singletons.

    An empty antecedent yields the empty set (the elementwise sum has
    nothing to range over).
    """
    sa, sb = _as_subset(E, a), _as_subset(E, b)
    low = E.order.lower_bits(sa.bits | sb.bits)
    return Subset(E.sum_bits(E.comp_bits(sa.bits), low), E.n)


def odot_image(E: EffectAlgebra, x: int, a: Subset) -> Subset:
    'x (.) A elementwise; every element of A must dominate x-orthosupplement.'
    if a.n != E.n:
        raise ValueError("carrier mismatch")
    outside = a.bits & ~E.order.up[E.comp[x]]
    if outside:
        w = (outside & -outside).bit_length() - 1
        raise ValueError(f"product undefined: {E.labels[x]} (.) {E.labels[w]}")
    return Subset(E.odot_bits(x, a.bits), E.n)


class ImplicationTable:
    'The n x n grid of implication subsets of an algebra.'

    __slots__ = ("algebra",)

    def __init__(self, algebra: EffectAlgebra):
        self.algebra = algebra

    def __getitem__(self, pair) -> Subset:
        x, y = pair
        return implies(self.algebra, x, y)


def implication_table(E: EffectAlgebra) -> ImplicationTable:
    return ImplicationTable(E)


def exchange_failures(E: EffectAlgebra) -> Iterator[tuple[int, int, int]]:
    """Triples breaking consequent exchange, in lexicographic order:
    (a -> b) <= U(a',c')  iff  (a -> c) <= U(a',b').

    Per antecedent a, the two sides of (b, c) read b and c only through
    their classes (U(a',b'), U(a -> b)) and (U(a',c'), U(a -> c)), so a row
    whose classes pass pairwise has no failure and is not scanned."""
    n, comp = E.n, E.comp
    for a in range(n):
        up_imp, u_row = E.up_imp_bits[a], E.order.pair_upper[comp[a]]
        cls = [(u_row[comp[b]], up_imp[b]) for b in range(n)]
        if all(
            (not (u2 & ~ui1)) == (not (u1 & ~ui2))
            for (u1, ui1), (u2, ui2) in itertools.combinations(set(cls), 2)
        ):
            continue
        for b, (u_ab, ui_b) in enumerate(cls):
            for c, (u_ac, ui_c) in enumerate(cls):
                if (not (u_ac & ~ui_b)) != (not (u_ab & ~ui_c)):
                    yield (a, b, c)


def element_implication_suite(E: EffectAlgebra) -> PropertyReport:
    """Twelve laws of element implication, one clause each.

    The meet clause only applies to lattices and is marked skipped
    elsewhere.  Witnesses are the lexicographically first offending
    tuples.
    """
    n, p, comp = E.n, E.order, E.comp
    imp, up, down, low2, up2 = E.imp_bits, p.up, p.down, p.pair_lower, p.pair_upper

    def complement_forms(a, b):
        v1 = E.comp_bits(E.odot_bits(a, E.comp_bits(low2[a][b])))
        v2 = E.comp_bits(E.odot_bits(a, up2[comp[a]][comp[b]]))
        return imp[a][b] == v1 == v2

    covers = p.hasse_edges()
    exchange = next(exchange_failures(E), None)
    clauses = [
        _check("bounded_by_complement_cone", n, 2, lambda a, b: not imp[a][b] & ~up[comp[a]]),
        _check(
            "constant_on_leq", n, 2,
            lambda a, b: not up[a] >> b & 1 or imp[a][b] == up[comp[a]],
        ),
        _check(
            "interval_on_geq", n, 2,
            lambda a, b: not up[b] >> a & 1
            or imp[a][b] == up[comp[a]] & down[E.sums[comp[a]][b]],
        ),
        _check("zero_antecedent", n, 1, lambda b: imp[E.zero][b] == 1 << E.one),
        _check("zero_consequent", n, 1, lambda a: imp[a][E.zero] == 1 << comp[a]),
        _check("one_antecedent", n, 1, lambda b: imp[E.one][b] == down[b]),
        _check(
            "lower_cone_collapse", n, 2,
            lambda a, b: p.lower_bits(imp[a][b]) == down[comp[a]],
            key=lambda a, b: (a, imp[a][b]),
        ),
        _check(
            "product_recovers_cone", n, 2,
            lambda a, b: E.odot_bits(a, imp[a][b]) == low2[a][b],
            key=lambda a, b: (a, imp[a][b], low2[a][b]),
        ),
        _check(
            "monotone_in_consequent", n, 3,
            lambda a, b, c: not up[b] >> c & 1 or not imp[a][b] & ~imp[a][c],
            # inclusion is transitive, so the covers b < c decide it
            lambda: all(not row[b] & ~row[c] for row in imp for b, c in covers),
        ),
        _check(
            "product_complement_forms", n, 2, complement_forms,
            key=lambda a, b: (a, imp[a][b], low2[a][b], up2[comp[a]][comp[b]]),
        ),
        ClauseResult("consequent_exchange", exchange is None, exchange),
    ]
    if p.is_lattice():
        clauses.append(_check(
            "meet_consequent_collapse", n, 2,
            lambda a, b: imp[a][p.meet(a, b)] == imp[a][b],
        ))
    else:
        clauses.append(
            ClauseResult("meet_consequent_collapse", True, None, skipped=True,
                         detail="not a lattice")
        )
    return PropertyReport("element-implication", clauses)


def set_implication_suite(E: EffectAlgebra) -> PropertyReport:
    """Seven laws of implication with set arguments.

    The cone-antecedent clause checks all three pairwise equalities of
    the chained expressions against the closed form L(a') + L(a,b).
    """
    n, p, comp, imp = E.n, E.order, E.comp, E.imp_bits
    L, U, down, up = p.lower_bits, p.upper_bits, p.down, p.up
    low2, up2 = p.pair_lower, p.pair_upper
    memo: dict[tuple[int, int], int] = {}

    def set_sum(a: int, b: int) -> int:
        """A + B; A -> B is A' + L(A u B).  The same sums recur across
        clauses, and A + B = B + A since the sum table is symmetric."""
        key = (a, b) if a <= b else (b, a)
        out = memo.get(key)
        if out is None:
            out = memo[key] = E.sum_bits(a, b)
        return out

    def double_negation(a):
        na = imp[a][E.zero]
        return set_sum(E.comp_bits(na), L(na) & down[E.zero]) == 1 << a

    # U(a)' and L(U(a)) per element, read by the cone clauses for every pair
    up_comp = tuple(map(E.comp_bits, up))
    low_up = tuple(map(L, up))

    def nested(a, b, low):
        return set_sum(1 << comp[a], down[a] & low) == imp[a][comp[b]]

    def cone_antecedent(a, b):
        ua_comp, uc = up_comp[a], up2[comp[a]][comp[b]]
        first = set_sum(ua_comp, low_up[a] & down[b])
        closed = set_sum(down[comp[a]], low2[a][b])
        return (
            first == set_sum(ua_comp, low_up[a] & low_up[b])
            and first == set_sum(E.comp_bits(uc), L(uc) & down[comp[a]])
            and first == closed
        )

    def own_upper(a, b):
        return set_sum(1 << comp[a], down[a] & L(up2[a][b]))

    clauses = [
        _check("double_negation", n, 1, double_negation),
        _check(
            "nested_consequent", n, 3,
            lambda a, b, c: nested(a, b, L(imp[b][c])),
            # the sides read c only through L(b -> c), and one value per b is
            # exact: 0 is in it, so passing there puts a' in each cell a -> d
            # and every member above a', hence L(b -> c) = L(b') for every c
            lambda: all(nested(a, b, v) for b, v in enumerate(L(row[E.zero]) for row in imp)
                        for a in range(n)),
        ),
        _check(
            "cone_consequent", n, 2,
            lambda a, b: set_sum(1 << comp[a], down[a] & low_up[b]) == imp[a][b],
            key=lambda a, b: (a, down[a] & low_up[b], imp[a][b]),
        ),
        _check(
            "cone_antecedent", n, 2, cone_antecedent,
            key=lambda a, b: (a, low_up[a] & down[b], low_up[a] & low_up[b],
                              up2[comp[a]][comp[b]], low2[a][b]),
        ),
        _check(
            "own_lower_cone", n, 2,
            lambda a, b: set_sum(1 << comp[a], down[a] & L(low2[a][b])) == 1 << comp[a],
            key=lambda a, b: (a, low2[a][b]),
        ),
        _check(
            "own_upper_cone", n, 2,
            lambda a, b: own_upper(a, b) == E.add_bits(comp[a], down[a]),
            key=lambda a, b: (a, up2[a][b]),
        ),
        _check(
            "tautology_cone", n, 2, lambda a, b: U(own_upper(a, b)) == 1 << E.one,
            key=lambda a, b: (a, up2[a][b]),
        ),
    ]
    return PropertyReport("set-implication", clauses)
