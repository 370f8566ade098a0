"""Subset-valued implication x -> y = x' + L(x,y) and its laws."""

from __future__ import annotations

import functools
import itertools
from operator import or_
from typing import Iterator, Union

from .algebra import EffectAlgebra
from .poset import Subset, _bits, iter_bits
from .reports import ClauseResult, PropertyReport, _check

ElemOrSet = Union[int, Subset]


def _as_bits(E: EffectAlgebra, v: ElemOrSet) -> int:
    'The mask of a subset of the carrier, or of the singleton {v}.'
    return _bits(E.n, v) if isinstance(v, Subset) else Subset.single(E.n, v).bits


def implies(E: EffectAlgebra, x: int, y: int) -> Subset:
    "x -> y = x' + L(x,y); always defined since L(x,y) <= x."
    return Subset._wrap(E.imp_bits[x][y], E.n)


def implies_sets(E: EffectAlgebra, a: ElemOrSet, b: ElemOrSet) -> Subset:
    """A -> B = A' + L(A u B), with elements read as singletons.

    An empty antecedent yields the empty set (the elementwise sum has
    nothing to range over).
    """
    a, b = _as_bits(E, a), _as_bits(E, b)
    return Subset._wrap(E.sum_bits(E.comp_bits(a), E.order.lower_bits(a | b)), E.n)


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
        pairs = itertools.combinations(set(cls), 2)
        if all((u2 & ui1 == u2) == (u1 & ui2 == u1) for (u1, ui1), (u2, ui2) in pairs):
            continue
        for b, (u_ab, ui_b) in enumerate(cls):
            for c, (u_ac, ui_c) in enumerate(cls):
                if (u_ac & ui_b == u_ac) != (u_ab & ui_c == u_ab):
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
        inner, cone = E.comp_bits(low2[a][b]), up2[comp[a]][comp[b]]
        v1 = E.comp_bits(E.odot_bits(a, inner))
        v2 = v1 if cone == inner else E.comp_bits(E.odot_bits(a, cone))
        return imp[a][b] == v1 == v2

    def cells(a):  # row a of (a -> b, L(a,b)); in a lattice L(a,b) names the meet
        return zip(imp[a], low2[a])

    # only b >= a (and b <= a) is walked: elsewhere the clause holds
    on_leq = next(((a, b) for a in range(n) for b in iter_bits(up[a])
                   if imp[a][b] != up[comp[a]]), None)
    on_geq = next(((a, b) for a in range(n) for b in iter_bits(down[a])
                   if imp[a][b] != up[comp[a]] & down[E.sums[comp[a]][b]]), None)
    columns = list(zip(*imp))
    covers = p.hasse_edges()
    exchange = next(exchange_failures(E), None)
    clauses = [
        _check(
            "bounded_by_complement_cone", n, 2, lambda a, b: not imp[a][b] & ~up[comp[a]],
            key=imp.__getitem__,
        ),
        ClauseResult("constant_on_leq", on_leq is None, on_leq),
        ClauseResult("interval_on_geq", on_geq is None, on_geq),
        _check("zero_antecedent", n, 1, lambda b: imp[E.zero][b] == 1 << E.one),
        _check("zero_consequent", n, 1, lambda a: imp[a][E.zero] == 1 << comp[a]),
        _check("one_antecedent", n, 1, lambda b: imp[E.one][b] == down[b]),
        _check(
            "lower_cone_collapse", n, 2,
            lambda a, b: p.lower_bits(imp[a][b]) == down[comp[a]],
            key=imp.__getitem__,
        ),
        _check(
            "product_recovers_cone", n, 2,
            lambda a, b: E.odot_bits(a, imp[a][b]) == low2[a][b],
            key=cells,
        ),
        _check(
            "monotone_in_consequent", n, 3,
            lambda a, b, c: not up[b] >> c & 1 or not imp[a][b] & ~imp[a][c],
            # inclusion is transitive, so the covers b < c decide it, column by column
            lambda: all(tuple(map(or_, columns[b], columns[c])) == columns[c]
                        for b, c in covers),
        ),
        _check(
            "product_complement_forms", n, 2, complement_forms,
            # U(a',b') is L(a,b)', so the cells stand for it too
            key=cells,
        ),
        ClauseResult("consequent_exchange", exchange is None, exchange),
    ]
    if p.is_lattice():
        clauses.append(_check(
            "meet_consequent_collapse", n, 2,
            lambda a, b: imp[a][p.meet(a, b)] == imp[a][b], key=cells,
        ))
    else:
        clauses.append(ClauseResult("meet_consequent_collapse", True, None, skipped=True,
                                    detail="not a lattice"))
    return PropertyReport("element-implication", clauses)


def set_implication_suite(E: EffectAlgebra) -> PropertyReport:
    """Seven laws of implication with set arguments.

    The cone-antecedent clause checks all three pairwise equalities of
    the chained expressions against the closed form L(a') + L(a,b).
    """
    n, p, comp, imp = E.n, E.order, E.comp, E.imp_bits
    down, up, low2, up2 = p.down, p.up, p.pair_lower, p.pair_upper
    # lower cones recur on the same masks across pairs and clauses
    L, U, comp_bits = functools.cache(p.lower_bits), p.upper_bits, E.comp_bits
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
        return set_sum(comp_bits(na), L(na) & down[E.zero]) == 1 << a

    # U(a)' and L(U(a)) per element, read by the cone clauses for every pair
    up_comp = tuple(map(comp_bits, up))
    low_up = tuple(map(L, up))
    lows = [L(row[E.zero]) for row in imp]  # L(b -> 0) per element, read by nested_consequent

    def cone_antecedent(a, b):
        ua_comp, uc = up_comp[a], up2[comp[a]][comp[b]]
        first = set_sum(ua_comp, low_up[a] & down[b])
        closed = set_sum(down[comp[a]], low2[a][b])
        return (
            first == set_sum(ua_comp, low_up[a] & low_up[b])
            and first == set_sum(comp_bits(uc), L(uc) & down[comp[a]])
            and first == closed
        )

    @functools.cache
    def own_upper(a, u):  # a' + (L(a) n L(U(a,b))) for u = U(a,b)
        return set_sum(1 << comp[a], down[a] & L(u))

    clauses = [
        _check("double_negation", n, 1, double_negation),
        _check(
            "nested_consequent", n, 3,
            lambda a, b, c: set_sum(1 << comp[a], down[a] & L(imp[b][c])) == imp[a][comp[b]],
            # the sides read c only through L(b -> c), and one value per b is
            # exact: 0 is in it, so passing there puts a' in each cell a -> d
            # and every member above a', hence L(b -> c) = L(b') for every c;
            # row a reads b there only through (L(a) n L(b -> 0), a -> b')
            lambda: all(
                set_sum(1 << comp[a], low) == cell for a in range(n) for low, cell in
                dict.fromkeys(zip(map(down[a].__and__, lows), map(imp[a].__getitem__, comp)))),
        ),
        _check(
            "cone_consequent", n, 2,
            lambda a, b: set_sum(1 << comp[a], down[a] & low_up[b]) == imp[a][b],
            key=lambda a: zip(map(down[a].__and__, low_up), imp[a]),
        ),
        _check(
            "cone_antecedent", n, 2, cone_antecedent,
            # U(a',b') is L(a,b)', so L(a,b) stands for it too
            key=lambda a: zip(map(low_up[a].__and__, down), map(low_up[a].__and__, low_up),
                              low2[a]),
        ),
        _check(
            "own_lower_cone", n, 2,
            lambda a, b: set_sum(1 << comp[a], down[a] & L(low2[a][b])) == 1 << comp[a],
            key=low2.__getitem__,
        ),
        _check(
            "own_upper_cone", n, 2,
            lambda a, b: own_upper(a, up2[a][b]) == E.add_bits(comp[a], down[a]),
            key=up2.__getitem__,
        ),
        _check(
            "tautology_cone", n, 2, lambda a, b: U(own_upper(a, up2[a][b])) == 1 << E.one,
            key=up2.__getitem__,
        ),
    ]
    return PropertyReport("set-implication", clauses)
