"""Exhaustive enumeration of small effect algebras, up to relabeling or not.

The unrestricted search fixes 0 and 1, fills the interior upper triangle
cell by cell (mirroring symmetrically), and prunes on complement
uniqueness, sums with the top element, associativity over decided triples,
and two theorem-level value exclusions (no interior sum equals 0 or either
operand).  Every completed table still goes through the full validator, so
the pruning can only lose speed, never algebras.

A restricted mode enumerates only tables whose induced order equals a
given poset; there the complement involution is chosen first and the
definedness pattern is forced, which keeps carriers like n = 9 tractable.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

from .algebra import EffectAlgebra, validate_tables
from .poset import Poset

UNKNOWN = -2
UNDEF = -1

MAX_FREE = 7
MAX_RESTRICTED = 10


def _default_labels(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n - 1)) + ("1",)


def _base_state(n: int):
    t = [[UNKNOWN] * n for _ in range(n)]
    one = n - 1
    for x in range(n):
        t[0][x] = t[x][0] = x
    for x in range(1, n):
        t[one][x] = t[x][one] = UNDEF
    comp: list[Optional[int]] = [None] * n
    comp[0] = one
    comp[one] = 0
    return t, comp


def _assoc_ok(t, n: int) -> bool:
    'Associativity over every triple whose relevant cells are all decided.'
    for a in range(1, n):
        row_a = t[a]
        for b in range(1, n):
            s_ab = row_a[b]
            if s_ab == UNKNOWN:
                continue
            row_b = t[b]
            for c in range(1, n):
                s_bc = row_b[c]
                if s_bc == UNKNOWN:
                    continue
                left = UNDEF if s_ab == UNDEF else t[s_ab][c]
                right = UNDEF if s_bc == UNDEF else row_a[s_bc]
                if left == UNKNOWN or right == UNKNOWN:
                    continue
                if left != right:
                    return False
    return True


def _search(t, comp, cells, idx, n, out):
    if idx == len(cells):
        out.append(tuple(tuple(None if v == UNDEF else v for v in row) for row in t))
        return
    x, y = cells[idx]
    one = n - 1
    last_in_row = y == n - 2
    for v in (UNDEF, *range(1, n)):
        if v in (x, y):
            continue
        undo_comp = []
        if v == one:
            if x == y:
                if comp[x] not in (None, x):
                    continue
                if comp[x] is None:
                    comp[x] = x
                    undo_comp.append(x)
            else:
                if comp[x] not in (None, y) or comp[y] not in (None, x):
                    continue
                if comp[x] is None:
                    comp[x] = y
                    undo_comp.append(x)
                if comp[y] is None:
                    comp[y] = x
                    undo_comp.append(y)
        t[x][y] = t[y][x] = v
        if (not last_in_row or comp[x] is not None) and _assoc_ok(t, n):
            _search(t, comp, cells, idx + 1, n, out)
        t[x][y] = t[y][x] = UNKNOWN
        for w in undo_comp:
            comp[w] = None


def _interior_cells(n: int):
    return [(x, y) for x in range(1, n - 1) for y in range(x, n - 1)]


def _collect_tables(n: int, prefix: Optional[tuple] = None) -> list:
    'All prune-surviving completed tables, optionally under fixed first cells.'
    t, comp = _base_state(n)
    cells = _interior_cells(n)
    out: list = []
    if not prefix:
        _search(t, comp, cells, 0, n, out)
        return out
    # replay the prefix through the same assignment logic, then search on
    replay: list = []
    _search_prefix(t, comp, cells, list(prefix), n, replay)
    return replay


def _search_prefix(t, comp, cells, prefix, n, out):
    if not prefix:
        _search(t, comp, cells, len(cells) - _remaining(t, cells), n, out)
        return
    idx = len(cells) - _remaining(t, cells)
    x, y = cells[idx]
    v = prefix[0]
    one = n - 1
    if v in (x, y):
        return
    if v == one:
        if x == y:
            if comp[x] not in (None, x):
                return
            comp[x] = x
        else:
            if comp[x] not in (None, y) or comp[y] not in (None, x):
                return
            comp[x] = y
            comp[y] = x
    t[x][y] = t[y][x] = v
    if (y != n - 2 or comp[x] is not None) and _assoc_ok(t, n):
        _search_prefix(t, comp, cells, prefix[1:], n, out)


def _remaining(t, cells) -> int:
    return sum(1 for x, y in cells if t[x][y] == UNKNOWN)


def _subtree_task(args):
    n, prefix = args
    return prefix, _collect_tables(n, prefix)


@dataclass
class EnumerationResult:
    n: int
    algebras: list[EffectAlgebra]
    labeled_count: int
    iso_count: int
    up_to_iso: bool


def enumerate_effect_algebras(
    n: int,
    up_to_iso: bool = False,
    threads: Optional[int] = None,
    induced_order: Optional[Poset] = None,
) -> EnumerationResult:
    """All effect algebras on n labeled elements with 0 first and 1 last.

    With `up_to_iso` the algebra list keeps one representative per
    isomorphism class (counts for both modes are always computed).  With
    `induced_order` only tables inducing exactly that order are produced.
    """
    if induced_order is not None:
        if induced_order.n != n:
            raise ValueError("order carrier differs from n")
        if not 2 <= n <= MAX_RESTRICTED:
            raise ValueError(f"restricted search supports 2..{MAX_RESTRICTED} elements")
        tables = _restricted_tables(induced_order)
        labels = induced_order.labels
    else:
        if not 2 <= n <= MAX_FREE:
            raise ValueError(f"unrestricted search supports 2..{MAX_FREE} elements")
        labels = _default_labels(n)
        cells = _interior_cells(n)
        # at most one worker per CPU and per first-cell subtree (UNDEF, 1..n-1)
        workers = max(1, min(threads or 1, os.cpu_count() or 1, n))
        if workers > 1 and cells:
            import multiprocessing

            prefixes = [(n, (v,)) for v in (UNDEF, *range(1, n))]
            with multiprocessing.Pool(workers) as pool:
                chunks = pool.map(_subtree_task, prefixes)
            chunks.sort(key=lambda pair: pair[0])
            tables = [tab for _, chunk in chunks for tab in chunk]
        else:
            tables = _collect_tables(n)

    algebras = []
    seq = 0
    for tab in tables:
        report = validate_tables(labels, tab, 0, n - 1, name=f"EA{n}-{seq}")
        if report.ok:
            if induced_order is not None and report.algebra.order.up != induced_order.up:
                continue
            algebras.append(report.algebra)
            seq += 1
    labeled_count = len(algebras)
    reps = []
    seen = set()
    for E in algebras:
        form = canonical_form(E)
        if form not in seen:
            seen.add(form)
            reps.append(E)
    return EnumerationResult(
        n,
        reps if up_to_iso else algebras,
        labeled_count,
        len(reps),
        up_to_iso,
    )


# -- restricted search over a fixed order ----------------------------------


def _antitone_involutions(p: Poset) -> list[tuple[int, ...]]:
    'Involutions of the carrier that reverse the order and swap the bounds.'
    n = p.n
    interior = [x for x in range(n) if x not in (p.bottom, p.top)]
    found = []
    for perm in itertools.permutations(interior):
        mapping = list(range(n))
        mapping[p.bottom] = p.top
        mapping[p.top] = p.bottom
        for x, y in zip(interior, perm):
            mapping[x] = y
        if any(mapping[mapping[x]] != x for x in interior):
            continue
        if all(
            not p.leq(x, y) or p.leq(mapping[y], mapping[x])
            for x in range(n)
            for y in range(n)
        ):
            found.append(tuple(mapping))
    return found


def _restricted_tables(p: Poset) -> list:
    n = p.n
    one = p.top
    if p.bottom != 0 or p.top != n - 1:
        raise ValueError("restricted search expects bottom 0 and top n-1")
    tables = []
    for inv in _antitone_involutions(p):
        t, comp = _base_state(n)
        ok = True
        for x in range(1, n - 1):
            xc = inv[x]
            if xc in (0, one):
                ok = False  # interior elements need interior complements
                break
            if t[x][xc] not in (UNKNOWN, one):
                ok = False
                break
            t[x][xc] = t[xc][x] = one
            comp[x] = xc
        if not ok:
            continue
        free = [
            (x, y)
            for x in range(1, n - 1)
            for y in range(x, n - 1)
            if t[x][y] == UNKNOWN and p.leq(x, inv[y])
        ]
        for x in range(1, n - 1):
            for y in range(x, n - 1):
                if t[x][y] == UNKNOWN and not p.leq(x, inv[y]):
                    t[x][y] = t[y][x] = UNDEF
        _restricted_search(t, free, 0, p, inv, tables)
    return tables


def _restricted_search(t, free, idx, p: Poset, inv, out):
    n = p.n
    if idx == len(free):
        out.append(tuple(tuple(None if v == UNDEF else v for v in row) for row in t))
        return
    x, y = free[idx]
    common = p.up[x] & p.up[y] & ~(1 << p.top) & ~(1 << p.bottom)
    rest = common
    while rest:
        lsb = rest & -rest
        v = lsb.bit_length() - 1
        rest ^= lsb
        if v in (x, y):
            continue
        if any(t[x][w] == v or t[y][w] == v for w in range(n)):
            continue  # row-injectivity (cancellativity)
        t[x][y] = t[y][x] = v
        if _assoc_ok(t, n):
            _restricted_search(t, free, idx + 1, p, inv, out)
        t[x][y] = t[y][x] = UNKNOWN
    # a cell forced defined by the involution cannot stay empty: no undefined
    # branch here, every strictness-defined pair needs a value


# -- isomorphism ------------------------------------------------------------


def _invariant_keys(E: EffectAlgebra) -> list[tuple]:
    keys = []
    for x in range(E.n):
        deg = sum(1 for y in range(E.n) if E.sums[x][y] is not None)
        below = E.order.down[x].bit_count()
        above = E.order.up[x].bit_count()
        keys.append((deg, below, above, E.comp[x] == x))
    return keys


def relabel(E: EffectAlgebra, perm, name: Optional[str] = None) -> EffectAlgebra:
    'Transport the algebra along perm (perm[old] = new); revalidates.'
    n = E.n
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    sums: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    labels = [""] * n
    for x in range(n):
        labels[perm[x]] = E.labels[x]
        for y in range(n):
            v = E.sums[x][y]
            if v is not None:
                sums[perm[x]][perm[y]] = perm[v]
    return EffectAlgebra.from_tables(
        labels, sums, perm[E.zero], perm[E.one], name=name or E.name
    )


def _encode(E: EffectAlgebra, perm) -> tuple:
    n = E.n
    grid = [[n] * n for _ in range(n)]
    for x in range(n):
        px = perm[x]
        for y in range(n):
            v = E.sums[x][y]
            if v is not None:
                grid[px][perm[y]] = perm[v]
    return tuple(v for row in grid for v in row)


def canonical_form(E: EffectAlgebra) -> tuple:
    """A relabeling-invariant encoding: minimal table over allowed renamings.

    0 goes to slot 0 and 1 to the last slot; interior elements may only
    land in the slot block of their invariant class, which keeps the
    search small without ever separating isomorphic algebras.
    """
    n = E.n
    keys = _invariant_keys(E)
    interior = [x for x in range(n) if x not in (E.zero, E.one)]
    groups: dict[tuple, list[int]] = {}
    for x in interior:
        groups.setdefault(keys[x], []).append(x)
    ordered = [groups[k] for k in sorted(groups)]
    slot_blocks = []
    slot = 1
    for g in ordered:
        slot_blocks.append(range(slot, slot + len(g)))
        slot += len(g)
    best = None
    for choice in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [0] * n
        perm[E.zero] = 0
        perm[E.one] = n - 1
        for g_perm, block in zip(choice, slot_blocks):
            for old, new in zip(g_perm, block):
                perm[old] = new
        enc = _encode(E, perm)
        if best is None or enc < best:
            best = enc
    return (n, *best)


def find_isomorphism(E1: EffectAlgebra, E2: EffectAlgebra) -> Optional[tuple]:
    """A 0,1-fixing bijection transporting one sum table onto the other."""
    if E1.n != E2.n:
        return None
    n = E1.n
    k1, k2 = _invariant_keys(E1), _invariant_keys(E2)
    if sorted(k1) != sorted(k2):
        return None
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n
    mapping[E1.zero] = E2.zero
    used[E2.zero] = True
    if E1.one != E1.zero:
        if used[E2.one]:
            return None
        mapping[E1.one] = E2.one
        used[E2.one] = True
    todo = [x for x in range(n) if mapping[x] is None]

    def consistent(x: int) -> bool:
        mx = mapping[x]
        for a in range(n):
            ma = mapping[a]
            if ma is None:
                continue
            v, w = E1.sums[x][a], E2.sums[mx][ma]
            if (v is None) != (w is None):
                return False
            if v is not None and mapping[v] is not None and mapping[v] != w:
                return False
        return True

    def rec(i: int) -> bool:
        if i == len(todo):
            return all(
                (E1.sums[x][y] is None) == (E2.sums[mapping[x]][mapping[y]] is None)
                and (
                    E1.sums[x][y] is None
                    or mapping[E1.sums[x][y]] == E2.sums[mapping[x]][mapping[y]]
                )
                for x in range(n)
                for y in range(n)
            )
        x = todo[i]
        for y in range(n):
            if used[y] or k2[y] != k1[x]:
                continue
            mapping[x] = y
            used[y] = True
            if consistent(x) and rec(i + 1):
                return True
            mapping[x] = None
            used[y] = False
        return False

    if rec(0):
        return tuple(mapping)  # type: ignore[arg-type]
    return None


def is_isomorphic(E1: EffectAlgebra, E2: EffectAlgebra) -> bool:
    return find_isomorphism(E1, E2) is not None
