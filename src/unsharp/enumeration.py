"""Exhaustive enumeration of small effect algebras, up to relabeling or not.

The unrestricted search fixes 0 and 1 and fills the interior upper
triangle cell by cell (mirroring symmetrically).  No sum with the top
element is defined and no interior sum equals 0.  A value is pruned when
it breaks cancellativity (a + b = a + c forces b = c, so no value repeats
in a row) or associativity over decided triples.  Against the preset
column x + 0 = x, cancellativity already rules out x + y in {x, y}, and
it lets a row hold 1 at most once, so complements stay unique; a row is
complete only once it holds its 1.  Associativity is checked
incrementally: after a cell is assigned only the triples that read it
are evaluated, since every other decided triple already passed at an
earlier node, so each node costs O(n^2) instead of O(n^3).  Every
completed table still goes through the full validator, so the pruning
can only lose speed, never algebras; the result counts the search nodes
and the completed tables the validator rejected.

A restricted mode enumerates only tables whose induced order equals a
given poset; there the complement involution is chosen first and the
definedness pattern is forced, which keeps carriers like n = 9 tractable.
Both modes run one search routine, which differs only in the values each
cell may take.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

from .algebra import EffectAlgebra, validate_tables
from .poset import Poset, iter_bits

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
    return t


def _assoc_cell_ok(t, n: int, x: int, y: int) -> bool:
    """Associativity over the decided triples that read cell (x, y) or (y, x).

    The cell can sit in the a+b slot, the b+c slot, the outer (a+b)+c slot
    (a+b equal to x or y) or the outer a+(b+c) slot.  Any other decided
    triple reads only cells that were already decided, and checked, at an
    earlier node.  The table is symmetric, so (a, b, c) fails exactly when
    (c, b, a) does, and the a+b and (a+b)+c slots cover all four.  Rows
    are injective on values (cancellativity), so a row holds x or y at
    most once.
    """
    for p, q in ((x, y),) if x == y else ((x, y), (y, x)):
        row_p, row_q = t[p], t[q]
        s = row_p[q]
        row_s = None if s == UNDEF else t[s]
        for c in range(1, n):  # (p+q)+c = p+(q+c)
            s_qc = row_q[c]
            if s_qc == UNKNOWN:
                continue
            left = UNDEF if row_s is None else row_s[c]
            right = UNDEF if s_qc == UNDEF else row_p[s_qc]
            if left != right and left != UNKNOWN and right != UNKNOWN:
                return False
        for b in range(1, n):  # (a+b)+q = a+(b+q) with a+b = p
            row_b = t[b]
            if b == p or p not in row_b:
                continue
            s_bq = row_b[q]
            if s_bq == UNKNOWN:
                continue
            right = UNDEF if s_bq == UNDEF else t[row_b.index(p)][s_bq]
            if right != s and right != UNKNOWN:
                return False
    return True


def _search(t, cells, choices, idx, n, out) -> int:
    """Fill cells[idx:] depth first, trying the values choices[i] at cells[i].

    A value is pruned by cancellativity or associativity.  Against the
    preset column x + 0 = x, cancellativity already refuses x + y in
    {x, y}, and it allows one 1 per row, so complements stay unique.  A
    row is complete only once it holds its 1.  Completed tables are
    appended to out.  Returns the number of search nodes below this one:
    partial tables that passed every prune.
    """
    if idx == len(cells):
        out.append(tuple(tuple(None if v == UNDEF else v for v in row) for row in t))
        return 0
    x, y = cells[idx]
    row_x, row_y = t[x], t[y]
    one = n - 1
    last_in_row = y == n - 2
    nodes = 0
    for v in choices[idx]:
        if v != UNDEF and (v in row_x or v in row_y):
            continue  # cancellativity
        row_x[y] = row_y[x] = v
        if (not last_in_row or one in row_x) and _assoc_cell_ok(t, n, x, y):
            nodes += 1 + _search(t, cells, choices, idx + 1, n, out)
        row_x[y] = row_y[x] = UNKNOWN
    return nodes


def _interior_cells(n: int):
    return [(x, y) for x in range(1, n - 1) for y in range(x, n - 1)]


def _collect_tables(n: int, prefix: tuple = ()) -> tuple[list, int]:
    'Completed tables of the free search and its node count; prefix fixes the first cells.'
    t = _base_state(n)
    cells = _interior_cells(n)
    values = (UNDEF, *range(1, n))
    choices = [(v,) for v in prefix] + [values] * (len(cells) - len(prefix))
    out: list = []
    nodes = _search(t, cells, choices, 0, n, out)
    return out, nodes


def _subtree_task(args):
    n, prefix = args
    return _collect_tables(n, prefix)


@dataclass
class EnumerationResult:
    n: int
    algebras: list[EffectAlgebra]
    labeled_count: int
    iso_count: int
    up_to_iso: bool
    nodes: int  # search nodes visited, summed over the workers
    rejected: int  # completed tables the validator or the order filter refused


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
        tables, nodes = _restricted_tables(induced_order)
        labels = induced_order.labels
    else:
        if not 2 <= n <= MAX_FREE:
            raise ValueError(f"unrestricted search supports 2..{MAX_FREE} elements")
        labels = _default_labels(n)
        # at most one worker per CPU and per first-cell subtree (UNDEF, 1..n-1)
        workers = max(1, min(threads or 1, os.cpu_count() or 1, n))
        if workers > 1 and _interior_cells(n):
            import multiprocessing

            prefixes = [(n, (v,)) for v in (UNDEF, *range(1, n))]
            with multiprocessing.Pool(workers) as pool:
                chunks = pool.map(_subtree_task, prefixes)
            tables = [tab for chunk, _ in chunks for tab in chunk]
            nodes = sum(count for _, count in chunks)
        else:
            tables, nodes = _collect_tables(n)

    algebras = []
    for tab in tables:
        report = validate_tables(labels, tab, 0, n - 1, name=f"EA{n}-{len(algebras)}")
        if report.ok and (
            induced_order is None or report.algebra.order.up == induced_order.up
        ):
            algebras.append(report.algebra)
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
        nodes,
        len(tables) - labeled_count,
    )


# -- restricted search over a fixed order ----------------------------------


def _antitone_involutions(p: Poset) -> list[tuple[int, ...]]:
    """Involutions of the carrier that reverse the order and swap the bounds.

    Built by backtracking in lexicographic order: the least unpaired
    interior element is paired with itself or with a larger unpaired one,
    and a pair is dropped as soon as it breaks order reversal against the
    elements mapped so far.
    """
    n, up = p.n, p.up
    interior = [x for x in range(n) if x not in (p.bottom, p.top)]
    f: list[Optional[int]] = [None] * n
    f[p.bottom], f[p.top] = p.top, p.bottom
    found = []

    def reverses(u: int) -> bool:
        fu = f[u]
        for w, fw in enumerate(f):
            if fw is None:
                continue
            if up[u] >> w & 1 and not up[fw] >> fu & 1:
                return False
            if up[w] >> u & 1 and not up[fu] >> fw & 1:
                return False
        return True

    def pair(i: int) -> None:
        while i < len(interior) and f[interior[i]] is not None:
            i += 1
        if i == len(interior):
            found.append(tuple(f))  # type: ignore[arg-type]
            return
        x = interior[i]
        for y in interior[i:]:
            if f[y] is not None:
                continue
            f[x], f[y] = y, x
            if reverses(x) and reverses(y):
                pair(i + 1)
            f[x] = f[y] = None

    pair(0)
    return found


def _restricted_tables(p: Poset) -> tuple[list, int]:
    'Completed tables whose complements and definedness fit p, and the node count.'
    n = p.n
    one = p.top
    if p.bottom != 0 or p.top != n - 1:
        raise ValueError("restricted search expects bottom 0 and top n-1")
    values = p.full_bits & ~(1 << p.top) & ~(1 << p.bottom)
    tables: list = []
    nodes = 0
    for inv in _antitone_involutions(p):
        t = _base_state(n)
        for x in range(1, n - 1):
            t[x][inv[x]] = t[inv[x]][x] = one
        # x + y is defined exactly when x <= y'; those cells get a value
        free, preset = [], []
        for x in range(1, n - 1):
            for y in range(x, n - 1):
                if t[x][y] != UNKNOWN:
                    preset.append((x, y))
                elif p.leq(x, inv[y]):
                    free.append((x, y))
                else:
                    t[x][y] = t[y][x] = UNDEF
                    preset.append((x, y))
        if not all(_assoc_cell_ok(t, n, x, y) for x, y in preset):
            continue
        choices = [tuple(iter_bits(p.up[x] & p.up[y] & values)) for x, y in free]
        nodes += _search(t, free, choices, 0, n, tables)
    return tables, nodes


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
            return _encode(E1, mapping) == _encode(E2, range(n))
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
