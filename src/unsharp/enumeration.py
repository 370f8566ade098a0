"""Exhaustive enumeration of small effect algebras, up to relabeling or not.

The unrestricted search fixes 0 and 1 and splits by complement type: the
number j of interior pairs {x, x'} with x' != x.  For each j it presets
the canonical complement (1 2)(3 4)...(2j-1 2j), every other interior
element being its own complement, and fills the remaining interior
upper-triangle cells one by one (mirroring symmetrically).  No sum with
the top element is defined and no free cell takes 0 or 1.  A value
is pruned when it breaks cancellativity (a + b = a + c forces b = c, so
no value repeats in a row; against the preset column x + 0 = x this also
rules out x + y in {x, y}) or associativity over decided triples.
Associativity is checked incrementally: after a cell is assigned only the
triples that read it are evaluated, since every other decided triple
already passed at an earlier node, so each node costs O(n^2) instead of
O(n^3).

Every other labeled table is reached by relabeling.  For each involution
s of type j one permutation tau with tau s_j tau^-1 = s is fixed (pairs go
to pairs in order, fixed points to fixed points in order); tau carries a
table with complement s_j to one with complement s, and tau^-1 carries it
back.  So (tau, T) -> tau.T is a bijection from the pairs (involution of
type j, base table of type j) onto the labeled tables of type j, and no
table is found twice.  The labeled tables are sorted into the order of a
cell-by-cell search.  A relabeling is an isomorphism, so the first table
met in each base table's orbit is validated, and its canonical form found,
for the whole orbit.  Every algebra, validated or not, comes from the
EffectAlgebra constructor, which reads it off its rows; the members not
validated are built only when listed.  The result counts search nodes
and tables in refused orbits.

A restricted mode enumerates only tables whose induced order equals a
given poset; there every order-reversing involution is preset in turn
and the definedness pattern is forced, which keeps carriers like n = 9
tractable.  Both modes run one search routine, which differs only in the
values each cell may take.
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

MAX_FREE = 8
MAX_RESTRICTED = 10


def _default_labels(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n - 1)) + ("1",)


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

    The complement cells are preset, so every row already holds its 1.  A
    value is pruned by cancellativity or associativity; against the preset
    column x + 0 = x, cancellativity already refuses x + y in {x, y}.
    Completed tables are appended to out.  Returns the number of search
    nodes below this one: partial tables that passed every prune.
    """
    if idx == len(cells):
        out.append(tuple(tuple(None if v == UNDEF else v for v in row) for row in t))
        return 0
    x, y = cells[idx]
    row_x, row_y = t[x], t[y]
    nodes = 0
    for v in choices[idx]:
        if v != UNDEF and (v in row_x or v in row_y):
            continue  # cancellativity
        row_x[y] = row_y[x] = v
        if _assoc_cell_ok(t, n, x, y):
            nodes += 1 + _search(t, cells, choices, idx + 1, n, out)
        row_x[y] = row_y[x] = UNKNOWN
    return nodes


def _complement_state(n: int, inv) -> list:
    'The table with x + 0 = x, no other sum with 1, and x + inv[x] = 1 preset.'
    t = [[UNKNOWN] * n for _ in range(n)]
    one = n - 1
    for x in range(n):
        t[0][x] = t[x][0] = x
    for x in range(1, n):
        t[one][x] = t[x][one] = UNDEF
    for x in range(1, n - 1):
        t[x][inv[x]] = t[inv[x]][x] = one
    return t


def _relabelings(n: int, j: int) -> list[tuple[int, ...]]:
    """One relabeling tau (tau[old] = new) per interior involution with j pairs.

    tau sends the i-th pair (2i-1, 2i) of the canonical involution to the
    i-th pair of the target and the fixed points 2j+1..n-2 to its fixed
    points in order, so tau conjugates the canonical involution onto it.
    Every interior involution reverses the order 0 < interior < 1.
    """
    top = 1 << (n - 1)
    flat = Poset([(1 << n) - 1, *(1 << x | top for x in range(1, n - 1)), top])
    taus = []
    for inv in _antitone_involutions(flat):
        pairs = [(x, y) for x, y in enumerate(inv[1:-1], 1) if x < y]
        if len(pairs) == j:
            fixed = [x for x in range(1, n - 1) if inv[x] == x]
            taus.append((0, *itertools.chain.from_iterable(pairs), *fixed, n - 1))
    return taus


def _transport(tab, tau) -> tuple:
    'The table tab carried along tau: tau[x] + tau[y] = tau[x + y].'
    old = [0] * len(tau)
    for x, new in enumerate(tau):
        old[new] = x
    moved = {None: None, **dict(enumerate(tau))}
    return tuple(tuple(map(moved.__getitem__, map(tab[x].__getitem__, old))) for x in old)


def _type_tables(args) -> tuple[list, int]:
    """Every labeled table whose complement has j pairs, and the node count.

    The search runs once, with the canonical involution (1 2)(3 4)...(2j-1 2j)
    preset; each base table is then carried to every other involution of
    the type.  Entries are (table, index of its base table).
    """
    n, j = args
    inv = list(range(n))
    for a in range(1, 2 * j, 2):
        inv[a], inv[a + 1] = a + 1, a
    t = _complement_state(n, inv)
    cells = [(x, y) for x in range(1, n - 1) for y in range(x, n - 1) if t[x][y] == UNKNOWN]
    values = (UNDEF, *range(1, n - 1))
    base: list = []
    nodes = _search(t, cells, [values] * len(cells), 0, n, base)
    taus = _relabelings(n, j)
    return [(_transport(tab, tau), b) for b, tab in enumerate(base) for tau in taus], nodes


def _free_tables(n: int, threads: Optional[int]) -> tuple[list, int]:
    """Every labeled table on n elements, in the order of a cell-by-cell search.

    Entries are (table, (j, base index)).  Tables sort by their interior
    upper-triangle cells with undefined first, the order in which one
    search over all cells with values (undefined, 1..n-1) emits them.
    """
    args = [(n, j) for j in range((n - 2) // 2 + 1)]
    # at most one worker per CPU and per complement type
    workers = max(1, min(threads or 1, os.cpu_count() or 1, len(args)))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_type_tables, args)
    else:
        chunks = [_type_tables(a) for a in args]
    tables = [(tab, (j, b)) for j, (chunk, _) in enumerate(chunks) for tab, b in chunk]
    # two tables first differ in the upper triangle, which the lower one
    # mirrors row by row; interior sums are never 0, so 0 stands for undefined
    tables.sort(key=lambda e: [v or 0 for row in e[0][1:-1] for v in row[1:-1]])
    return tables, sum(count for _, count in chunks)


@dataclass
class EnumerationResult:
    n: int
    algebras: list[EffectAlgebra]
    labeled_count: int
    iso_count: int
    up_to_iso: bool
    nodes: int  # search nodes visited, over every complement type or involution
    rejected: int  # labeled tables in the orbits the validator or the order filter refused


def enumerate_effect_algebras(
    n: int,
    up_to_iso: bool = False,
    threads: Optional[int] = None,
    induced_order: Optional[Poset] = None,
) -> EnumerationResult:
    """All effect algebras on n labeled elements with 0 first and 1 last.

    With `up_to_iso` the algebra list keeps one representative per
    isomorphism class, the first labeled member (counts for both modes are
    always computed).  With `induced_order` only tables inducing exactly
    that order are produced.  `threads`, a library-only keyword (the CLI
    runs in one process), splits the free search by complement type.
    """
    if induced_order is not None:
        if induced_order.n != n:
            raise ValueError("order carrier differs from n")
        if not 2 <= n <= MAX_RESTRICTED:
            raise ValueError(f"restricted search supports 2..{MAX_RESTRICTED} elements")
        found, nodes = _restricted_tables(induced_order)
        tables = [(tab, i) for i, tab in enumerate(found)]
        labels = induced_order.labels
    else:
        if not 2 <= n <= MAX_FREE:
            raise ValueError(f"unrestricted search supports 2..{MAX_FREE} elements")
        tables, nodes = _free_tables(n, threads)
        labels = _default_labels(n)

    algebras = []
    forms: dict = {}  # per base table: the canonical form of its orbit, None if refused
    reps: dict = {}  # per class: its first labeled member
    labeled = 0
    for tab, base in tables:
        name, E = f"EA{n}-{labeled}", None
        if base not in forms:
            # the first table met is validated for its whole orbit: they are isomorphic
            E = validate_tables(labels, tab, 0, n - 1, name=name).algebra  # None if refused
            ok = E is not None and (induced_order is None or E.order.up == induced_order.up)
            forms[base] = canonical_form(E) if ok else None
        if forms[base] is None:
            continue
        labeled += 1
        # a class's first member is the first of its orbit, so E is set there
        reps.setdefault(forms[base], E)
        if not up_to_iso:
            algebras.append(E or EffectAlgebra(labels, tab, 0, n - 1, name))
    return EnumerationResult(
        n, list(reps.values()) if up_to_iso else algebras, labeled, len(reps), up_to_iso,
        nodes, len(tables) - labeled,
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
    if p.bottom != 0 or p.top != n - 1:
        raise ValueError("restricted search expects bottom 0 and top n-1")
    values = p.full_bits & ~(1 << p.top) & ~(1 << p.bottom)
    tables: list = []
    nodes = 0
    for inv in _antitone_involutions(p):
        t = _complement_state(n, inv)
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
    """Transport the algebra along perm (perm[old] = new).  An isomorphism keeps
    the table valid, so it goes to the EffectAlgebra constructor unvalidated."""
    if sorted(perm) != list(range(E.n)):
        raise ValueError("not a permutation")
    labels = tuple(E.labels[x] for x in sorted(range(E.n), key=perm.__getitem__))
    sums = _transport(E.sums, perm)
    return EffectAlgebra(labels, sums, perm[E.zero], perm[E.one], name or E.name)


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
    best = None
    for choice in itertools.product(*(itertools.permutations(g) for g in ordered)):
        perm = [0] * n  # zero goes to slot 0
        perm[E.one] = n - 1  # the same slot when n = 1, where zero is one
        for new, old in enumerate(itertools.chain.from_iterable(choice), 1):
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
