"""Exhaustive enumeration of small effect algebras, up to relabeling or not.

The unrestricted search fixes 0 and 1 and splits by complement type: the
number j of interior pairs {x, x'} with x' != x.  For each j it presets
the canonical complement (1 2)(3 4)...(2j-1 2j), every other interior
element being its own complement, and fills the remaining interior
upper-triangle cells one by one (mirroring symmetrically).  No sum with
the top element is defined and no free cell takes 0 or 1.  A value
is pruned when it breaks cancellativity (a + b = a + c forces b = c, so
no value repeats in a row; against the preset column x + 0 = x this also
rules out x + y in {x, y}) or associativity over the triples that read
the cell just filled; every other decided triple passed at an earlier
node, so each node costs O(n^2) instead of O(n^3).  Beside the table the
search keeps its inverse rows, w[x][v] the a with x + a = v (one at most,
by cancellativity), set when a cell takes a value and cleared when it
gives it back: the cancellativity prune is two lookups, and the
associativity prune reads the a with a + b = x off w instead of scanning
row b.  So every completed table is an effect algebra and nothing
validates it: E1 by mirroring, E2 by the prune, E3 as x + x' = 1 is
preset and no free cell takes 1, and E4 as no sum with 1 is defined but
0 + 1.

Every other labeled table is reached by relabeling.  For each involution
s of type j one permutation tau with tau s_j tau^-1 = s is fixed (pairs go
to pairs in order, fixed points to fixed points in order); tau carries a
table with complement s_j to one with complement s, and tau^-1 carries it
back.  So (tau, T) -> tau.T is a bijection from the pairs (involution of
type j, base table of type j) onto the labeled tables of type j, and no
table is found twice.  A relabeling is an isomorphism, so a base table of
type j stands for |relabelings of type j| labeled tables, and its
canonical form for their class.  Only a listing relabels, each tau once
as a getter over the cells and a lookup of the values; the labeled tables
are sorted into the order of a cell-by-cell search, and each listed
algebra comes from the EffectAlgebra constructor, which reads its
complements off its rows and leaves its order to its first reader, and
carries its base table's form.

A restricted mode enumerates only tables whose induced order equals a
given poset; there every order-reversing involution is preset in turn
and the definedness pattern is forced, presets that no triple can break
and that keep n = 9 tractable.  Both modes run one search routine, which
differs only in the values each cell may take, and one count routine,
where the restricted tables form one group with the identity as its only
relabeling, and both list their tables in one order.  The search and the
counts reach n = 10; the free listing stops at n = 8 (15,136 algebras).

`canonical_form`, `find_isomorphism` and `is_isomorphic` all rest on one
canonical labeling, found by an individualization-refinement search.  A
listed algebra carries its form, which `canonical_form` reads without a
search; its labeling is not kept, as a relabeling keeps the form but not
the labeling.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import NamedTuple, Optional

from .algebra import EffectAlgebra
from .poset import Poset, iter_bits

UNKNOWN = -2
UNDEF = -1

MAX_SEARCH = 10  # both modes, and the free mode's counts
MAX_LISTED = 8  # the free listing, whose names at n >= 9 are not decided
_FORM = "_canonical_form"  # the key of a listed algebra's form in its __dict__


def _default_labels(n: int) -> tuple[str, ...]:
    return ("0",) + tuple(f"x{i}" for i in range(1, n - 1)) + ("1",)


def _assoc_cell_ok(t, w, n: int, x: int, y: int) -> bool:
    """Associativity over the decided triples that read cell (x, y) or (y, x).

    The cell can sit in the a+b slot, the b+c slot, the outer (a+b)+c slot
    (a+b equal to x or y) or the outer a+(b+c) slot.  Any other decided
    triple reads only cells that were already decided, and checked, at an
    earlier node.  The table is symmetric, so (a, b, c) fails exactly when
    (c, b, a) does, and the a+b and (a+b)+c slots cover all four.  The
    (a+b)+c slot reads a off the inverse rows w: the a with b + a = p.
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
            a = w[b][p]
            if a <= 0:  # no such a, or a = 0 and b = p
                continue
            s_bq = t[b][q]
            if s_bq == UNKNOWN:
                continue
            right = UNDEF if s_bq == UNDEF else t[a][s_bq]
            if right != s and right != UNKNOWN:
                return False
    return True


def _search(t, w, cells, choices, idx, n, out) -> int:
    """Fill cells[idx:] depth first, trying the values choices[i] at cells[i]
    and pruning by cancellativity and associativity.  w holds the inverse
    rows of t, w[x][v] the a with x + a = v or -1 while there is none; a
    value sets them and backtracking clears them.  Completed tables are
    appended to out.  Returns the number of search nodes below this one:
    partial tables that passed every prune."""
    if idx == len(cells):
        out.append(tuple(tuple(None if v == UNDEF else v for v in row) for row in t))
        return 0
    x, y = cells[idx]
    row_x, row_y, w_x, w_y = t[x], t[y], w[x], w[y]
    nodes = 0
    for v in choices[idx]:
        if v != UNDEF:
            if w_x[v] >= 0 or w_y[v] >= 0:
                continue  # cancellativity
            w_x[v], w_y[v] = y, x
        row_x[y] = row_y[x] = v
        if _assoc_cell_ok(t, w, n, x, y):
            nodes += 1 + _search(t, w, cells, choices, idx + 1, n, out)
        row_x[y] = row_y[x] = UNKNOWN
        if v != UNDEF:
            w_x[v] = w_y[v] = -1
    return nodes


def _complement_state(n: int, inv) -> tuple[list, list]:
    """The table with x + 0 = x, no other sum with 1, and x + inv[x] = 1
    preset, and its inverse rows (see `_search`)."""
    t = [[UNKNOWN] * n for _ in range(n)]
    one = n - 1
    for x in range(n):
        t[0][x] = t[x][0] = x
    for x in range(1, n):
        t[one][x] = t[x][one] = UNDEF
    for x in range(1, n - 1):
        t[x][inv[x]] = t[inv[x]][x] = one
    return t, [[row.index(v) if v in row else -1 for v in range(n)] for row in t]


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


def _mover(tau):
    """The relabeling along tau (tau[old] = new), built once per tau: it takes a
    table's cells row by row and gives the rows of the table carried along tau,
    tau[x] + tau[y] = tau[x + y]."""
    n = len(tau)
    old = sorted(range(n), key=tau.__getitem__)
    pick = itemgetter(*[x * n + y for x in old for y in old]) if n > 1 else tuple
    value = {None: None, **dict(enumerate(tau))}.__getitem__
    return lambda cells: tuple(zip(*[map(value, pick(cells))] * n))


def _type_tables(n: int, j: int) -> tuple:
    """Complement type j: its relabelings, its base tables (complement
    (1 2)(3 4)...(2j-1 2j)), their forms and the number of search nodes."""
    inv = list(range(n))
    for a in range(1, 2 * j, 2):
        inv[a], inv[a + 1] = a + 1, a
    t, w = _complement_state(n, inv)
    cells = [(x, y) for x in range(1, n - 1) for y in range(x, n - 1) if t[x][y] == UNKNOWN]
    base: list = []
    nodes = _search(t, w, cells, [(UNDEF, *range(1, n - 1))] * len(cells), 0, n, base)
    return _relabelings(n, j), base, _forms(_default_labels(n), base), nodes


def _free_types(n: int) -> list:
    'What `_type_tables` finds for each complement type.'
    return [_type_tables(n, j) for j in range((n - 2) // 2 + 1)]


def _free_tables(types: list) -> list:
    """Every labeled table, (table, form of its base table), in the order of
    one search over all cells with values (undefined, 1..n-1)."""
    tables = []
    for taus, base, forms, _ in types:
        cells = [tuple(itertools.chain.from_iterable(tab)) for tab in base]
        for move in map(_mover, taus):
            tables += [(move(c), form) for c, form in zip(cells, forms)]
    tables.sort(key=lambda e: _listing_key(e[0]))
    return tables


def _listing_key(tab) -> list:
    """Sorts tables into the order of one search over all cells with values
    (undefined, 1..n-1), the listing order of both modes.  Symmetric tables
    first differ, row by row, in the upper triangle (the mirror of a lower
    cell is in an earlier row), so the key reads only that part of the
    interior; interior sums are never 0, so 0 stands for undefined."""
    return [v or 0 for i, row in enumerate(tab[1:-1], 1) for v in row[i:-1]]


def _forms(labels, base: list) -> list:
    'The canonical form of each base table, which serves its whole orbit.'
    return [canonical_form(EffectAlgebra(labels, tab, 0, len(tab) - 1)) for tab in base]


def _counts(groups: list) -> tuple[int, int, int]:
    """(labeled, iso, nodes) over groups (relabelings, base tables, forms, nodes):
    a base table stands for one labeled table per relabeling of its group."""
    labeled = sum(len(taus) * len(forms) for taus, _, forms, _ in groups)
    classes = {form for _, _, forms, _ in groups for form in forms}
    return labeled, len(classes), sum(g[3] for g in groups)


def _count_free(n: int) -> tuple[int, int, int]:
    'The counts of `enumerate_effect_algebras(n)`, with nothing relabeled, sorted or built.'
    return _counts(_free_types(n))


class EnumerationResult(NamedTuple):
    n: int
    algebras: list[EffectAlgebra]
    labeled_count: int
    iso_count: int
    up_to_iso: bool
    nodes: int  # search nodes visited, over every complement type or involution


def enumerate_effect_algebras(
    n: int,
    up_to_iso: bool = False,
    threads: Optional[int] = None,
    induced_order: Optional[Poset] = None,
) -> EnumerationResult:
    """All effect algebras on n labeled elements with 0 first and 1 last.

    With `up_to_iso` the algebra list keeps one representative per
    isomorphism class, the first labeled member (counts for both modes are
    always computed).  Every listed algebra carries the canonical form of
    the base table it was moved from, which is its own, so `canonical_form`
    reads it without a search.  With `induced_order` only tables inducing
    exactly that order are produced.  `threads` is accepted and ignored,
    like the CLI's `THREADS`: the search runs in one process.  A table the
    search completes is valid by construction, and one of the restricted
    search induces exactly the given order: see `_restricted_tables`.  The
    free mode lists n up to 8 and the restricted mode up to 10; the free
    mode's counts alone reach 10 (`unsharp enumerate`).
    """
    if induced_order is None:
        if not 2 <= n <= MAX_LISTED:
            raise ValueError(f"unrestricted listing supports 2..{MAX_LISTED} elements")
        groups, labels = _free_types(n), _default_labels(n)
        tables = _free_tables(groups)
    else:
        if induced_order.n != n:
            raise ValueError("order carrier differs from n")
        if not 2 <= n <= MAX_SEARCH:
            raise ValueError(f"restricted search supports 2..{MAX_SEARCH} elements")
        found, nodes = _restricted_tables(induced_order)
        labels = induced_order.labels
        forms = _forms(labels, found)
        groups = [([tuple(range(n))], found, forms, nodes)]
        tables = list(zip(found, forms))
    labeled, iso, nodes = _counts(groups)
    # the listing: with up_to_iso each class keeps its first labeled member;
    # each algebra carries the form of the base table it was moved from
    firsts: dict = {}
    for i, (tab, form) in enumerate(tables):
        firsts.setdefault(form if up_to_iso else i, (i, tab, form))
    algebras = []
    for i, tab, form in firsts.values():
        E = EffectAlgebra(labels, tab, 0, n - 1, f"EA{n}-{i}")
        E.__dict__[_FORM] = form
        algebras.append(E)
    return EnumerationResult(n, algebras, labeled, iso, up_to_iso, nodes)


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
    """Completed tables whose complements and definedness fit p, in the free
    listing's order, and the node count.

    Each is valid by construction (see the module docstring) and induces
    exactly p.  In an effect algebra a <= b iff a + b' is defined (Foulis
    and Bennett 1994), and b' = inv(b) here, so it suffices that x + y is
    defined iff x <= inv(y) in p.  The presets at the bounds agree, as 0 is
    p's bottom and 1 its top; an interior cell is preset undefined unless
    x <= inv(y), and otherwise it is preset to 1 or free, and a free cell
    never takes undefined.  No preset breaks associativity, so none is checked:
    decided interior cells hold 1 or undefined, no sum with 1 but 0 + 1 is
    defined, so for a, b, c >= 1 no decided a + b is interior, and (a + b) + c
    and a + (b + c) are undefined or undecided once a + b or b + c is decided.
    """
    n = p.n
    if p.bottom != 0 or p.top != n - 1:
        raise ValueError("restricted search expects bottom 0 and top n-1")
    values = p.full_bits & ~(1 << p.top) & ~(1 << p.bottom)
    tables: list = []
    nodes = 0
    for inv in _antitone_involutions(p):
        t, w = _complement_state(n, inv)  # undefined cells leave w as it is
        # x + y is defined exactly when x <= y'; all those cells but x + x' get a value
        free = []
        for x, y in itertools.combinations_with_replacement(range(1, n - 1), 2):
            if not p.leq(x, inv[y]):
                t[x][y] = t[y][x] = UNDEF
            elif t[x][y] == UNKNOWN:
                free.append((x, y))
        choices = [tuple(iter_bits(p.up[x] & p.up[y] & values)) for x, y in free]
        nodes += _search(t, w, free, choices, 0, n, tables)
    return sorted(tables, key=_listing_key), nodes


# -- isomorphism ------------------------------------------------------------


def relabel(E: EffectAlgebra, perm, name: Optional[str] = None) -> EffectAlgebra:
    """Transport the algebra along perm (perm[old] = new).  An isomorphism keeps
    the table valid, so it goes to the EffectAlgebra constructor unvalidated."""
    if sorted(perm) != list(range(E.n)):
        raise ValueError("not a permutation")
    labels = tuple(E.labels[x] for x in sorted(range(E.n), key=perm.__getitem__))
    sums = _mover(perm)(tuple(itertools.chain.from_iterable(E.sums)))
    return EffectAlgebra(labels, sums, perm[E.zero], perm[E.one], name or E.name)


def _ranks(keys: list) -> list[int]:
    'Each key replaced by the number of distinct keys below it.'
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _canonical_labeling(E: EffectAlgebra) -> tuple[tuple, list[int]]:
    """(form, slot): the least encoding over the leaves of an
    individualization-refinement search, and the labeling (slot[x] = the new
    index of x) whose relabeled table it encodes.

    Colours start as the ranks of (|L(x)|, |U(x)|, x' = x), which puts 0
    first and 1 last, and are refined by the multiset of (colour of y,
    colour of x + y) over the defined sums until no class splits; the old
    colour leads each key, so classes split in place (and a round that
    splits none leaves every colour as it was), and colours stay ranks
    below n, so c(y) * n + c(x + y) codes a pair without collision.
    A colouring that is not discrete individualizes each member of its first
    smallest non-singleton class in turn, that member going first in its
    class; a discrete one is a leaf and encodes the table relabeled by it,
    row by row, with n for undefined.  Two leaves with equal encodings give
    an automorphism that fixes the path they share: the later leaf's branch
    off that path is the image of one searched before and is left, and a
    sibling is skipped when the automorphisms found so far that fix the path
    carry an explored sibling onto it.  See McKay and Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60 (2014).
    """
    n, sums, up, down = E.n, E.sums, E.order.up, E.order.down
    # ranked as the tuples (|L(x)|, |U(x)|, x' = x) would be, as |U(x)| <= n
    colour = _ranks([(down[x].bit_count() * (n + 1) + up[x].bit_count()) * 2
                     + (E.comp[x] == x) for x in range(n)])
    best: list = []  # encoding, slot, its inverse and the path of the least leaf so far
    autos: list = []  # automorphisms g, g[x] the image of x

    def visit(colour: list[int], path: tuple) -> int:
        'Search below one node; the depth to resume at, len(path) unless a branch is left.'
        count = 0
        while count < (k := max(colour) + 1) < n:
            count, sizes = k, [0] * k
            for c in colour:
                sizes[c] += 1
            colour = _ranks([
                (c, *sorted([colour[y] * n + colour[s]
                             for y, s in enumerate(row) if s is not None]))
                if sizes[c] > 1 else (c,)  # a singleton class cannot split
                for c, row in zip(colour, sums)
            ])
        if k == n:
            order = sorted(range(n), key=colour.__getitem__)
            code = tuple([n if (s := row[y]) is None else colour[s]
                          for row in map(sums.__getitem__, order) for y in order])
            if not best or code < best[0]:
                best[:] = code, colour, order, path
            elif code == best[0]:
                autos.append([best[2][c] for c in colour])
                return next(i for i, (p, q) in enumerate(zip(path, best[3])) if p != q)
            return len(path)
        # the last round split nothing, so sizes counts the classes of colour
        _, t = min((size, c) for c, size in enumerate(sizes) if size > 1)
        explored: list[int] = []
        for v in (x for x, c in enumerate(colour) if c == t):
            fixing = [g for g in autos if all(g[p] == p for p in path)]
            orbit, grow = set(explored), list(explored)
            while grow:  # the explored siblings' orbit under the path-fixing automorphisms
                u = grow.pop()
                images = {g[u] for g in fixing} - orbit
                orbit |= images
                grow += images
            if v in orbit:
                continue
            explored.append(v)
            child = [c + (c > t or (c == t and x != v)) for x, c in enumerate(colour)]
            back = visit(child, (*path, v))
            if back < len(path):
                return back
        return len(path)

    visit(colour, ())
    return (n, *best[0]), best[1]


def canonical_form(E: EffectAlgebra) -> tuple:
    """A relabeling-invariant encoding, equal for two algebras exactly when they
    are isomorphic.  An algebra the enumerator lists carries its own; any
    other runs the labeling search."""
    return E.__dict__.get(_FORM) or _canonical_labeling(E)[0]


def find_isomorphism(E1: EffectAlgebra, E2: EffectAlgebra) -> Optional[tuple]:
    """A 0,1-fixing bijection transporting one sum table onto the other:
    E1's canonical labeling followed by the inverse of E2's."""
    (form1, slot1), (form2, slot2) = _canonical_labeling(E1), _canonical_labeling(E2)
    if form1 != form2:
        return None
    where = sorted(range(E2.n), key=slot2.__getitem__)
    return tuple(where[c] for c in slot1)


def is_isomorphic(E1: EffectAlgebra, E2: EffectAlgebra) -> bool:
    return find_isomorphism(E1, E2) is not None
