"""Known answers the benchmark checks every operation against.

None of these come from the run that is being checked.  They are
theorem-level verdicts, closed forms computed here from the size of a
bundled algebra, counts pinned in the package's own tests and README, and
the checked-in golden implication table of E9.
"""

from __future__ import annotations

import pathlib

HERE = pathlib.Path(__file__).resolve().parent

# labeled algebras with 0 first and 1 last, and their isomorphism classes
CORPUS_COUNTS = {2: 1, 3: 1, 4: 4, 5: 16, 6: 142, 7: 1006}
CORPUS_CLASSES = {2: 1, 3: 1, 4: 3, 5: 4, 6: 10, 7: 14}

# (labeled, up to isomorphism) for the unrestricted search
FREE_COUNTS = {n: (CORPUS_COUNTS[n], CORPUS_CLASSES[n]) for n in CORPUS_COUNTS}
# algebras whose induced order is exactly that of the named fixture
RESTRICTED_COUNTS = {"E9": 2, "CHAIN-10": 1}

# E9 as the README prints it; the cli workload relabels it
E9_TEXT = """\
algebra E9
elements 0 a b c d e f g 1
zero 0
one 1
sum a b = e
sum a c = f
sum a g = 1
sum b b = d
sum b c = g
sum b d = f
sum b f = 1
sum c e = 1
sum d d = 1
"""
E9_ORDER_PAIRS = 33  # pairs x <= y of E9
E9_IMPLIES_E_A = {"c", "f"}
E9_DED = (28, 6)  # deductive systems, atoms
E9_CONTRAPOSITION_FAILURES = 16  # all on incomparable pairs
ENUMERATE_5 = "n=5: 16 labeled, 4 up to isomorphism"


def e9_table() -> dict[tuple[str, str], frozenset]:
    'The golden implication table of E9 as {(x, y): set of labels}.'
    text = (HERE / "answers" / "e9_implication_table.txt").read_text(encoding="utf-8")
    return parse_table(text)


def parse_table(text: str) -> dict[tuple[str, str], frozenset]:
    'Read the aligned output of `unsharp table` back into a mapping.'
    rows = [line.split() for line in text.splitlines() if line.strip()]
    header = rows[0][1:]
    cells = {}
    for row in rows[1:]:
        for y, cell in zip(header, row[1:]):
            cells[row[0], y] = frozenset(filter(None, cell.strip("{}").split(",")))
    return cells


def ded_closed_form(n: int, self_complementary: int) -> tuple[int, int]:
    """(systems, atoms) of an n-element algebra with the given number of
    interior self-complementary elements: 3^k + 1 systems, where k counts
    the interior pairs {x, x'} with x' != x, and one atom {1, x} for every
    interior x with x' != x."""
    paired = n - 2 - self_complementary
    return 3 ** (paired // 2) + 1, paired


def kernel_closed_form(name: str) -> tuple[int, int, int]:
    """Total sizes over all pairs (a, b) of a bundled chain or Boolean algebra:
    |a -> b|, |L(a,b)| + |U(a,b)|, and |L(a') + L(a,b)|.

    On CHAIN-n, a' = n-1-a and the sum of i and j is i+j.  On BOOL-k every
    atom falls in one of four cases (in both, only a, only b, neither); the
    per-atom factors multiply.
    """
    kind, size = name.split("-")
    k = int(size)
    if kind == "BOOL":
        # a -> b = {a' u z : z <= a & b}: factors 2,1,1,1
        # L(a,b) = subsets of a & b, U(a,b) = supersets of a | b: 5^k each
        # L(a') + L(a,b) = subsets of a' u (a & b): factors 2,1,2,2
        return 5**k, 2 * 5**k, 7**k
    rng = range(k)
    imp = sum(min(a, b) + 1 for a in rng for b in rng)
    cones = sum(min(a, b) + 1 + k - max(a, b) for a in rng for b in rng)
    sums = sum(k - a + min(a, b) for a in rng for b in rng)
    return imp, cones, sums
