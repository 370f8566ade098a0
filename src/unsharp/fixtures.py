"""Bundled algebras: the two worked nine- and six-element examples, finite
Boolean algebras, and chains.  Names accepted everywhere a file is:
E9, E6, BOOL-1 .. BOOL-6, CHAIN-2 .. CHAIN-64.
"""

from __future__ import annotations

from .algebra import EffectAlgebra
from .dsl import emit_spec, load_algebra

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

E6_TEXT = """\
algebra E6
elements 0 a a' b b' 1
zero 0
one 1
sum a a' = 1
sum b b' = 1
"""

BUNDLED = ("E9", "E6", "BOOL-1", "BOOL-2", "BOOL-3", "CHAIN-3", "CHAIN-4")


def _chain(n: int) -> EffectAlgebra:
    if not 2 <= n <= 64:
        raise ValueError("chain size out of range (2..64)")
    labels = ("0",) + tuple(f"a{i}" for i in range(1, n - 1)) + ("1",)
    sums = [[i + j if i + j <= n - 1 else None for j in range(n)] for i in range(n)]
    return EffectAlgebra.from_tables(labels, sums, 0, n - 1, name=f"CHAIN-{n}")


def boolean_to_ea(k: int) -> EffectAlgebra:
    """The Boolean algebra on k atoms as an effect algebra.

    x + y is the union of disjoint atom sets; everything else is undefined.
    """
    if not 1 <= k <= 6:
        raise ValueError("atom count outside 1..6")
    n = 1 << k
    atoms = "pqrstu"[:k]

    def label(mask: int) -> str:
        if mask == 0:
            return "0"
        if mask == n - 1:
            return "1"
        return "".join(atoms[i] for i in range(k) if mask >> i & 1)

    labels = [label(m) for m in range(n)]
    sums = [
        [x | y if x & y == 0 else None for y in range(n)] for x in range(n)
    ]
    return EffectAlgebra.from_tables(labels, sums, 0, n - 1, name=f"BOOL-{k}")


_TEXTS = {"E9": E9_TEXT, "E6": E6_TEXT}


def fixture(name: str) -> EffectAlgebra:
    if name in _TEXTS:
        return load_algebra(_TEXTS[name])
    for prefix, build in (("BOOL-", boolean_to_ea), ("CHAIN-", _chain)):
        if name.startswith(prefix):
            digits = name[len(prefix):]
            try:
                size = int(digits)
            except ValueError:
                size = None
            if size is None or str(size) != digits:  # only the plain ASCII spelling
                raise ValueError(f"bad fixture name {name!r}")
            return build(size)
    raise ValueError(f"unknown fixture {name!r}")


def fixture_text(name: str) -> str:
    if name in _TEXTS:
        return _TEXTS[name]
    return emit_spec(fixture(name))
