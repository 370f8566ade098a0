"""Result containers shared by the validators and law checkers.

The records are NamedTuples: a class statement builds one without the
generated-code `exec` a dataclass runs at import."""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional


class Violation(NamedTuple):
    """A broken axiom or condition, with the first witness that broke it."""

    axiom: str
    witness: tuple
    message: str = ""

    def __str__(self):
        w = ",".join(str(x) for x in self.witness)
        msg = f": {self.message}" if self.message else ""
        return f"{self.axiom} violated at ({w}){msg}"


class ValidationReport(NamedTuple):
    """Outcome of a structural validation run.

    `algebra` holds the validated structure (an effect algebra, or a
    residuated poset) and is populated only when no violations were found.
    """

    violations: list[Violation]
    algebra: Any = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def first(self, axiom: str) -> Optional[Violation]:
        for v in self.violations:
            if v.axiom == axiom:
                return v
        return None


class ClauseResult(NamedTuple):
    """One clause of a multi-clause property check."""

    clause: str
    passed: bool
    witness: Optional[tuple] = None
    skipped: bool = False
    detail: str = ""


def _check(name: str, n: int, arity: int, holds, quick=None, key=None) -> ClauseResult:
    """A clause over all tuples of the carrier; the witness is the first failing one.

    `quick`, when given, decides the clause on a reduced set of cases; when
    it passes the scan is skipped, and when it fails the scan finds the witness.
    `key`, given for a clause on pairs, maps a to the n keys of row a, one
    per b, each standing for everything `holds(a, b)` reads of b.  The row's
    distinct keys are found at C speed and `holds` runs once per key, in the
    order the keys first appear in the row, on some b of that key; the first
    key to fail names its first b, so the witness is still the first one.
    """
    if quick is not None and quick():
        return ClauseResult(name, True, None)
    if key is None:
        wit = next((t for t in itertools.product(range(n), repeat=arity) if not holds(*t)), None)
        return ClauseResult(name, wit is None, wit)
    for a in range(n):
        for k, b in dict(zip(key(a), range(n))).items():
            if not holds(a, b):
                return ClauseResult(name, False, (a, list(key(a)).index(k)))
    return ClauseResult(name, True, None)


class PropertyReport(NamedTuple):
    """Pass/fail per clause; at most one (lexicographically first) witness each."""

    name: str
    clauses: list[ClauseResult]

    @property
    def ok(self) -> bool:
        return all(c.passed or c.skipped for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def failures(self) -> list[ClauseResult]:
        return [c for c in self.clauses if not c.passed and not c.skipped]


class LawViolation(NamedTuple):
    """A pair breaking a global law, with both evaluated sides."""

    x: int
    y: int
    lhs: Any
    rhs: Any
    comparable: bool


class LawReport(NamedTuple):
    """Global status of a binary law over all element pairs."""

    law: str
    failing_pairs: list[LawViolation]
    comparable_only_status: bool = True  # law held on every comparable pair

    @property
    def holds_globally(self) -> bool:
        return not self.failing_pairs
