"""Result containers shared by the validators and law checkers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Violation:
    """A broken axiom or condition, with the first witness that broke it."""

    axiom: str
    witness: tuple
    message: str = ""

    def __str__(self):
        w = ",".join(str(x) for x in self.witness)
        msg = f": {self.message}" if self.message else ""
        return f"{self.axiom} violated at ({w}){msg}"


@dataclass
class ValidationReport:
    """Outcome of a structural validation run.

    `algebra` holds the validated structure (an effect algebra, or a
    residuated poset) and is populated only when no violations were found.
    """

    violations: list[Violation] = field(default_factory=list)
    algebra: Any = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def first(self, axiom: str) -> Optional[Violation]:
        for v in self.violations:
            if v.axiom == axiom:
                return v
        return None


@dataclass
class ClauseResult:
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
    `key`, when given, maps a tuple to everything `holds` reads of it, so
    `holds` runs once per distinct key, for this call only; the scan still
    walks the tuples in order, so the witness is unchanged.
    """
    if quick is not None and quick():
        return ClauseResult(name, True, None)
    if key is not None:
        verdicts: dict = {}

        def decide(*t):
            k = key(*t)
            v = verdicts.get(k)
            if v is None:
                v = verdicts[k] = holds(*t)
            return v
    else:
        decide = holds
    wit = next(
        (t for t in itertools.product(range(n), repeat=arity) if not decide(*t)), None
    )
    return ClauseResult(name, wit is None, wit)


@dataclass
class PropertyReport:
    """Pass/fail per clause; at most one (lexicographically first) witness each."""

    name: str
    clauses: list[ClauseResult] = field(default_factory=list)

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


@dataclass
class LawViolation:
    """A pair breaking a global law, with both evaluated sides."""

    x: int
    y: int
    lhs: Any
    rhs: Any
    comparable: bool


@dataclass
class LawReport:
    """Global status of a binary law over all element pairs."""

    law: str
    failing_pairs: list[LawViolation] = field(default_factory=list)
    comparable_only_status: bool = True  # law held on every comparable pair

    @property
    def holds_globally(self) -> bool:
        return not self.failing_pairs
