"""Spans around the benchmark's calls into the package.

A span has a name `<module>.<what>`, a start, an end, a parent and the id
of the operation it belongs to.  Spans stay in memory and are written
with the results when the run ends.  With tracing off, `span` only notes
which call is running, so a failure can be charged to its module.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    op: int
    name: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.current = ""
        self._stack: list[int] = []
        self._op = -1

    def span(self, name: str):
        self.current = name
        if not self.enabled:
            return _NULL
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.current = ""

    def call(self, name: str, fn, *args, **kwargs):
        'Run fn(*args, **kwargs) inside a span called `name`.'
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    'Each span minus the time its direct children cover.'
    own = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.duration
    return own
