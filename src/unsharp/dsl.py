"""Line-oriented text format for effect algebras, plus table/graph emitters.

A document looks like

    # three-element chain
    algebra C3
    elements 0 m 1
    zero 0
    one 1
    sum m m = 1

with one `sum` line per unordered pair (symmetry and the zero row are
filled in automatically) and optional `complement X = Y` declarations that
are cross-checked against the sums.  Parsing reports line and column for
every complaint; re-emitting a parsed document reproduces it up to
whitespace and comments.
"""

from __future__ import annotations

import io
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .algebra import EffectAlgebra, InvalidAlgebraError, validate_tables
from .reports import ValidationReport

if TYPE_CHECKING:
    from .implication import ImplicationTable


class DslError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SumEntry(NamedTuple):
    x: str
    y: str
    value: str
    line: int


class CompEntry(NamedTuple):
    x: str
    y: str
    line: int


def __getattr__(name: str):
    'Build the `AlgebraSpec` dataclass on first use (PEP 562): only `parse_spec` makes one.'
    if name != "AlgebraSpec":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import dataclass, field

    @dataclass
    class AlgebraSpec:
        name: str
        labels: tuple[str, ...]
        zero: str
        one: str
        sums: list[SumEntry] = field(default_factory=list)
        comps: list[CompEntry] = field(default_factory=list)

    AlgebraSpec.__qualname__ = name
    return globals().setdefault(name, AlgebraSpec)


def _column(line: str, i: int) -> int:
    'The 1-based column where the i-th whitespace-separated word of `line` starts.'
    start = end = 0
    for word in line.split()[: i + 1]:
        start = line.index(word, end)
        end = start + len(word)
    return start + 1


def parse_spec(text: str) -> AlgebraSpec:
    return sys.modules[__name__].AlgebraSpec(*_parse(text))  # built once, by __getattr__


def _parse(text: str) -> tuple:
    "The fields of the document's `AlgebraSpec`: name, labels, zero, one, sums, comps."
    name: Optional[str] = None
    labels: Optional[tuple[str, ...]] = None
    members: frozenset[str] = frozenset()  # the labels, once declared
    bounds: dict[str, str] = {}  # "zero" and "one", as declared
    comps: list[CompEntry] = []
    seen_pairs: dict[tuple[str, str], SumEntry] = {}  # keyed by the sorted pair
    seen_comp: dict[str, CompEntry] = {}

    def known(words: list[str], i: int, lineno: int, line: str):
        if labels is None:
            raise DslError("elements must be declared first", lineno)
        label = words[i]
        if label not in labels:
            raise DslError(f"unknown label {label!r}", lineno, _column(line, i))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        head = words[0]
        if head == "algebra":
            if len(words) != 2:
                raise DslError("expected: algebra NAME", lineno)
            if name is not None:
                raise DslError("algebra declared twice", lineno)
            name = words[1]
        elif head == "elements":
            if labels is not None:
                raise DslError("elements declared twice", lineno)
            if len(words) < 2:
                raise DslError("expected at least one element label", lineno)
            if len(set(words[1:])) != len(words) - 1:
                dup = next(w for w in words[1:] if words[1:].count(w) > 1)
                second = words.index(dup, words.index(dup, 1) + 1)
                raise DslError(f"duplicate label {dup!r}", lineno, _column(line, second))
            labels = tuple(words[1:])
            members = frozenset(labels)
        elif head in ("zero", "one"):
            if len(words) != 2:
                raise DslError(f"expected: {head} LABEL", lineno)
            known(words, 1, lineno, line)
            if head in bounds:
                raise DslError(f"{head} declared twice", lineno)
            bounds[head] = words[1]
        elif head == "sum":
            if len(words) != 5 or words[3] != "=":
                raise DslError("expected: sum X Y = Z", lineno)
            x, y, value = words[1], words[2], words[4]
            if not (x in members and y in members and value in members):
                for i in (1, 2, 4):
                    known(words, i, lineno, line)
            pair = (x, y) if x <= y else (y, x)
            if (prev := seen_pairs.get(pair)) is not None:
                what = "conflicting" if prev.value != value else "duplicate"
                raise DslError(
                    f"{what} sum for {x}+{y} (first given on line {prev.line})",
                    lineno,
                    _column(line, 1),
                )
            seen_pairs[pair] = SumEntry(x, y, value, lineno)
        elif head == "complement":
            if len(words) != 4 or words[2] != "=":
                raise DslError("expected: complement X = Y", lineno)
            x, y = words[1], words[3]
            known(words, 1, lineno, line)
            known(words, 3, lineno, line)
            for lab, other in ((x, y), (y, x)):
                if lab in seen_comp and _comp_partner(seen_comp[lab], lab) != other:
                    raise DslError(
                        f"conflicting complement for {lab} "
                        f"(first given on line {seen_comp[lab].line})",
                        lineno,
                    )
            entry = CompEntry(x, y, lineno)
            seen_comp[x] = seen_comp[y] = entry
            comps.append(entry)
        else:
            raise DslError(f"unknown directive {head!r}", lineno)

    if labels is None:
        raise DslError("missing elements declaration", max(1, text.count("\n") + 1))
    for what in ("zero", "one"):
        if what not in bounds:
            raise DslError(f"missing {what} declaration", text.count("\n") + 1)
    return name or "E", labels, bounds["zero"], bounds["one"], list(seen_pairs.values()), comps


def _comp_partner(entry: CompEntry, label: str) -> str:
    return entry.y if entry.x == label else entry.x


def spec_report(spec: AlgebraSpec) -> ValidationReport:
    'Run the declared tables through the axiom checker.'
    return _report(spec.name, spec.labels, spec.zero, spec.one, spec.sums, spec.comps)


def _report(name, labels, zero, one, entries, comps) -> ValidationReport:
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    sums: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for e in entries:
        x, y, v = index[e.x], index[e.y], index[e.value]
        sums[x][y] = v
        sums[y][x] = v
    declared = None
    if comps:
        declared = {}
        for e in comps:
            declared[index[e.x]] = index[e.y]
            declared[index[e.y]] = index[e.x]
    return validate_tables(
        labels, sums, index[zero], index[one], declared_comp=declared, name=name,
    )


def load_algebra(text: str) -> EffectAlgebra:
    'Parse and validate in one step; raises DslError or InvalidAlgebraError.'
    # straight from the parsed fields: building an `AlgebraSpec` would import `dataclasses`
    report = _report(*_parse(text))
    if not report.ok:
        raise InvalidAlgebraError(report)
    return report.algebra


def emit_spec(source: Union[AlgebraSpec, EffectAlgebra]) -> str:
    body: list[str]
    if isinstance(source, EffectAlgebra):
        E = source
        name, labels = E.name, E.labels
        zero, one = labels[E.zero], labels[E.one]
        body = [
            f"sum {labels[x]} {labels[y]} = {labels[v]}"
            for x in range(E.n)
            if x != E.zero
            for y in range(x, E.n)
            if y != E.zero and (v := E.sums[x][y]) is not None
        ]
    else:
        name, labels, zero, one = source.name, source.labels, source.zero, source.one
        body = [f"sum {e.x} {e.y} = {e.value}" for e in source.sums]
        body += [f"complement {e.x} = {e.y}" for e in source.comps]
    lines = [f"algebra {name}", "elements " + " ".join(labels), f"zero {zero}", f"one {one}"]
    return "\n".join(lines + body) + "\n"


def emit_dot(E: EffectAlgebra) -> str:
    'Hasse diagram of the induced order as a DOT digraph, bottom to top.'
    # inside a quoted DOT ID a backslash escapes the next character, so a
    # backslash is doubled before a double quote is escaped
    name, *labels = (s.replace("\\", "\\\\").replace('"', r'\"') for s in (E.name, *E.labels))
    out = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for lab in labels:
        out.append(f'  "{lab}";')
    for lo, hi in E.order.hasse_edges():
        out.append(f'  "{labels[lo]}" -> "{labels[hi]}";')
    out.append("}")
    return "\n".join(out) + "\n"


def emit_table(
    source: Union[ImplicationTable, EffectAlgebra], format: str = "aligned"
) -> str:
    if isinstance(source, EffectAlgebra):
        E, corner = source, "+"
        rows = [
            [E.labels[x], *("-" if s is None else E.labels[s] for s in row)]
            for x, row in enumerate(E.sums)
        ]
    else:
        E, corner = source.algebra, "->"
        rows = [
            [E.labels[x], *(E.render(source[x, y]) for y in range(E.n))]
            for x in range(E.n)
        ]
    header = [corner, *E.labels]
    if format == "csv":
        import csv  # only here: the other commands need not load it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if format != "aligned":
        raise ValueError(f"unknown table format {format!r}")
    return aligned_grid([header, *rows])


def aligned_grid(rows: list[list[str]]) -> str:
    'Rows of cells as text: columns padded to their widest cell, two spaces apart.'
    widths = [max(len(r[col]) for r in rows) for col in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )
