import csv
import dataclasses
import io
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import unsharp
from unsharp import (
    AlgebraSpec,
    DslError,
    InvalidAlgebraError,
    emit_dot,
    emit_spec,
    emit_table,
    enumerate_effect_algebras,
    fixture,
    fixture_text,
    implication_table,
    load_algebra,
    parse_spec,
    spec_report,
)
from unsharp.fixtures import BUNDLED, E9_TEXT

GOLDEN = Path(__file__).parent / "golden"


def test_minimal_two_chain():
    spec = parse_spec("algebra T\nelements 0 1\nzero 0\none 1\n")
    assert spec.name == "T" and spec.labels == ("0", "1")
    rep = spec_report(spec)
    assert rep.ok and rep.algebra.n == 2


def test_replace_relabels_a_parsed_spec():
    # the benchmark's corpus set-up moves a parsed document's labels with
    # dataclasses.replace, which is why AlgebraSpec stays a dataclass
    spec = parse_spec(E9_TEXT)
    moved = dataclasses.replace(spec, labels=spec.labels[3:] + spec.labels[:3])
    assert isinstance(moved, AlgebraSpec) and moved.sums == spec.sums
    rep = spec_report(moved)
    assert rep.ok
    E = rep.algebra
    assert E.labels == ("c", "d", "e", "f", "g", "1", "0", "a", "b")
    assert (E.labels[E.zero], E.labels[E.one]) == ("0", "1")


FIRST_SPEC = """\
import sys
from unsharp import dsl
from unsharp.fixtures import E9_TEXT
E = dsl.load_algebra(E9_TEXT)
assert dsl.emit_spec(E) == E9_TEXT and "dataclasses" not in sys.modules
spec = dsl.parse_spec(E9_TEXT)
assert type(spec) is dsl.AlgebraSpec and "dataclasses" in sys.modules
assert dsl.spec_report(spec).algebra.sums == E.sums
"""


def test_algebra_spec_is_one_class_built_on_first_use():
    # `dsl` builds the dataclass when it is first asked for, so loading and
    # emitting a document imports no `dataclasses`; every route to the
    # class then gives the same object
    proc = subprocess.run([sys.executable, "-c", FIRST_SPEC], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spec = parse_spec(E9_TEXT)
    assert type(spec) is AlgebraSpec is unsharp.dsl.AlgebraSpec is unsharp.AlgebraSpec
    assert (AlgebraSpec.__module__, AlgebraSpec.__qualname__) == ("unsharp.dsl", "AlgebraSpec")
    assert dataclasses.is_dataclass(AlgebraSpec) and pickle.loads(pickle.dumps(spec)) == spec
    assert repr(spec).startswith("AlgebraSpec(name='E9', labels=('0', 'a',")
    with pytest.raises(AttributeError, match="module 'unsharp.dsl' has no attribute 'Spec'"):
        unsharp.dsl.Spec


def test_e9_text_parses_to_nine_entries():
    spec = parse_spec(E9_TEXT)
    assert len(spec.labels) == 9
    assert len(spec.sums) == 9  # one orientation per pair, zero row implicit


def test_comments_and_blank_lines():
    text = "# header\nalgebra X # trailing\n\nelements 0 1\nzero 0\none 1\n"
    assert parse_spec(text).name == "X"


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("algebra A\nalgebra B\nelements 0 1\nzero 0\none 1\n", "twice", 2),
        ("elements 0 0\nzero 0\none 0\n", "duplicate label", 1),
        ("elements 0 1\nzero 0\none 1\nsum a 1 = 1\n", "unknown label", 4),
        ("sum a b = c\n", "declared first", 1),
        ("elements 0 1\nzero 0\none 1\nbogus x\n", "unknown directive", 4),
        ("elements 0 1\nzero 0\n", "missing one", 3),
        ("elements 0 x 1\nzero 0\none 1\nsum x x = 1\nsum x x = 1\n", "duplicate sum", 5),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_conflicting_orientations_rejected():
    text = (
        "elements 0 a b e f 1\nzero 0\none 1\n"
        "sum a b = e\nsum b a = f\n"
    )
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert err.value.line == 5 and "conflicting" in str(err.value)


def test_column_diagnostics():
    with pytest.raises(DslError) as err:
        parse_spec("elements 0 1\nzero 0\none 1\nsum 0 q = 1\n")
    assert err.value.line == 4
    assert err.value.column == "sum 0 q = 1".index("q") + 1


@pytest.mark.parametrize(
    "text,line,column",
    [
        # each offending token also occurs earlier on its line, inside another word
        ("elements 0 e e 1\n", 1, 14),
        ("elements 0 a 1\nzero 0\none 1\nsum a u = 1\n", 4, 7),
        ("elements 0 m 1\nzero 0\none 1\nsum m m = 1\nsum m m = m\n", 5, 5),
        ("elements 0 1\nzero e\n", 2, 6),
    ],
)
def test_error_column_is_that_of_the_offending_token(text, line, column):
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert (err.value.line, err.value.column) == (line, column)


HEAD = "elements 0 a b 1\nzero 0\none 1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("zero 0\nsum a b = 1\n", "line 1, column 1: elements must be declared first"),
        (HEAD + "sum q r = s\n", "line 4, column 5: unknown label 'q'"),
        (HEAD + "sum a q = 1\n", "line 4, column 7: unknown label 'q'"),
        (HEAD + "sum a b = q\n", "line 4, column 11: unknown label 'q'"),
        (HEAD + "sum a b = 1\nsum b a = 1\n",
         "line 5, column 5: duplicate sum for b+a (first given on line 4)"),
        (HEAD + "sum a  b = 1 # c\nsum  b a = b\n",
         "line 5, column 6: conflicting sum for b+a (first given on line 4)"),
        (HEAD + "sum a a = 1\nsum a a = b\n",
         "line 5, column 5: conflicting sum for a+a (first given on line 4)"),
    ],
)
def test_sum_line_errors_in_full(text, message):
    # a sum line whose labels are all declared skips the per-word check;
    # any other line still gets it, and an unordered pair is one key
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("algebra\n", "line 1, column 1: expected: algebra NAME"),
        ("algebra A B\n", "line 1, column 1: expected: algebra NAME"),
        ("elements 0 1\nelements 0 1\n", "line 2, column 1: elements declared twice"),
        ("# no labels\nelements\n", "line 2, column 1: expected at least one element label"),
        ("elements 0 1\nzero\n", "line 2, column 1: expected: zero LABEL"),
        ("elements 0 1\none 1 0\n", "line 2, column 1: expected: one LABEL"),
        ("elements 0 1\nzero 0\nzero 0\n", "line 3, column 1: zero declared twice"),
        ("elements 0 1\none 1\none 1\n", "line 3, column 1: one declared twice"),
        (HEAD + "sum a b 1\n", "line 4, column 1: expected: sum X Y = Z"),
        (HEAD + "sum a b - 1\n", "line 4, column 1: expected: sum X Y = Z"),
        (HEAD + "complement a b\n", "line 4, column 1: expected: complement X = Y"),
        (HEAD + "complement a - b\n", "line 4, column 1: expected: complement X = Y"),
        # the last line, or the one after a final line break
        ("", "line 1, column 1: missing elements declaration"),
        ("algebra A\n", "line 2, column 1: missing elements declaration"),
        ("algebra A\n# nothing else", "line 2, column 1: missing elements declaration"),
    ],
)
def test_malformed_directives_in_full(text, message):
    with pytest.raises(DslError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_load_algebra_raises_the_validation_report():
    # the document parses, but m has no orthosupplement
    with pytest.raises(InvalidAlgebraError) as err:
        load_algebra("elements 0 m 1\nzero 0\none 1\n")
    assert str(err.value) == "E3 violated at (1): no orthosupplement"
    assert [str(v) for v in err.value.report.violations] == [str(err.value)]


def test_complement_declarations_checked():
    good = E9_TEXT + "complement a = g\ncomplement d = d\n"
    assert spec_report(parse_spec(good)).ok
    bad = E9_TEXT + "complement a = e\n"
    rep = spec_report(parse_spec(bad))
    assert not rep.ok and rep.violations[0].axiom == "complement"
    with pytest.raises(DslError):
        parse_spec(E9_TEXT + "complement a = g\ncomplement a = e\n")


def test_emit_parse_identity_on_fixtures():
    for name in BUNDLED:
        E = fixture(name)
        F = load_algebra(emit_spec(E))
        assert F.sums == E.sums and F.labels == E.labels and F.comp == E.comp


def test_emit_parse_identity_on_enumerated():
    for n in range(2, 6):
        for E in enumerate_effect_algebras(n).algebras:
            assert load_algebra(emit_spec(E)).sums == E.sums


def test_spec_emit_preserves_text():
    spec = parse_spec(E9_TEXT)
    assert emit_spec(spec) == E9_TEXT


def test_fixture_text_roundtrip():
    for name in BUNDLED:
        assert load_algebra(fixture_text(name)).n == fixture(name).n


def test_golden_implication_table(e9):
    want = (GOLDEN / "e9_implication_table.txt").read_text()
    assert emit_table(implication_table(e9)) == want


def test_table_csv_roundtrip(e6):
    text = emit_table(implication_table(e6), format="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["->", *e6.labels]
    table = implication_table(e6)
    for x in range(e6.n):
        for y in range(e6.n):
            assert rows[x + 1][y + 1] == e6.render(table[x, y])


def test_sum_table_output(e9):
    text = emit_table(e9)
    lines = text.splitlines()
    assert lines[0].split() == ["+", *e9.labels]
    # the d row: d+b=f, d+d=1, everything else (bar zero) undefined
    drow = lines[5].split()
    assert drow[0] == "d" and drow[3] == "f" and drow[5] == "1"
    assert drow[2] == "-"


def test_dot_output():
    dot = emit_dot(fixture("CHAIN-2"))
    assert '"0" -> "1";' in dot
    assert dot.count("->") == 1
    assert dot.startswith('digraph "CHAIN-2"')


def test_unknown_format_rejected(e6):
    with pytest.raises(ValueError):
        emit_table(e6, format="latex")
