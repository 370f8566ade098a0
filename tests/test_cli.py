import os
import re
import subprocess
import sys
import time

import pytest

import unsharp
from unsharp import fixture, fixture_text, laws, load_algebra, residuation
from unsharp.cli import SUITES, main, run_suite
from unsharp.fixtures import BUNDLED, E9_TEXT
from unsharp.reports import ValidationReport
from unsharp.residuation import RoundtripResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "fixture:E9")
    assert code == 0 and "valid effect algebra with 9 elements" in out


def test_validate_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.ea"
    bad.write_text("algebra B\nelements 0 m 1\nzero 0\none 1\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1 and "E3" in out


def test_parse_error_exit_code(tmp_path, capsys):
    doc = tmp_path / "syntax.ea"
    doc.write_text("elements 0 1\nzero 0\none 1\nsum q q = 1\n")
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2 and "unknown label" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.ea")
    assert code == 2


def test_directory_as_file(tmp_path, capsys):
    # an unreadable path is a usage problem (2), not a failed check (1)
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Is a directory" in err


def test_enumerate_emit_onto_a_file(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = run(capsys, "enumerate", "3", "--emit", str(target))
    assert code == 2
    assert out == ""  # the path fails before the search prints its counts
    assert err.count("\n") == 1 and "File exists" in err


def test_enumerate_out_of_range_creates_no_emit_directory(tmp_path, capsys):
    # the labeled listing stops at 8, the class listing and the search at 10
    target = tmp_path / "out"
    labeled, classes = ["--emit", str(target)], ["--up-to-iso", "--emit", str(target)]
    listing, search = ("--emit without --up-to-iso lists 2..8 elements",
                       "unrestricted search supports 2..10 elements")
    for n, flags, message in [("9", labeled, listing), ("10", labeled, listing),
                              ("11", labeled, search), ("11", classes, search),
                              ("1", labeled, search), ("1", classes, search)]:
        code, out, err = run(capsys, "enumerate", n, *flags)
        assert code == 2 and out == ""
        assert err == message + "\n"
        assert not target.exists()


def test_enumerate_up_to_iso_emits_each_class_past_eight(tmp_path, capsys):
    # one file per class, named EA9-c0 ... EA9-c59, each a valid algebra
    code, out, err = run(capsys, "enumerate", "9", "--up-to-iso", "--emit", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == f"n=9: 165544 labeled, 60 up to isomorphism\nwrote 60 files to {tmp_path}\n"
    names = sorted(f.stem for f in tmp_path.glob("*.ea"))
    assert names == sorted(f"EA9-c{k}" for k in range(60))
    for name in names:
        assert run(capsys, "validate", str(tmp_path / f"{name}.ea"))[0] == 0, name


@pytest.mark.parametrize(
    "flags", [[], ["--count-only"], ["--up-to-iso"], ["--up-to-iso", "--count-only"],
              ["--count-only", "--emit"]],
)
def test_enumerate_count_modes_reach_ten(tmp_path, capsys, monkeypatch, flags):
    # the count modes take N up to 10 and refuse 11, and ask the library
    # for the classes; the search itself is pinned in test_enumeration.py and
    # at n = 10 in a CI step
    import unsharp.enumeration as enumeration

    asked = []

    def classes(n, up_to_iso=False):
        asked.append((n, up_to_iso))
        return enumeration.EnumerationResult(n, [], n, 1, up_to_iso, 0)

    monkeypatch.setattr(enumeration, "enumerate_effect_algebras", classes)
    target = tmp_path / "out"
    argv = [a for f in flags for a in ((f, str(target)) if f == "--emit" else (f,))]
    code, out, err = run(capsys, "enumerate", "10", *argv)
    assert (code, out, err) == (0, "n=10: 10 labeled, 1 up to isomorphism\n", "")
    code, out, err = run(capsys, "enumerate", "11", *argv)
    assert (code, out, err) == (2, "", "unrestricted search supports 2..10 elements\n")
    assert asked == [(10, True)] and not target.exists()


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "fixture", "NOPE")
    assert code == 2 and "unknown fixture" in err


@pytest.mark.parametrize(
    "name", ["CHAIN-1_0", "CHAIN-05", "CHAIN- 5", "BOOL-+3", "CHAIN-\u0665", "CHAIN-"]
)
def test_fixture_size_must_be_plain_ascii_decimal(capsys, name):
    for argv in (["fixture", name], ["check", f"fixture:{name}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"bad fixture name {name!r}\n"


def test_fixture_prints_document(capsys):
    code, out, _ = run(capsys, "fixture", "E6")
    assert code == 0 and out.startswith("algebra E6")


FIXTURE_NAMES = ("E9", "E6", *(f"BOOL-{k}" for k in range(1, 7)),
                 *(f"CHAIN-{n}" for n in range(2, 65)))


def test_every_fixture_is_the_algebra_its_document_parses_to():
    # `fixture:NAME` loads the bundled algebra without emitting and
    # re-parsing its document, so the two must not be told apart
    for name in FIXTURE_NAMES:
        E, F = fixture(name), load_algebra(fixture_text(name))
        assert (E.labels, E.sums, E.zero, E.one, E.name) == (F.labels, F.sums, F.zero, F.one, F.name)


@pytest.mark.parametrize("name", BUNDLED)
def test_fixture_source_prints_what_its_document_prints(tmp_path, capsys, name):
    # every file command, through main, on `fixture:NAME` and on the file
    # `unsharp fixture NAME` writes: the same stdout, stderr and exit code
    code, text, _ = run(capsys, "fixture", name)
    assert code == 0
    doc = tmp_path / "doc.ea"
    doc.write_text(text, encoding="utf-8")
    labels = fixture(name).labels
    x, y = labels[1], labels[-2]
    commands = [
        ["validate"], ["order"], ["order", "--dot"], ["implies", x, y], ["table"],
        ["table", "--sums", "--format", "csv"], ["residuate", "--roundtrip"], ["ded"],
        ["ded", "--atoms"], ["ded", "--enumerate"], ["ded", "--generate", x], ["laws"], ["check"],
    ]
    for cmd, *rest in commands:
        on_fixture = run(capsys, cmd, f"fixture:{name}", *rest)
        assert on_fixture == run(capsys, cmd, str(doc), *rest), (cmd, rest)
        assert on_fixture[0] == 0, (cmd, rest)


def test_order_and_dot(capsys):
    code, out, _ = run(capsys, "order", "fixture:E6")
    assert code == 0 and out.splitlines()[0].split() == ["<=", "0", "a", "a'", "b", "b'", "1"]
    code, out, _ = run(capsys, "order", "fixture:E6", "--dot")
    assert code == 0 and out.startswith("digraph")


def test_dot_escapes_double_quotes(capsys, tmp_path):
    doc = tmp_path / "quoted.ea"
    doc.write_text('algebra Q"x\nelements 0 a"b 1\nzero 0\none 1\nsum a"b a"b = 1\n')
    code, out, _ = run(capsys, "order", str(doc), "--dot")
    assert code == 0 and out == (
        'digraph "Q\\"x" {\n  rankdir=BT;\n  "0";\n  "a\\"b";\n  "1";\n'
        '  "0" -> "a\\"b";\n  "a\\"b" -> "1";\n}\n'
    )


def test_dot_escapes_backslashes(capsys, tmp_path):
    # a trailing backslash would otherwise escape the closing quote
    doc = tmp_path / "backslash.ea"
    doc.write_text("algebra Q\\\nelements 0 a\\ 1\nzero 0\none 1\nsum a\\ a\\ = 1\n")
    code, out, _ = run(capsys, "order", str(doc), "--dot")
    assert code == 0 and out == (
        'digraph "Q\\\\" {\n  rankdir=BT;\n  "0";\n  "a\\\\";\n  "1";\n'
        '  "0" -> "a\\\\";\n  "a\\\\" -> "1";\n}\n'
    )


def test_implies(capsys):
    code, out, _ = run(capsys, "implies", "fixture:E9", "e", "a")
    assert code == 0 and out.strip() == "{c,f}"
    code, _, err = run(capsys, "implies", "fixture:E9", "q", "a")
    assert code == 2


def test_table_formats(capsys):
    code, out, _ = run(capsys, "table", "fixture:E9")
    assert code == 0 and out.splitlines()[0].startswith("->")
    code, out, _ = run(capsys, "table", "fixture:E9", "--sums", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "+,0,a,b,c,d,e,f,g,1"


def test_residuate(capsys):
    code, out, _ = run(capsys, "residuate", "fixture:E9", "--roundtrip")
    assert code == 0
    assert "C3: ok" in out and "C5 (divisibility): True" in out and "roundtrip: ok" in out


def test_ded_outputs(capsys):
    code, out, _ = run(capsys, "ded", "fixture:E9")
    assert code == 0 and "28 deductive systems, 6 atoms" in out
    code, out, _ = run(capsys, "ded", "fixture:E9", "--enumerate")
    assert code == 0 and len(out.splitlines()) == 28
    code, out, _ = run(capsys, "ded", "fixture:E9", "--atoms")
    assert out.splitlines()[0] == "{a,1}"
    code, out, _ = run(capsys, "ded", "fixture:E9", "--generate", "a,g")
    assert out.strip() == "{0,a,b,c,d,e,f,g,1}"


def test_every_file_command_on_a_one_element_carrier(tmp_path, capsys):
    # {1} is the whole carrier: zero and one coincide
    doc = tmp_path / "one.ea"
    doc.write_text("elements 0\nzero 0\none 0\n")
    for command in ("validate", "order", "implies", "table", "residuate", "ded", "laws", "check"):
        extra = ("0", "0") if command == "implies" else ()
        code, _, err = run(capsys, command, str(doc), *extra)
        assert (code, err) == (0, ""), command
    assert run(capsys, "ded", str(doc)) == (0, "1 deductive systems, 0 atoms\n", "")
    assert run(capsys, "ded", str(doc), "--enumerate") == (0, "{0}\n", "")


def test_laws_output(capsys):
    code, out, _ = run(capsys, "laws", "fixture:E9", "--contraposition")
    assert code == 0 and "16 failing pairs" in out
    assert "a d: {g,1} != {f,1} (incomparable)" in out
    code, out, _ = run(capsys, "laws", "fixture:E6", "--identity1")
    assert code == 0 and "a b: {a'} != {b}" in out
    code, out, _ = run(capsys, "laws", "fixture:E9", "--monotonous", "--intro-adjointness")
    assert code == 0 and "monotonous: no" in out and "fails at (a,f,0)" in out


def test_laws_identity_skipped_off_lattice(capsys):
    code, out, _ = run(capsys, "laws", "fixture:E9", "--identity1")
    assert code == 0 and "not a lattice" in out


def test_enumerate_counts_and_emit(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "4", "--count-only")
    assert code == 0 and "4 labeled, 3 up to isomorphism" in out
    outdir = tmp_path / "algs"
    code, out, _ = run(capsys, "enumerate", "4", "--up-to-iso", "--emit", str(outdir))
    assert code == 0
    files = sorted(outdir.glob("*.ea"))
    assert len(files) == 3


def test_check_all_fixtures(capsys):
    for name in BUNDLED:
        code, out, _ = run(capsys, "check", f"fixture:{name}")
        assert code == 0, (name, out)
        assert out.count(": pass") == 7


def test_check_suite_selection(capsys):
    code, out, _ = run(capsys, "check", "fixture:E9", "--suite", "th2,roundtrip")
    assert code == 0 and out == "th2: pass\nroundtrip: pass\n"
    code, _, err = run(capsys, "check", "fixture:E9", "--suite", "wrong")
    assert code == 2
    # an explicit empty name is refused like any unknown one; no --suite runs all
    for value in ("", "th2,"):
        code, out, err = run(capsys, "check", "fixture:E9", "--suite", value)
        assert (code, out) == (2, "")
        assert err == "unknown suite ''; choose from lemma1,lemma2,th2,th4,c1-c5,th3,roundtrip\n"


def run_usage(capsys, *argv):
    'Like run, for a line main may refuse or answer with help: the code is returned or raised.'
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


USAGE_ERRORS = [
    [], ["bogus", "fixture:E9"],  # no command, an unknown one
    ["implies", "fixture:E9", "e"], ["validate", "fixture:E9", "extra"],
    ["validate", "fixture:E9", "--bogus"],
    ["table", "fixture:E9", "--format"], ["table", "fixture:E9", "--format", "xml"],
    ["enumerate", "five"],
    ["ded", "fixture:E9", "--atoms", "--enumerate"],
    ["laws", "fixture:E9", "--i"],  # --identity1 or --intro-adjointness
    # what argparse also refuses: a value on a flag, an ambiguous prefix or a
    # bad N ahead of -h, and an option where a value belongs
    ["order", "fixture:E9", "--dot=x"], ["laws", "fixture:E9", "-h", "--i"],
    ["enumerate", "five", "-h"], ["check", "fixture:E9", "--suite", "--sums"],
]


def test_usage_errors_exit_2_with_the_usage_line_on_stderr(capsys):
    for argv in USAGE_ERRORS:
        code, out, err = run_usage(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: unsharp"), argv
        assert err.splitlines()[-1].startswith("unsharp") and ": error: " in err, argv
    # a negative N is an integer, so the search's range check refuses it
    assert run_usage(capsys, "enumerate", "-3")[:2] == (2, "")


COMMAND_OPTIONS = {
    "validate": [], "order": ["--dot"], "implies": [], "table": ["--format", "--sums"],
    "residuate": ["--roundtrip"], "ded": ["--enumerate", "--atoms", "--generate"],
    "laws": ["--contraposition", "--identity1", "--intro-adjointness", "--monotonous"],
    "enumerate": ["--up-to-iso", "--count-only", "--emit"], "check": ["--suite"], "fixture": [],
}


def test_help_goes_to_stdout_and_exits_0(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run_usage(capsys, flag)
        assert (code, err) == (0, "")
        assert set(COMMAND_OPTIONS) <= set(re.findall(r"[\w-]+", out))
        for name, options in COMMAND_OPTIONS.items():
            code, out, err = run_usage(capsys, name, flag)
            assert (code, err) == (0, ""), name
            assert set(options) <= set(re.findall(r"[\w-]+", out)), name


def test_option_spellings(capsys):
    # --opt=value, a unique prefix of a long option and the last of a repeated
    # option read as the full spelling does
    csv = run(capsys, "table", "fixture:E9", "--sums", "--format", "csv")
    assert csv[0] == 0 and csv[1].startswith("+,0,a")
    assert run(capsys, "table", "fixture:E9", "--sums", "--format=csv") == csv
    assert run(capsys, "table", "fixture:E9", "--form=csv", "--sums") == csv
    th2 = (0, "th2: pass\n", "")
    assert run(capsys, "check", "fixture:E9", "--suite=th2") == th2
    assert run(capsys, "check", "fixture:E9", "--suite", "wrong", "--suite", "th2") == th2
    assert run(capsys, "residuate", "fixture:E9", "--round") == run(
        capsys, "residuate", "fixture:E9", "--roundtrip")
    # after `--` every argument is a positional, one with a dash included
    assert run(capsys, "implies", "--", "fixture:E9", "e", "a") == (0, "{c,f}\n", "")
    assert run(capsys, "implies", "fixture:E9", "--", "-e", "a")[:2] == (2, "")


def test_check_invalid_file(tmp_path, capsys):
    # a document that parses but fails validation exits 1 with the report
    bad = tmp_path / "bad.ea"
    bad.write_text("algebra B\nelements 0 m 1\nzero 0\none 1\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out, err) == (1, "", "invalid: E3 violated at (1): no orthosupplement\n")


def test_run_suite_refuses_an_unknown_name():
    # cmd_check screens the names first, so only a direct call reaches this
    with pytest.raises(ValueError) as err:
        run_suite(fixture("E9"), "bogus")
    assert str(err.value) == "unknown suite 'bogus'"


# The theorem self-checks: on a correct package no algebra fails C1-C5, the
# round trip or comparable contraposition, so these tests swap in failing
# results to pin what the commands print and return when one does.
STRICTNESS = "C2 violated at (0,0): strictness: product defined iff x' <= y"
# what roundtrip_check reports on EA6-4 given EA6-7's product table (test_residuation)
FOREIGN_SUMS = RoundtripResult(False, [(3, 3, 1, 2), (3, 4, 2, 1), (4, 3, 2, 1), (4, 4, 1, 2)])


def fault(monkeypatch, validation):
    'Make C1-C5 report `validation` (applied to the real tables) and the round trip fail.'
    real = residuation.validate_surp
    monkeypatch.setattr(residuation, "validate_surp", lambda c: validation(real, c))
    monkeypatch.setattr(residuation, "roundtrip_check", lambda E: FOREIGN_SUMS)


def undefined_product_defined(real, c):
    'The report on `c` with 0 (.) 0, which must stay undefined, set to 0.'
    prods = [list(row) for row in c.products]
    prods[0][0] = 0
    return real(c._replace(products=tuple(map(tuple, prods))))


def not_divisible(real, c):
    return ValidationReport([], c._replace(divisible=False))


def test_residuate_prints_each_failing_self_check(capsys, monkeypatch):
    fault(monkeypatch, undefined_product_defined)
    code, out, err = run(capsys, "residuate", "fixture:E9", "--roundtrip")
    assert (code, err) == (1, "")
    assert out == (
        f"C1: ok\nC2: FAIL {STRICTNESS}\nC3: ok\nC4: ok\nC5 (divisibility): None\n"
        "roundtrip: FAIL [(3, 3, 1, 2), (3, 4, 2, 1), (4, 3, 2, 1)]\n"
    )


@pytest.mark.parametrize("validation, detail", [
    (undefined_product_defined, f"{STRICTNESS}; C2 violated at (0,1,7): product not associative"),
    (not_divisible, "not divisible"),
])
def test_check_prints_each_failing_self_check(capsys, monkeypatch, validation, detail):
    fault(monkeypatch, validation)
    code, out, err = run(capsys, "check", "fixture:E9", "--suite", "th2,c1-c5,roundtrip")
    assert (code, err) == (1, "")
    assert out == (
        f"th2: pass\nc1-c5: FAIL {detail}\n"
        "roundtrip: FAIL [(3, 3, 1, 2), (3, 4, 2, 1), (4, 3, 2, 1)]\n"
    )


def test_laws_flags_a_failing_comparable_pair(capsys, monkeypatch):
    real = laws.counterexample_search

    def one_comparable_failure(E):
        rep = real(E)
        first = rep.failing_pairs[0]._replace(comparable=True)
        return rep._replace(failing_pairs=[first], comparable_only_status=False)

    monkeypatch.setattr(laws, "counterexample_search", one_comparable_failure)
    code, out, err = run(capsys, "laws", "fixture:E9", "--contraposition")
    assert (code, err) == (1, "")
    assert out == (
        "contraposition: 1 failing pairs\n  a b: {g,1} != {1} (comparable)\n"
        "  a COMPARABLE pair fails; this should be impossible\n"
    )


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp", "check", "fixture:E6", "--suite", "lemma1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lemma1: pass" in proc.stdout


def spy_on_enumeration(monkeypatch) -> list:
    'The up_to_iso value of each library enumeration the CLI runs.'
    import unsharp.enumeration as enumeration

    real, modes = enumeration.enumerate_effect_algebras, []

    def spy(n, up_to_iso=False, **kwargs):
        modes.append(up_to_iso)
        return real(n, up_to_iso=up_to_iso, **kwargs)

    monkeypatch.setattr(enumeration, "enumerate_effect_algebras", spy)
    return modes


def test_enumerate_eight_counts_from_the_class_representatives(capsys, monkeypatch):
    # the count line comes from the base tables' orbits: nothing is relabeled
    # or sorted, and only the classes are listed
    import unsharp.enumeration as enumeration

    modes = spy_on_enumeration(monkeypatch)

    def relabeled(groups):
        raise AssertionError("the count modes relabel no table")

    monkeypatch.setattr(enumeration, "_labeled_tables", relabeled)
    code, out, err = run(capsys, "enumerate", "8", "--count-only")
    assert (code, out, err) == (0, "n=8: 15136 labeled, 40 up to isomorphism\n", "")
    assert modes == [True]


@pytest.mark.parametrize(
    "flags, up_to_iso",
    [([], True), (["--up-to-iso"], True), (["--emit"], False), (["--up-to-iso", "--emit"], True),
     (["--count-only", "--emit"], True)],
)
def test_enumerate_builds_every_labeled_algebra_only_to_emit_it(
    tmp_path, capsys, monkeypatch, flags, up_to_iso
):
    # every mode makes one library call, for the classes unless it writes
    # the labeled listing
    modes = spy_on_enumeration(monkeypatch)
    argv = [a for f in flags for a in ((f, str(tmp_path)) if f == "--emit" else (f,))]
    code, out, _ = run(capsys, "enumerate", "4", *argv)
    assert code == 0 and out.startswith("n=4: 4 labeled, 3 up to isomorphism\n")
    assert modes == [up_to_iso]


@pytest.mark.parametrize("threads", ["two", "2"])
def test_enumerate_ignores_threads(capsys, monkeypatch, threads):
    # enumerate runs in one process and reads no environment variable
    monkeypatch.setenv("THREADS", threads)
    code, out, err = run(capsys, "enumerate", "4", "--count-only")
    assert (code, out, err) == (0, "n=4: 4 labeled, 3 up to isomorphism\n", "")


CHECK_ALL_PASS = [
    "lemma1: pass", "lemma2: pass", "th2: pass", "th4: pass",
    "c1-c5: pass", "th3: pass", "roundtrip: pass",
]


def run_module(*argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert time.perf_counter() - start < 30.0
    return proc.stdout


@pytest.mark.parametrize("name", ["CHAIN-64", "BOOL-6"])
def test_check_large_fixtures_within_budget(name):
    # every suite spelled out prints what the default check prints in
    # test_full_check_and_ded_on_large_fixtures_within_budget
    out = run_module("check", f"fixture:{name}", "--suite", ",".join(SUITES))
    assert out.splitlines() == CHECK_ALL_PASS


@pytest.mark.parametrize("name", ["CHAIN-64", "BOOL-6"])
def test_laws_monotonous_exhaustive_on_large_fixtures_within_budget(capsys, name):
    # the reduction is exact at every size, so every verdict says exhaustive
    start = time.perf_counter()
    code, out, _ = run(capsys, "laws", f"fixture:{name}", "--monotonous")
    assert code == 0 and out == "monotonous: yes (exhaustive)\n"
    assert time.perf_counter() - start < 5.0


LARGE_DED = {
    "BOOL-5": "14348908 deductive systems, 30 atoms",
    "BOOL-6": "617673396283948 deductive systems, 62 atoms",
    "CHAIN-24": "177148 deductive systems, 22 atoms",
    "CHAIN-64": "617673396283948 deductive systems, 62 atoms",
}


@pytest.mark.parametrize("command", ["check", "ded"])
@pytest.mark.parametrize("name", sorted(LARGE_DED))
def test_full_check_and_ded_on_large_fixtures_within_budget(command, name):
    # th3 is exhaustive at every size, and ded counts in closed form
    out = run_module(command, f"fixture:{name}")
    if command == "check":
        assert out.splitlines() == CHECK_ALL_PASS
    else:
        assert out == LARGE_DED[name] + "\n"


BASE_MODULES = {
    "unsharp", "unsharp.cli", "unsharp.algebra", "unsharp.dsl", "unsharp.poset", "unsharp.reports",
}
LOADS_AS_MAIN = """\
import atexit, runpy, sys

REPORTED = ("csv", "dataclasses", "inspect", "argparse", "gettext", "locale", "shutil")

def report():
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "unsharp"
                          or m in REPORTED)), file=sys.stderr)

atexit.register(report)
sys.argv[0] = "unsharp"
runpy.run_module("unsharp", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["validate", "fixture:E9"], {"fixtures"}),
        (["order", "fixture:E9"], {"fixtures"}),
        (["implies", "fixture:E9", "e", "a"], {"fixtures", "implication"}),
        (["table", "fixture:E9"], {"fixtures", "implication"}),
        (["residuate", "fixture:E9", "--roundtrip"], {"fixtures", "residuation"}),
        (["ded", "fixture:E9"], {"fixtures", "deduction"}),
        (["laws", "fixture:E9"], {"fixtures", "laws"}),
        (["check", "fixture:E9"], {"fixtures", "implication", "residuation", "deduction"}),
        (["fixture", "E9"], {"fixtures"}),
        (["enumerate", "5"], {"enumeration"}),
        (["validate", "e9.ea"], set()),
        (["--help"], set()),
    ],
)
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, extra):
    # the package runs as `python -m unsharp ...` would run it; `csv` is
    # loaded only by `table --format csv`, so no command here loads it.
    # No command imports `dataclasses`, nor `inspect`, which it would bring
    # in: the records are NamedTuples, `Subset` is a plain class and only
    # `parse_spec` builds `AlgebraSpec`. Nor does any, help included, import
    # `argparse`, the `gettext` and `locale` it translates with or the
    # `shutil` its help formatter asks for the terminal width: `cli` reads
    # the command line off its own table. The child starts with `-S`, so no
    # `.pth` hook of `site` imports any of them before the command runs; it
    # finds the package on PYTHONPATH alone
    doc = tmp_path / "e9.ea"
    doc.write_text(E9_TEXT, encoding="utf-8")
    argv = [str(doc) if a == "e9.ea" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADS_AS_MAIN, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(unsharp.__file__))},
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stderr.splitlines()[-1]
    assert set(modules.split()) == BASE_MODULES | {f"unsharp.{m}" for m in extra}


def test_ded_enumerate_streams_into_a_closed_pipe():
    # 3^31 + 1 systems: the first lines come at once and a reader that
    # stops early ends the process quietly, as `| head` does
    with subprocess.Popen(
        [sys.executable, "-m", "unsharp", "ded", "fixture:CHAIN-64", "--enumerate"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        try:
            code = proc.wait(timeout=30)
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert head == ["{1}\n", "{a1,1}\n", "{a2,1}\n"]
    assert code == 0 and err == ""
