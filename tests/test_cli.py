import subprocess
import sys
import time

import pytest

from unsharp.cli import main
from unsharp.fixtures import BUNDLED


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


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "fixture", "NOPE")
    assert code == 2 and "unknown fixture" in err


def test_fixture_prints_document(capsys):
    code, out, _ = run(capsys, "fixture", "E6")
    assert code == 0 and out.startswith("algebra E6")


def test_order_and_dot(capsys):
    code, out, _ = run(capsys, "order", "fixture:E6")
    assert code == 0 and out.splitlines()[0].split() == ["<=", "0", "a", "a'", "b", "b'", "1"]
    code, out, _ = run(capsys, "order", "fixture:E6", "--dot")
    assert code == 0 and out.startswith("digraph")


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


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp", "check", "fixture:E6", "--suite", "lemma1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lemma1: pass" in proc.stdout


def test_threads_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "2")
    code, out, _ = run(capsys, "enumerate", "5", "--count-only")
    assert code == 0 and "16 labeled, 4 up to isomorphism" in out


class RecordingPool:
    'Stands in for multiprocessing.Pool: records its size, maps in-process.'

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize(
    "threads,cpus,pool",
    [("64", 8, 5), ("3", 8, 3), ("4", 2, 2), ("1", 8, None), ("0", 8, None), ("-3", 8, None)],
)
def test_threads_clamped(capsys, monkeypatch, threads, cpus, pool):
    # n = 5 has five first-cell subtrees; no process is started
    import multiprocessing
    import os

    RecordingPool.sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("THREADS", threads)
    code, out, _ = run(capsys, "enumerate", "5", "--count-only")
    assert code == 0 and "16 labeled, 4 up to isomorphism" in out
    assert RecordingPool.sizes == ([] if pool is None else [pool])


def test_threads_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "two")
    code, out, err = run(capsys, "enumerate", "4", "--count-only")
    assert code == 2 and out == ""
    assert err == "THREADS must be an integer, got 'two'\n"


@pytest.mark.parametrize("name", ["CHAIN-64", "BOOL-6"])
def test_check_large_fixtures_within_budget(name):
    suites = "lemma1,lemma2,th2,th4,c1-c5,roundtrip"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp", "check", f"fixture:{name}", "--suite", suites],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": pass") == 6
    assert time.perf_counter() - start < 30.0


LARGE_DED = {
    "BOOL-5": "14348908 deductive systems, 30 atoms",
    "BOOL-6": "617673396283948 deductive systems, 62 atoms",
    "CHAIN-24": "177148 deductive systems, 22 atoms",
    "CHAIN-64": "617673396283948 deductive systems, 62 atoms",
}


@pytest.mark.parametrize("command", ["check", "ded"])
@pytest.mark.parametrize("name", sorted(LARGE_DED))
def test_full_check_and_ded_on_large_fixtures_within_budget(command, name):
    # above 20 elements th3 samples and says so, and ded counts in closed form
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unsharp", command, f"fixture:{name}"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if command == "check":
        assert proc.stdout.splitlines() == [
            "lemma1: pass", "lemma2: pass", "th2: pass", "th4: pass",
            "c1-c5: pass", "th3: pass (sampled)", "roundtrip: pass",
        ]
    else:
        assert proc.stdout == LARGE_DED[name] + "\n"
    assert time.perf_counter() - start < 30.0
