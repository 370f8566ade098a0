"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q

They check that every metric named in BENCHMARK.json is emitted with its
unit, that a planted wrong answer is caught, and that the runner refuses
to run without the package source.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import unsharp.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    'Each workload on small inputs, with no minimum operation count.'
    wl = {
        "corpus": lambda: workloads.Corpus(per_class=1),
        "fixtures": lambda: workloads.Fixtures(("BOOL-2", "CHAIN-4"), with_laws=("BOOL-2",)),
        "enumerate": lambda: workloads.Enumerate(free=(4, 5), restricted=("E9",)),
        "cli": lambda: workloads.Cli(ROOT, ROOT / ".bench_out", relabelings=1),
    }[name]()
    wl.min_ops = 1
    return wl


def test_benchmark_json_names_the_runner_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == ["corpus", "fixtures", "enumerate", "cli"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_layer_map_covers_every_per_layer_metric():
    groups = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["groups"]
    mapped = [name for g in groups for name in g["metrics"]]
    assert len(mapped) == len(set(mapped))
    for name in run.per_layer_units():
        base = name.rsplit(".", 1)[0] if name.endswith(run.FIXTURES) else name
        assert base in mapped, name


@pytest.mark.parametrize("name", ["corpus", "fixtures", "enumerate", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = run.run_workload(tiny(name), seed=3, seconds=0.01, trace=trace)
    line = run.result_line(record)
    assert line["correct"], record["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in SPEC["end_to_end"] if not trace else []:
        assert line["metrics"][m["name"]]["value"] > 0, m["name"]
    assert record["stamp"]["seed"] == 3 and record["stamp"]["traced"] == trace
    assert {"python", "nproc", "platform", "commit"} <= record["stamp"].keys()
    if trace:
        assert record["spans"]


def test_traced_run_times_the_layers_it_runs():
    record = run.run_workload(tiny("fixtures"), seed=0, seconds=0.01, trace=True)
    m = {k: v["value"] for k, v in record["metrics"].items()}
    for name in ("implication.th4_s", "poset.cones_s", "deduction.ded_s", "algebra.self_s"):
        assert m[name] > 0, name
    assert m["implication.cells"] == 4**2 + 4**2
    assert m["enumeration.free_s"] == 0


def plant_enumeration(monkeypatch):
    monkeypatch.setitem(answers.FREE_COUNTS, 4, (5, 3))  # really (4, 3)


def plant_kernel(monkeypatch):
    right = answers.kernel_closed_form
    monkeypatch.setattr(
        answers, "kernel_closed_form", lambda name: (right(name)[0] + 1, *right(name)[1:])
    )


def plant_verdict(monkeypatch):
    real = workloads.verdict
    monkeypatch.setattr(
        workloads, "verdict", lambda E, tr: {**real(E, tr), "th2": False}
    )


@pytest.mark.parametrize(
    "name, plant, layer",
    [
        ("enumerate", plant_enumeration, "enumeration"),
        ("fixtures", plant_kernel, "implication"),
        ("corpus", plant_verdict, "implication"),
    ],
)
def test_a_planted_wrong_answer_is_caught(monkeypatch, name, plant, layer):
    plant(monkeypatch)
    record = run.run_workload(tiny(name), seed=1, seconds=0.01, trace=False)
    assert record["failed_ratio"] > 0
    assert not run.result_line(record)["correct"]
    assert all(f[1] == layer for f in record["failures"])


def test_a_raising_operation_is_charged_to_its_module(monkeypatch):
    def broken(E):
        raise RuntimeError("planted")

    monkeypatch.setattr(unsharp.cli, "check_cone_equations", broken)
    record = run.run_workload(tiny("corpus"), seed=1, seconds=0.01, trace=True)
    m = record["metrics"]
    assert m["algebra.failed"]["value"] == record["attempted"]
    assert m["implication.failed"]["value"] == 0


def test_a_hung_operation_is_stopped_and_counted(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    monkeypatch.setattr(unsharp.cli, "check_sum_laws", lambda E: time.sleep(5))
    record = run.run_workload(tiny("corpus"), seed=1, seconds=0.01, trace=False)
    assert record["failed"] == record["attempted"]
    assert all("TimeoutError" in msg for _, _, msg in record["failures"])


def test_runner_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_the_gauge_returns_the_result_and_restores_the_timer():
    before = signal.getsignal(signal.SIGVTALRM)
    gauge = speed.Gauge()
    value, error, elapsed, factor = gauge.time(sum, range(10**6))
    assert value == sum(range(10**6)) and error is None
    assert elapsed > 0 and factor > 0
    _, error, _, _ = gauge.time(int, "not a number")
    assert isinstance(error, ValueError)
    assert signal.getsignal(signal.SIGVTALRM) == before
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
