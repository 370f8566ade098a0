"""Benchmark runner for the `unsharp` package.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it imports the package from `src/`.  The
workloads are described in BENCHMARK.json and in `workloads.py`.  A run
sets its inputs up several times, then repeats whole passes over its
operations until `--seconds` would be exceeded (at least one pass, and
for `corpus` and `cli` at least 100 operations), checking every result
against a known answer.  Every time is scaled to a nominal machine speed
by a reference kernel timed before, during and after it (see `speed.py`);
the end-to-end metrics take each operation at its median over the passes.  The
last line of standard output is one JSON object: with `--trace 0` it holds
the end-to-end metrics, with `--trace 1` the per-layer ones.  A traced run
alternates untraced and traced passes; the difference in `wall_s` between
them is the tracing overhead.  Every
run also writes a stamped results file, with per-operation raw times and
scale factors and the spans of a traced run, under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

import speed
from spans import Tracer, self_times

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))  # before the cli run pins itself

LAYERS = (
    "poset", "algebra", "implication", "residuation", "deduction",
    "laws", "enumeration", "dsl", "cli",
)
END_TO_END = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# spans timed per pass (or per set-up, for the set-up layers)
SPAN_TIMES = (
    "poset.cones", "algebra.set_sums", "implication.table",
    "implication.th2", "implication.th4", "residuation.c1_c5",
    "residuation.roundtrip", "algebra.sum_laws", "algebra.cone_equations",
    "deduction.th3", "deduction.ded", "deduction.atoms",
    "laws.contraposition", "laws.comparable", "laws.identity",
    "laws.cone_adjointness", "algebra.monotonous",
    "residuation.adjointness_exchange",
    "enumeration.free", "enumeration.restricted", "enumeration.canonical",
    "dsl.parse", "algebra.validate",
)
FIXTURES = ("BOOL-4", "CHAIN-16", "BOOL-6", "CHAIN-32")
PER_FIXTURE = (
    "poset.cones", "algebra.set_sums", "implication.table",
    "algebra.sum_laws", "algebra.cone_equations", "implication.th2",
    "implication.th4", "residuation.c1_c5", "deduction.th3",
    "residuation.roundtrip",
)
CLI_SUBCOMMANDS = (
    "validate", "order", "implies", "table", "residuate",
    "ded", "laws", "enumerate", "check", "fixture",
)
COUNTS = (
    "implication.cells", "implication.triples", "deduction.subsets",
    "deduction.systems", "enumeration.labeled", "enumeration.iso",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_TIMES}
    for name in PER_FIXTURE:
        for fx in FIXTURES:
            if name == "deduction.th3" and fx in ("BOOL-6", "CHAIN-32"):
                continue  # th3 is defined up to 20 elements
            units[f"{name}_s.{fx}"] = "s"
    units["enumeration.labeled_per_s"] = "1/s"
    units["enumeration.threads2_s"] = "s"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.work_ms.{sub}"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units.update({f"{layer}.failed": "count" for layer in LAYERS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_s"] = "s"
    return units


# -- measuring -------------------------------------------------------------

OP_TIMEOUT_S = 60  # an operation running longer counts as hung


@contextlib.contextmanager
def time_limit(seconds: float):
    'Raise TimeoutError in the running operation after `seconds`.'

    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Phase:
    'The timed operations of one tracing mode: whole passes over all of them.'

    times: list[list[float]]  # [operation][pass], raw seconds
    factors: list[list[float]]  # [operation][pass], machine-speed scale (speed.py)
    passes: int = 0
    failed: int = 0  # operations with at least one failure
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # op, layer, message
    counts: dict[str, int] = field(default_factory=dict)  # work in one pass

    @classmethod
    def empty(cls, n_ops: int) -> "Phase":
        return cls([[] for _ in range(n_ops)], [[] for _ in range(n_ops)])

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    def scaled(self, i: int) -> list[float]:
        'The times of operation i, scaled to the nominal machine speed.'
        return [t * f for t, f in zip(self.times[i], self.factors[i])]

    def factor(self, op_id: int) -> float:
        'The scale of one timed operation, by its span op id.'
        n = len(self.times)
        return self.factors[op_id % n][op_id // n]

    def medians(self) -> list[float]:
        """Each operation at its median scaled time over the passes, so the
        pass count does not bias it."""
        return [statistics.median(self.scaled(i)) for i in range(len(self.times))]

    def wall_s(self) -> float:
        'Time to the full set of verdicts.'
        return sum(self.medians())


def run_pass(workload, tracer: Tracer, phase: Phase) -> None:
    """Every operation once, each timed with the machine's speed (speed.py);
    a span op id is its pass times the ops plus its index."""
    ops = workload.ops
    gauge = speed.Gauge()

    def attempt(op):
        with time_limit(OP_TIMEOUT_S), tracer.span(f"op.{op.name}"):
            return op.run(tracer)

    for i, op in enumerate(ops):
        tracer.begin_op(phase.passes * len(ops) + i)
        value, error, elapsed, factor = gauge.time(attempt, op)
        phase.times[i].append(elapsed)
        phase.factors[i].append(factor)
        if error is not None:  # a failed operation is counted, not fatal
            bad = [(tracer.current.split(".", 1)[0], f"raised {error!r}")]
        else:
            try:
                bad = op.check(value)
                if phase.passes == 0:
                    for name, k in op.counts(value).items():
                        phase.counts[name] = phase.counts.get(name, 0) + k
            except Exception as exc:  # output the check cannot read
                bad = [(tracer.current.split(".", 1)[0], f"check raised {exc!r}")]
        if bad:
            phase.failed += 1
            phase.failures += [(op.name, layer, msg) for layer, msg in bad]
    phase.passes += 1


def measure(workload, tracers: list[Tracer], budget_s: float, min_ops: int,
            between=lambda: None) -> list[Phase]:
    """One pass per tracer in turn, repeated until another round would
    overrun `budget_s`, and at least until `min_ops` operations were timed.
    `between` runs after every round, outside the operations' times."""
    phases = [Phase.empty(len(workload.ops)) for _ in tracers]
    start = time.perf_counter()
    while True:
        for tracer, phase in zip(tracers, phases):
            run_pass(workload, tracer, phase)
        between()
        rounds = phases[0].passes
        elapsed = time.perf_counter() - start
        if sum(p.attempted for p in phases) >= min_ops and elapsed * (rounds + 1) / rounds > budget_s:
            return phases


@dataclass
class Setup:
    'Batches of set-ups: the median scaled time of each and its median scale.'

    times: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    repetitions: int = 0

    def batch(self, workload, seed: int, tracer: Tracer, reps: int, seconds: float) -> None:
        'Set the inputs up at least `reps` times and for at least `seconds`.'
        tracer.begin_op(-1)
        gauge = speed.Gauge()
        times: list[float] = []
        factors: list[float] = []
        start = time.perf_counter()
        while len(times) < reps or (time.perf_counter() - start < seconds and len(times) < 10000):
            _, error, elapsed, factor = gauge.time(workload.setup, seed, tracer)
            if error is not None:
                raise error
            times.append(elapsed * factor)
            factors.append(factor)
        self.times.append(statistics.median(times))
        self.factors.append(statistics.median(factors))
        self.repetitions += len(times)

    def median_s(self) -> float:
        return statistics.median(self.times)


def percentile(values: list[float], q: float) -> float:
    'Linear interpolation between the closest ranks.'
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(workload) -> float:
    'Largest resident set: of this process, or of the largest child for cli.'
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, phase: Phase, setup_s: float) -> dict[str, float]:
    """Latency percentiles are over the operations, each at its median: the
    mix of operations is then the same in every run, where pooled samples
    would let one op's share decide which side of a gap p90 falls on."""
    medians = phase.medians()
    return {
        "wall_s": sum(medians),
        "op_ms.p50": percentile(medians, 0.5) * 1000,
        "op_ms.p90": percentile(medians, 0.9) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def per_layer(workload, tracer: Tracer, phases: list[Phase], setup: Setup,
              extras: dict[str, float]) -> dict[str, float]:
    """Span times per pass (set-up spans per set-up), work counts of one
    pass, failures per module, self time per layer and tracing overhead.
    Every time is scaled to the nominal machine speed, like the end-to-end
    metrics."""
    plain, traced = phases[:2]
    values = dict.fromkeys(per_layer_units(), 0.0)
    ops = workload.ops
    own = self_times(tracer.spans)
    cli_ms: dict[str, list[float]] = {}
    for sp in tracer.spans:
        if sp.op < 0:
            scale = statistics.median(setup.factors) / setup.repetitions
            group = ""
        else:
            scale = traced.factor(sp.op) / traced.passes
            group = ops[sp.op % len(ops)].group
        if f"{sp.name}_s" in values:
            values[f"{sp.name}_s"] += sp.duration * scale
        if f"{sp.name}_s.{group}" in values:
            values[f"{sp.name}_s.{group}"] += sp.duration * scale
        if sp.layer in LAYERS:
            values[f"{sp.layer}.self_s"] += own[sp.id] * scale
        if sp.layer == "cli" and group == sp.name[4:]:
            cli_ms.setdefault(group, []).append(sp.duration * traced.factor(sp.op) * 1000)
    values.update(extras)
    startup = extras.get("cli.interpreter_ms", 0.0) + extras.get("cli.import_ms", 0.0)
    for sub, times in cli_ms.items():  # medians, like the start-up probes
        values[f"cli.work_ms.{sub}"] = statistics.median(times) - startup
    for name, k in traced.counts.items():
        if name in values:
            values[name] = k
    free_labeled = traced.counts.get("enumeration.free_labeled", 0)
    if free_labeled:
        values["enumeration.labeled_per_s"] = free_labeled / values["enumeration.free_s"]
    for _, layer, _ in (f for p in phases for f in p.failures):
        if layer in LAYERS:
            values[f"{layer}.failed"] += 1
    values["trace.overhead_s"] = traced.wall_s() - plain.wall_s()
    return values


# -- the run ---------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def stamp(workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpus_used": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    'Set up, measure and check one workload; the full record of the run.'
    tracer = Tracer(enabled=trace)
    setup = Setup()
    setup.batch(workload, seed, tracer, reps=3, seconds=0.5)
    if not trace:
        # more set-ups after every pass, so that set-up time is sampled
        # across the run like the operations are
        phases = measure(
            workload, [tracer], seconds, workload.min_ops,
            between=lambda: setup.batch(workload, seed, tracer, reps=1, seconds=0.2),
        )
        metrics = end_to_end(workload, phases[0], setup.median_s())
        units = END_TO_END
    else:
        # untraced and traced passes alternate, so both see the same machine
        plain, traced = measure(workload, [Tracer(enabled=False), tracer], seconds, 1)
        phases = [plain, traced]
        extras, bad = workload.extras()
        if extras or bad:  # the measurements made only when traced count as one operation
            extra = Phase([[0.0]], [[1.0]], passes=1, failed=int(bool(bad)))
            extra.failures = [("traced-only measurements", layer, msg) for layer, msg in bad]
            phases.append(extra)
        metrics = per_layer(workload, tracer, phases, setup, extras)
        units = per_layer_units()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "stamp": stamp(workload, seed, seconds, trace),
        "seeded": workload.seeded,
        "setup": {
            "median_s": setup.median_s(), "repetitions": setup.repetitions,
            "batch_medians_s": setup.times, "batch_factors": setup.factors,
        },
        "passes": [p.passes for p in phases],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [f for p in phases for f in p.failures],
        "op_times_s": [
            {"op": op.name, "raw": [p.times[i] for p in phases[:2]],
             "factors": [p.factors[i] for p in phases[:2]]}
            for i, op in enumerate(workload.ops)
        ],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "spans": [asdict(sp) for sp in tracer.spans],
    }


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def report(record: dict) -> list[str]:
    'Human-readable summary printed before the result line.'
    st = record["stamp"]
    inputs = "bundled labelings" if st["seed"] == 0 else "relabeled inputs"
    if not record["seeded"]:
        inputs = "inputs do not depend on the seed"
    lines = [
        f"workload {st['workload']}, seed {st['seed']} ({inputs}), "
        f"{st['seconds']} s, {'traced' if st['traced'] else 'untraced'}",
        f"set-up {record['setup']['median_s']:.4f} s "
        f"(median of {record['setup']['repetitions']})",
        f"passes {record['passes']}, {record['attempted']} operations, "
        f"{record['failed']} failed, failed_ratio {record['failed_ratio']}",
    ]
    if not st["traced"]:
        n = len(record["op_times_s"])
        beyond = n - 1 - int(0.9 * (n - 1))
        lines.append(
            f"op_ms percentiles over {n} operations, each the median of "
            f"{record['passes'][0]} passes; {beyond} beyond p90"
        )
    lines += [f"FAIL {op}: {layer}: {msg}" for op, layer, msg in record["failures"]]
    lines += [f"  {k} = {v['value']} {v['unit']}" for k, v in record["metrics"].items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "fixtures", "enumerate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unsharp" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = {
        "corpus": workloads.Corpus,
        "fixtures": workloads.Fixtures,
        "enumerate": workloads.Enumerate,
        "cli": lambda: workloads.Cli(ROOT, OUT),
    }[args.workload]()
    if args.workload == "cli":
        # one CPU for this process and its children, so that the `unsharp`
        # processes run where the gauge samples the machine's speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(report(record)))
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
