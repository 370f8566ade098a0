"""The four workloads: their inputs, their operations and the checks on them.

Each workload turns a seed into inputs (`setup`) and then exposes one pass
as a list of `Op`.  An operation calls the package only through its public
functions (or, for `cli`, through the `unsharp` process) and every call
runs inside a tracer span named `<module>.<what>`.  `check` compares an
operation's result with the known answers in `answers.py` and returns the
mismatches as (module, message) pairs.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import answers
import speed
from spans import Tracer

import unsharp as u
from unsharp.cli import run_suite

HERE = pathlib.Path(__file__).resolve().parent

SUITE_NAMES = ("lemma1", "lemma2", "th2", "th4", "c1-c5", "th3", "roundtrip")
TH3_LIMIT = 20  # characterization_agreement is defined up to 20 elements

# the module each verdict key belongs to, for charging failures
VERDICT_MODULE = {
    "lemma1": "algebra",
    "lemma2": "algebra",
    "th2": "implication",
    "th4": "implication",
    "c1-c5": "residuation",
    "th3": "deduction",
    "roundtrip": "residuation",
    "comparable-only-failures": "laws",
    "comparable-contraposition": "laws",
    "identity-contraposition": "laws",
    "adjointness-exchange": "residuation",
}


class SetupError(RuntimeError):
    'The inputs themselves disagree with their known answers.'


@dataclass
class Op:
    name: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], list[tuple[str, str]]]
    counts: Callable[[Any], dict[str, int]] = lambda value: {}
    group: str = ""  # the fixture or cli subcommand per-layer numbers are split by


@dataclass
class Workload:
    name: str
    seeded: bool
    # operations a run times at least: 100 on corpus and cli, so that every
    # operation's median has two or more passes behind it; 1 on fixtures and
    # enumerate, whose passes are long
    min_ops: int
    ops: list[Op] = field(default_factory=list)

    def setup(self, seed: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def extras(self) -> tuple[dict[str, float], list[tuple[str, str]]]:
        'Per-layer numbers measured only in the traced run, and any mismatches.'
        return {}, []


def permutation(n: int, seed: int, rng: random.Random) -> list[int]:
    'Seed 0 keeps the labeling; any other seed draws a random one.'
    perm = list(range(n))
    if seed:
        rng.shuffle(perm)
    return perm


def permuted(labels, perm: list[int]) -> tuple[str, ...]:
    'Move element i to index perm[i]; 0 and 1 move like any other element.'
    moved = [""] * len(labels)
    for old, new in enumerate(perm):
        moved[new] = labels[old]
    return tuple(moved)


# the seven `check` suites, each with the span its time is charged to
SUITE_SPANS = {
    "lemma1": "algebra.sum_laws",
    "lemma2": "algebra.cone_equations",
    "th2": "implication.th2",
    "th4": "implication.th4",
    "c1-c5": "residuation.c1_c5",
    "th3": "deduction.th3",
    "roundtrip": "residuation.roundtrip",
}


def suites_for(E: u.EffectAlgebra) -> list[str]:
    'th3 is defined up to 20 elements.'
    return [name for name in SUITE_SPANS if name != "th3" or E.n <= TH3_LIMIT]


def suite(E: u.EffectAlgebra, name: str, tr: Tracer) -> dict[str, bool]:
    'One suite as `unsharp check` runs it; True means the theorem-level answer came out.'
    ok, _detail = tr.call(SUITE_SPANS[name], run_suite, E, name)
    return {name: ok}


def law_reports(E: u.EffectAlgebra, tr: Tracer) -> dict[str, bool]:
    rep = tr.call("laws.contraposition", u.counterexample_search, E)
    out = {
        "comparable-only-failures": rep.comparable_only_status,
        "comparable-contraposition": tr.call(
            "laws.comparable", u.check_comparable_contraposition, E
        ).ok,
    }
    if tr.call("poset.is_lattice", E.order.is_lattice):
        out["identity-contraposition"] = tr.call(
            "laws.identity", u.identity_contraposition_equivalence, E
        ).equivalent
    # cone-level adjointness and monotonicity hold on some algebras only:
    # their reports are timed, not checked
    tr.call("laws.cone_adjointness", u.check_cone_level_adjointness, E)
    tr.call("algebra.monotonous", u.is_monotonous, E)
    out["adjointness-exchange"] = tr.call(
        "residuation.adjointness_exchange", u.adjointness_exchange_equivalence, E
    ).ok
    return out


def verdict(E: u.EffectAlgebra, tr: Tracer) -> dict[str, bool]:
    'The seven `check` suites, then the law reports.'
    out: dict[str, bool] = {}
    for name in suites_for(E):
        out.update(suite(E, name, tr))
    out.update(law_reports(E, tr))
    return out


def check_verdict(value: dict[str, bool]) -> list[tuple[str, str]]:
    return [
        (VERDICT_MODULE[key], f"{key}: expected to hold, did not")
        for key, ok in value.items()
        if not ok
    ]


def size_counts(n: int) -> dict[str, int]:
    counts = {"implication.cells": n * n, "implication.triples": n**3}
    if n <= TH3_LIMIT:
        counts["deduction.subsets"] = 1 << (n - 1)
    return counts


# -- corpus ----------------------------------------------------------------


def split_documents(text: str) -> list[tuple[int, str]]:
    'The (class, document) pairs of a corpus file.'
    docs = []
    for chunk in text.split("# class ")[1:]:
        head, _, body = chunk.partition("\n")
        docs.append((int(head), body))
    return docs


class Corpus(Workload):
    """A seeded sample of the labeled algebras with n <= 7, each under a
    seeded relabeling: `per_class` algebras from every isomorphism class.

    Equal shares keep the mix the same for every seed.  They also keep the
    median operation inside the dense middle of the latency distribution
    (n = 6 and the cheaper n = 7 classes) rather than on the gap below the
    costlier n = 7 classes, where it would jump with machine noise."""

    def __init__(self, per_class: int = 3):
        super().__init__("corpus", seeded=True, min_ops=100)
        self.per_class = per_class

    def setup(self, seed: int, tr: Tracer) -> None:
        rng = random.Random(seed)
        classes: dict[tuple[int, int], list[u.AlgebraSpec]] = {}
        for n in answers.CORPUS_COUNTS:
            text = (HERE / "corpus" / f"n{n}.ea").read_text(encoding="utf-8")
            docs = split_documents(text)
            for cls, doc in docs:
                spec = tr.call("dsl.parse", u.parse_spec, doc)
                if not tr.call("algebra.validate", u.spec_report, spec).ok:
                    raise SetupError(f"corpus algebra {spec.name} fails validation")
                classes.setdefault((n, cls), []).append(spec)
            found = len({cls for cls, _ in docs})
            if len(docs) != answers.CORPUS_COUNTS[n] or found != answers.CORPUS_CLASSES[n]:
                raise SetupError(
                    f"corpus n={n}: {len(docs)} algebras in {found} classes, expected "
                    f"{answers.CORPUS_COUNTS[n]} in {answers.CORPUS_CLASSES[n]}"
                )
        self.ops = []
        for (n, cls), members in sorted(classes.items()):
            for i in range(self.per_class):
                spec = rng.choice(members) if seed else members[i % len(members)]
                perm = permutation(n, seed, rng)
                spec = dataclasses.replace(spec, labels=permuted(spec.labels, perm))
                report = tr.call("algebra.validate", u.spec_report, spec)
                if not report.ok:
                    raise SetupError(f"relabeled {spec.name} fails validation")
                E = report.algebra
                self.ops.append(
                    Op(
                        f"{spec.name}/{i}",
                        lambda tr, E=E: verdict(E, tr),
                        check_verdict,
                        lambda value, n=n: size_counts(n),
                    )
                )


# -- fixtures --------------------------------------------------------------


class Fixtures(Workload):
    """Large bundled algebras: a kernel pass and the seven suites each; the
    two 16-element ones also get the law reports and their deductive systems.
    An operation is one of these calls on one fixture.  Every seed keeps the
    bundled labelings (see BENCHMARK.json)."""

    def __init__(self, names=("BOOL-4", "CHAIN-16", "BOOL-6", "CHAIN-32"),
                 with_laws=("BOOL-4", "CHAIN-16")):
        super().__init__("fixtures", seeded=False, min_ops=1)
        self.names = names
        # no interior element of these is its own complement
        self.with_laws = with_laws

    def setup(self, seed: int, tr: Tracer) -> None:
        self.ops = []
        for name in self.names:
            E = tr.call("algebra.validate", u.fixture, name)
            n = E.n

            def op(what, run, check, counts=lambda value: {}):
                self.ops.append(Op(f"{name} {what}", run, check, counts, group=name))

            op(
                "kernel",
                lambda tr, E=E: self.kernel(E, tr),
                lambda value, name=name: self.check_kernel(value, name),
                lambda value, n=n: size_counts(n),
            )
            for suite_name in suites_for(E):
                op(
                    SUITE_SPANS[suite_name],
                    lambda tr, E=E, s=suite_name: suite(E, s, tr),
                    check_verdict,
                )
            if name in self.with_laws:
                op("laws", lambda tr, E=E: law_reports(E, tr), check_verdict)
                op(
                    "ded",
                    lambda tr, E=E: self.ded(E, tr),
                    lambda value, n=n: self.check_ded(value, n),
                    lambda value: {"deduction.systems": value[0]},
                )

    @staticmethod
    def kernel(E: u.EffectAlgebra, tr: Tracer) -> tuple[int, int, int]:
        "Total sizes of every a -> b, of both cones of every pair, and of every L(a') + L(a,b)."
        n, p, comp = E.n, E.order, E.comp
        table = tr.call("implication.table", u.implication_table, E)
        imp = sum(len(table[a, b]) for a in range(n) for b in range(n))
        with tr.span("poset.cones"):
            cones = 0
            for a in range(n):
                for b in range(n):
                    low, upp = p.cone_pair(a, b)
                    cones += len(low) + len(upp)
        with tr.span("algebra.set_sums"):
            sums = 0
            for a in range(n):
                low_comp = p.lower_cone(E.subset(comp[a]))
                for b in range(n):
                    sums += len(E.add_sets(low_comp, p.lower_cone(E.subset(a, b))))
        return imp, cones, sums

    @staticmethod
    def check_kernel(value: tuple[int, int, int], name: str) -> list[tuple[str, str]]:
        return [
            (module, f"{what}: total size {got}, expected {expect}")
            for module, what, got, expect in zip(
                ("implication", "poset", "algebra"),
                ("implication cells", "cones", "set sums"),
                value,
                answers.kernel_closed_form(name),
            )
            if got != expect
        ]

    @staticmethod
    def ded(E: u.EffectAlgebra, tr: Tracer) -> tuple[int, int]:
        systems = tr.call("deduction.ded", u.enumerate_ded, E)
        return len(systems), len(tr.call("deduction.atoms", u.atoms, E))

    @staticmethod
    def check_ded(value: tuple[int, int], n: int) -> list[tuple[str, str]]:
        expect = answers.ded_closed_form(n, self_complementary=0)
        if value == expect:
            return []
        return [("deduction", f"(systems, atoms) = {value}, expected {expect}")]


# -- enumerate -------------------------------------------------------------


class Enumerate(Workload):
    """The free search at n = 6 and 7 and the search restricted to the
    orders of E9 and CHAIN-10.  It has no input to seed."""

    def __init__(self, free=(6, 7), restricted=("E9", "CHAIN-10")):
        super().__init__("enumerate", seeded=False, min_ops=1)
        self.free = free
        self.restricted = restricted
        self.last: dict[int, u.EnumerationResult] = {}

    def setup(self, seed: int, tr: Tracer) -> None:
        self.ops = []
        for n in self.free:
            self.ops.append(
                Op(
                    f"free-{n}",
                    lambda tr, n=n: self.free_search(n, tr),
                    lambda value, n=n: self.check_counts(value, answers.FREE_COUNTS[n]),
                    lambda value: {**self.counts(value), "enumeration.free_labeled": value[0]},
                )
            )
        canonical_n = max(self.free)
        self.ops.append(
            Op(
                f"canonical-{canonical_n}",
                lambda tr: self.canonical(canonical_n, tr),
                lambda value: self.check_counts(
                    value, (answers.FREE_COUNTS[canonical_n][1],)
                ),
            )
        )
        for name in self.restricted:
            order = tr.call("algebra.validate", u.fixture, name).order
            self.ops.append(
                Op(
                    f"restricted-{name}",
                    lambda tr, order=order: self.restricted_search(order, tr),
                    lambda value, name=name: self.check_counts(
                        value[:1], (answers.RESTRICTED_COUNTS[name],)
                    ),
                    self.counts,
                )
            )

    def free_search(self, n: int, tr: Tracer) -> tuple[int, int]:
        res = tr.call("enumeration.free", u.enumerate_effect_algebras, n)
        self.last[n] = res
        return res.labeled_count, res.iso_count

    def canonical(self, n: int, tr: Tracer) -> tuple[int]:
        algebras = self.last[n].algebras
        with tr.span("enumeration.canonical"):
            forms = {u.canonical_form(E) for E in algebras}
        return (len(forms),)

    def restricted_search(self, order: u.Poset, tr: Tracer) -> tuple[int, int]:
        res = tr.call(
            "enumeration.restricted", u.enumerate_effect_algebras, order.n,
            induced_order=order,
        )
        return res.labeled_count, res.iso_count

    @staticmethod
    def counts(value: tuple[int, int]) -> dict[str, int]:
        return {"enumeration.labeled": value[0], "enumeration.iso": value[1]}

    @staticmethod
    def check_counts(got: tuple, expect: tuple) -> list[tuple[str, str]]:
        if tuple(got) == tuple(expect):
            return []
        return [("enumeration", f"counts {tuple(got)}, expected {tuple(expect)}")]

    def extras(self) -> tuple[dict[str, float], list[tuple[str, str]]]:
        'The two-process split of the largest free search, timed once.'
        n = max(self.free)
        res, error, elapsed, factor = speed.Gauge().time(
            u.enumerate_effect_algebras, n, threads=2
        )
        if error is not None:  # reported like a failed operation
            return {}, [("enumeration", f"threads=2 search raised {error!r}")]
        got = (res.labeled_count, res.iso_count)
        return (
            {"enumeration.threads2_s": elapsed * factor},
            self.check_counts(got, answers.FREE_COUNTS[n]),
        )


# -- cli -------------------------------------------------------------------

class Cli(Workload):
    """`python -m unsharp` as a subprocess, one invocation after another:
    every subcommand on fixture:E9 and on `relabelings` seeded relabelings
    of E9 written at set-up, plus `check` on E6, BOOL-3 and CHAIN-8 and
    `laws` on BOOL-4.

    Eight relabelings, not one: `laws` does about 7 ms of work on most
    labelings of E9 but about 215 ms on some (11 of 40 seeds tried, and the
    bundled one), so with one relabeling the seed alone decided whether
    cli's p90 fell on a slow `laws` or on a `check`."""

    PROBE_TIMEOUT_S = 60

    def __init__(self, root: pathlib.Path, out: pathlib.Path, relabelings: int = 8):
        super().__init__("cli", seeded=True, min_ops=100)
        self.root = root
        self.out = out
        self.relabelings = relabelings
        self.env = dict(os.environ)
        self.env.pop("THREADS", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, self.env.get("PYTHONPATH")))
        )
        self.golden = answers.e9_table()

    def setup(self, seed: int, tr: Tracer) -> None:
        rng = random.Random(seed)
        lines = answers.E9_TEXT.splitlines(keepends=True)
        labels = lines[1].split()[1:]
        self.out.mkdir(parents=True, exist_ok=True)
        sources = ["fixture:E9"]
        for i in range(self.relabelings):
            lines[1] = "elements " + " ".join(permuted(labels, permutation(9, seed, rng))) + "\n"
            path = self.out / f"e9-seed{seed}-{i}.ea"
            # a fresh file, as a first set-up writes: overwriting one in place
            # makes ext4 flush it, which adds disk latency to the repeats only
            path.unlink(missing_ok=True)
            path.write_text("".join(lines), encoding="utf-8")
            sources.append(str(path.relative_to(self.root)))

        e9 = self.check_e9
        self.ops = []
        for source in sources:
            self.ops += [
                self.op(["validate", source], e9("validate")),
                self.op(["order", source], e9("order")),
                self.op(["implies", source, "e", "a"], e9("implies")),
                self.op(["table", source], e9("table")),
                self.op(["residuate", source, "--roundtrip"], e9("residuate")),
                self.op(["ded", source], e9("ded")),
                self.op(["laws", source], e9("laws")),
                self.op(["check", source], e9("check")),
            ]
        self.ops += [
            self.op(["fixture", "E9"], e9("fixture")),
            self.op(["enumerate", "5"], e9("enumerate")),
            self.op(["check", "fixture:E6"], e9("check"), on_e9=False),
            self.op(["check", "fixture:BOOL-3"], e9("check"), on_e9=False),
            self.op(["check", "fixture:CHAIN-8"], e9("check"), on_e9=False),
            self.op(["laws", "fixture:BOOL-4"], self.check_laws_bool4, on_e9=False),
        ]

    def op(self, argv: list[str], check, on_e9: bool = True) -> Op:
        'One invocation; those on E9 are grouped by subcommand.'
        return Op(
            " ".join(argv),
            lambda tr: self.invoke(argv, tr),
            check,
            group=argv[0] if on_e9 else "",
        )

    def invoke(self, argv: list[str], tr: Tracer) -> subprocess.CompletedProcess:
        with tr.span(f"cli.{argv[0]}"):
            return subprocess.run(
                [sys.executable, "-m", "unsharp", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True,
            )

    def check_e9(self, sub: str):
        def check(proc: subprocess.CompletedProcess) -> list[tuple[str, str]]:
            if proc.returncode != 0:
                return [("cli", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")]
            out = proc.stdout
            ok = {
                "validate": lambda: out == "E9: valid effect algebra with 9 elements\n",
                "order": lambda: sum(
                    row.split()[1:].count("1") for row in out.splitlines()[1:]
                ) == answers.E9_ORDER_PAIRS,
                "implies": lambda: set(out.strip().strip("{}").split(",")) == answers.E9_IMPLIES_E_A,
                "table": lambda: answers.parse_table(out) == self.golden,
                "residuate": lambda: out.splitlines() == [
                    "C1: ok", "C2: ok", "C3: ok", "C4: ok",
                    "C5 (divisibility): True", "roundtrip: ok",
                ],
                "ded": lambda: out == "%d deductive systems, %d atoms\n" % answers.E9_DED,
                "laws": lambda: out.startswith(
                    f"contraposition: {answers.E9_CONTRAPOSITION_FAILURES} failing pairs\n"
                ) and "COMPARABLE" not in out,
                "check": lambda: out.splitlines() == [f"{s}: pass" for s in SUITE_NAMES],
                "fixture": lambda: out == answers.E9_TEXT,
                "enumerate": lambda: out.strip() == answers.ENUMERATE_5,
            }[sub]
            return [] if ok() else [("cli", f"unexpected output {out[:200]!r}")]

        return check

    @staticmethod
    def check_laws_bool4(proc: subprocess.CompletedProcess) -> list[tuple[str, str]]:
        if proc.returncode != 0 or not proc.stdout.startswith("contraposition: 0 failing pairs\n"):
            return [("cli", f"exit {proc.returncode}, output {proc.stdout[:200]!r}")]
        return []

    def extras(self) -> tuple[dict[str, float], list[tuple[str, str]]]:
        'Interpreter start and `import unsharp`, each the median of seven processes.'
        gauge = speed.Gauge()
        times: dict[str, list[float]] = {"pass": [], "import unsharp": []}
        try:
            for _ in range(7):
                for code, samples in times.items():
                    _, error, elapsed, factor = gauge.time(
                        subprocess.run, [sys.executable, "-c", code], cwd=self.root,
                        env=self.env, check=True, capture_output=True,
                        timeout=self.PROBE_TIMEOUT_S,
                    )
                    if error is not None:
                        raise error
                    samples.append(elapsed * factor * 1000)
        except subprocess.SubprocessError as exc:
            return {}, [("cli", f"start-up probe failed: {exc!r}")]
        interpreter = statistics.median(times["pass"])
        imported = statistics.median(times["import unsharp"])
        return {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter}, []
