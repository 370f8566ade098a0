"""The ten acceptance criteria, one test each, run in order.

Each criterion prints a single ACCEPTANCE line (visible with `pytest -s`
or in captured output) carrying its pass/fail verdict and wall time; the
last criterion also enforces the whole-battery time budget and the
command line contract.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from unsharp import (
    adjointness_exchange_equivalence,
    atoms,
    characterization_agreement,
    check_comparable_contraposition,
    check_lattice_identity,
    check_sum_laws,
    check_cone_equations,
    contraposition_pair,
    ded_lattice,
    element_implication_suite,
    emit_table,
    enumerate_effect_algebras,
    fixture,
    from_effect_algebra,
    generate,
    enumerate_ded,
    implication_table,
    load_algebra,
    parse_spec,
    roundtrip_check,
    set_implication_suite,
    spec_report,
    validate_surp,
    validate_tables,
)
from unsharp.fixtures import BUNDLED, E9_TEXT, boolean_to_ea
from unsharp.laws import identity_contraposition_equivalence

import e9_data

GOLDEN = Path(__file__).parent / "golden" / "e9_implication_table.txt"
RESULTS = {}
SUITE_FIXTURES = ("E9", "E6", "BOOL-1", "BOOL-2", "BOOL-3")


@contextmanager
def criterion(num, description):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        RESULTS[num] = (ok, elapsed)
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} {verdict} {description} ({elapsed:.2f}s)")


def small_corpus():
    return [E for n in range(2, 6) for E in enumerate_effect_algebras(n).algebras]


def test_criterion_01_fixture_fidelity():
    with criterion(1, "E9 implication table reproduces all 81 cells"):
        start = time.perf_counter()
        E = load_algebra(E9_TEXT)
        table = implication_table(E)
        rendered = emit_table(table)
        assert rendered == GOLDEN.read_text()
        pos = {lab: i for i, lab in enumerate(E.labels)}
        for x, row in e9_data.IMPLICATION.items():
            for y, want in row.items():
                got = {E.labels[i] for i in table[pos[x], pos[y]]}
                assert got == want, (x, y)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_counterexample_reproduction():
    with criterion(2, "worked counterexamples on E9 and E6"):
        E = fixture("E9")
        pos = {lab: i for i, lab in enumerate(E.labels)}
        ok, lhs, rhs = contraposition_pair(E, pos["a"], pos["d"])
        assert not ok and E.render(lhs) == "{g,1}" and E.render(rhs) == "{f,1}"
        ok, lhs, rhs = contraposition_pair(E, pos["e"], pos["a"])
        assert ok and E.render(lhs) == E.render(rhs) == "{f,1}"
        F = fixture("E6")
        rep = check_lattice_identity(F)
        labelled = {
            (F.labels[v.x], F.labels[v.y], F.render(v.lhs), F.render(v.rhs))
            for v in rep.failing_pairs
        }
        assert ("a", "b", "{a'}", "{b}") in labelled


def test_criterion_03_implication_suites_on_fixtures():
    with criterion(3, "implication suites clean on E9/E6/BOOL-1..3"):
        start = time.perf_counter()
        for name in SUITE_FIXTURES:
            E = fixture(name)
            for rep in (
                check_sum_laws(E),
                check_cone_equations(E),
                element_implication_suite(E),
                set_implication_suite(E),
            ):
                bad = [(c.clause, c.witness) for c in rep.failures()]
                assert rep.ok, (name, rep.name, bad)
        meet = element_implication_suite(fixture("E9")).clause(
            "meet_consequent_collapse"
        )
        assert meet.skipped
        meet = element_implication_suite(fixture("E6")).clause(
            "meet_consequent_collapse"
        )
        assert not meet.skipped and meet.passed
        assert time.perf_counter() - start < 5.0


def test_criterion_04_residuation_soundness():
    with criterion(4, "C1-C5 valid, divisible and roundtrip on the corpus"):
        start = time.perf_counter()
        corpus = [fixture(name) for name in SUITE_FIXTURES] + small_corpus()
        for E in corpus:
            rep = validate_surp(from_effect_algebra(E))
            assert rep.ok, (E.name, [str(v) for v in rep.violations])
            assert rep.algebra.divisible is True, E.name
            rt = roundtrip_check(E)
            assert rt.equal, (E.name, rt.diffs[:3])
        assert time.perf_counter() - start < 60.0


def test_criterion_05_adjointness_exchange_equivalence():
    with criterion(5, "adjointness-exchange equivalence on all n<=5"):
        for E in small_corpus():
            rep = adjointness_exchange_equivalence(E)
            bad = [(c.clause, c.witness) for c in rep.failures()]
            assert rep.ok, (E.name, bad)


def test_criterion_06_deduction():
    with criterion(6, "deductive systems on E9/E6"):
        E9, E6 = fixture("E9"), fixture("E6")
        for E in (E9, E6):
            agree = characterization_agreement(E)
            assert agree.holds, (E.name, agree.witness)
        systems = enumerate_ded(E9)
        assert len(systems) == 28
        named = {E9.render(d) for d in atoms(E9)}
        assert named == {"{a,1}", "{b,1}", "{c,1}", "{e,1}", "{f,1}", "{g,1}"}
        pos = {lab: i for i, lab in enumerate(E9.labels)}
        assert generate(E9, E9.subset(pos["a"], pos["g"])) == E9.full_set()
        comp = ded_lattice(E9).check_completeness()
        assert comp.ok


def test_criterion_07_contraposition_structure():
    with criterion(7, "comparable contraposition and the lattice equivalence"):
        corpus = small_corpus() + [fixture(name) for name in BUNDLED]
        for E in corpus:
            rep = check_comparable_contraposition(E)
            bad = [(c.clause, c.witness) for c in rep.failures()]
            assert rep.ok, (E.name, bad)
        lattices = [E for E in small_corpus() if E.order.is_lattice()]
        for E in lattices + [fixture("E6"), boolean_to_ea(2)]:
            assert identity_contraposition_equivalence(E).equivalent, E.name


def test_criterion_08_enumeration_oracle():
    with criterion(8, "enumeration counts against independent oracles"):
        import itertools

        assert enumerate_effect_algebras(2).labeled_count == 1
        # filter-all-tables oracle at n=3
        seen = set()
        for cells in itertools.product((None, 0, 1, 2), repeat=9):
            sums = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
            rep = validate_tables(("0", "x1", "1"), sums, 0, 2)
            if rep.ok:
                seen.add(rep.algebra.sums)
        res3 = enumerate_effect_algebras(3)
        assert {E.sums for E in res3.algebras} == seen
        assert res3.iso_count == 1
        # orbit identity at n <= 4
        from unsharp import relabel

        for n in (2, 3, 4):
            reps = enumerate_effect_algebras(n, up_to_iso=True).algebras
            total = 0
            for E in reps:
                interior = list(range(1, n - 1))
                orbit = {
                    relabel(E, [0, *perm, n - 1] if n > 2 else [0, 1]).sums
                    for perm in itertools.permutations(interior)
                }
                total += len(orbit)
            assert total == enumerate_effect_algebras(n).labeled_count


def test_criterion_09_mutation_sensitivity():
    with criterion(9, "mutations surface E3 and C4 with witnesses"):
        text = E9_TEXT.replace("sum a g = 1\n", "")
        rep = spec_report(parse_spec(text))
        assert not rep.ok
        v = rep.first("E3")
        assert v is not None and v.witness == (1,)  # element a

        from dataclasses import replace

        E = fixture("E9")
        c = from_effect_algebra(E)
        imps = [list(row) for row in c.imps]
        imps[1][0] = E.subset(7, 8).bits  # a -> 0 corrupted to {g,1}
        broken = replace(c, imps=tuple(tuple(r) for r in imps))
        rep = validate_surp(broken)
        v = rep.first("C4")
        assert v is not None and v.witness == (1,)


def test_criterion_10_cli_contract_and_budget():
    with criterion(10, "CLI check green on all fixtures; battery under 3 min"):
        for name in BUNDLED:
            proc = subprocess.run(
                [sys.executable, "-m", "unsharp", "check", f"fixture:{name}"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
        assert set(RESULTS) == set(range(1, 10))
        assert all(ok for ok, _ in RESULTS.values())
        battery = sum(elapsed for _, elapsed in RESULTS.values())
        assert battery < 180.0, f"battery took {battery:.1f}s"
