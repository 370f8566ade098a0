"""Command line front end.

Every FILE argument takes either a path to a document in the text format
(see `dsl`) or `fixture:NAME` for a bundled algebra.  Exit codes: 0 on
success, 1 when validation or a check fails, 2 for usage and parse
problems and for paths that cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import dsl
from .algebra import (
    EffectAlgebra,
    InvalidAlgebraError,
    check_cone_equations,
    check_sum_laws,
    is_monotonous,
)
from .reports import PropertyReport

# the other modules are imported by the commands that use them: start-up
# compiles only what a command runs

SUITES = ("lemma1", "lemma2", "th2", "th4", "c1-c5", "th3", "roundtrip")
LAWS = ("contraposition", "identity1", "intro-adjointness", "monotonous")


def _read_source(arg: str) -> str:
    if arg.startswith("fixture:"):
        from .fixtures import fixture_text
        return fixture_text(arg[len("fixture:"):])
    with open(arg, encoding="utf-8") as fh:
        return fh.read()


def _load(arg: str) -> EffectAlgebra:
    return dsl.load_algebra(_read_source(arg))  # main prints InvalidAlgebraError


def _label_index(E: EffectAlgebra, label: str) -> int:
    try:
        return E.labels.index(label)
    except ValueError:
        raise ValueError(f"no element {label!r} in {E.name}") from None


def cmd_validate(args) -> int:
    report = dsl.spec_report(dsl.parse_spec(_read_source(args.file)))
    if report.ok:
        E = report.algebra
        print(f"{E.name}: valid effect algebra with {E.n} elements")
        return 0
    for v in report.violations:
        print(str(v))
    return 1


def cmd_order(args) -> int:
    E = _load(args.file)
    if args.dot:
        sys.stdout.write(dsl.emit_dot(E))
        return 0
    rows = [
        [E.labels[x], *("1" if E.leq(x, y) else "0" for y in range(E.n))]
        for x in range(E.n)
    ]
    sys.stdout.write(dsl.aligned_grid([["<=", *E.labels], *rows]))
    return 0


def cmd_implies(args) -> int:
    from .implication import implies
    E = _load(args.file)
    x = _label_index(E, args.x)
    y = _label_index(E, args.y)
    print(E.render(implies(E, x, y)))
    return 0


def cmd_table(args) -> int:
    from .implication import implication_table
    E = _load(args.file)
    source = E if args.sums else implication_table(E)
    sys.stdout.write(dsl.emit_table(source, format=args.format))
    return 0


def cmd_residuate(args) -> int:
    from . import residuation
    E = _load(args.file)
    report = residuation.validate_surp(residuation.from_effect_algebra(E))
    failed = {v.axiom for v in report.violations}
    for cond in ("C1", "C2", "C3", "C4"):
        if cond in failed:
            print(f"{cond}: FAIL {report.first(cond)}")
        else:
            print(f"{cond}: ok")
    divisible = report.algebra.divisible if report.ok else None
    print(f"C5 (divisibility): {divisible}")
    status = 0 if report.ok else 1
    if args.roundtrip:
        rt = residuation.roundtrip_check(E)
        print(f"roundtrip: {'ok' if rt.equal else 'FAIL ' + str(rt.diffs[:3])}")
        if not rt.equal:
            status = 1
    return status


def cmd_ded(args) -> int:
    from . import deduction
    E = _load(args.file)
    if args.generate is not None:
        members = E.subset(*(_label_index(E, lab) for lab in args.generate.split(",")))
        print(E.render(deduction.generate(E, members)))
        return 0
    if args.enumerate:
        for d in deduction.iter_ded(E):
            print(E.render(d))
        return 0
    if args.atoms:
        for d in deduction.atoms(E):
            print(E.render(d))
        return 0
    print(f"{deduction.count_ded(E)} deductive systems, {len(deduction.atoms(E))} atoms")
    return 0


def cmd_laws(args) -> int:
    from . import laws
    E = _load(args.file)
    chosen = [law for law in LAWS if getattr(args, law.replace("-", "_"))] or LAWS
    status = 0
    adjointness = None
    for name in chosen:
        if name == "contraposition":
            rep = laws.counterexample_search(E)
            print(f"contraposition: {len(rep.failing_pairs)} failing pairs")
            for v in rep.failing_pairs:
                flag = "comparable" if v.comparable else "incomparable"
                print(
                    f"  {E.labels[v.x]} {E.labels[v.y]}: "
                    f"{E.render(v.lhs)} != {E.render(v.rhs)} ({flag})"
                )
            if not rep.comparable_only_status:
                print("  a COMPARABLE pair fails; this should be impossible")
                status = 1
        elif name == "identity1":
            if not E.order.is_lattice():
                print("identity1: not a lattice, skipped")
                continue
            rep = laws.check_lattice_identity(E)
            print(f"identity1: {len(rep.failing_pairs)} failing pairs")
            for v in rep.failing_pairs:
                print(
                    f"  {E.labels[v.x]} {E.labels[v.y]}: "
                    f"{E.render(v.lhs)} != {E.render(v.rhs)}"
                )
        elif name == "intro-adjointness":
            res = adjointness = laws.check_cone_level_adjointness(E)
            kind = (
                "monotonous" if res.monotonicity.holds else "not monotonous"
            )
            if res.holds_globally:
                print(f"intro-adjointness: holds on every triple ({kind})")
            else:
                x, y, z = res.witness
                print(
                    "intro-adjointness: fails at "
                    f"({E.labels[x]},{E.labels[y]},{E.labels[z]}) ({kind})"
                )
        else:
            mono = adjointness.monotonicity if adjointness else is_monotonous(E)
            if mono.holds:
                print("monotonous: yes (exhaustive)")
            else:
                x, a, b = mono.witness
                print(
                    f"monotonous: no, witness x={E.labels[x]} "
                    f"A={E.render(a)} B={E.render(b)}"
                )
    return status


def cmd_enumerate(args) -> int:
    from .enumeration import MAX_LISTED, MAX_SEARCH, _count_free, enumerate_effect_algebras
    if not 2 <= args.n <= MAX_SEARCH:  # before --emit creates its directory
        raise ValueError(f"unrestricted search supports 2..{MAX_SEARCH} elements")
    emit = args.emit and not args.count_only
    if emit:  # an unusable path fails before the search, not after it
        if args.n > MAX_LISTED:
            raise ValueError(f"--emit lists 2..{MAX_LISTED} elements")
        os.makedirs(args.emit, exist_ok=True)
        result = enumerate_effect_algebras(args.n, up_to_iso=args.up_to_iso)
        labeled, iso = result.labeled_count, result.iso_count
    else:  # the count line alone needs no labeled algebra
        labeled, iso, _ = _count_free(args.n)
    print(f"n={args.n}: {labeled} labeled, {iso} up to isomorphism")
    if emit:
        for E in result.algebras:
            with open(os.path.join(args.emit, f"{E.name}.ea"), "w", encoding="utf-8") as fh:
                fh.write(dsl.emit_spec(E))
        print(f"wrote {len(result.algebras)} files to {args.emit}")
    return 0


def run_suite(E: EffectAlgebra, name: str) -> tuple[bool, str]:
    """One named check bundle; returns (passed, detail naming the failure)."""
    if name == "lemma1":
        rep = check_sum_laws(E)
        return rep.ok, _failure_text(rep)
    if name == "lemma2":
        rep = check_cone_equations(E)
        return rep.ok, _failure_text(rep)
    if name == "th2":
        from .implication import element_implication_suite
        rep = element_implication_suite(E)
        return rep.ok, _failure_text(rep)
    if name == "th4":
        from .implication import set_implication_suite
        rep = set_implication_suite(E)
        return rep.ok, _failure_text(rep)
    if name == "c1-c5":
        from . import residuation
        report = residuation.validate_surp(residuation.from_effect_algebra(E))
        if not report.ok:
            return False, "; ".join(str(v) for v in report.violations)
        if not report.algebra.divisible:
            return False, "not divisible"
        return True, ""
    if name == "th3":
        from . import deduction
        res = deduction.characterization_agreement(E)
        return res.holds, "" if res.holds else f"disagrees on {res.witness}"
    if name == "roundtrip":
        from . import residuation
        rt = residuation.roundtrip_check(E)
        return rt.equal, "" if rt.equal else str(rt.diffs[:3])
    raise ValueError(f"unknown suite {name!r}")


def _failure_text(rep: PropertyReport) -> str:
    return "; ".join(
        f"{c.clause} witness={c.witness}" for c in rep.failures()
    )


def cmd_check(args) -> int:
    E = _load(args.file)
    names = list(SUITES) if args.suite is None else args.suite.split(",")
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; choose from {','.join(SUITES)}",
                  file=sys.stderr)
            return 2
    status = 0
    for name in names:
        passed, detail = run_suite(E, name)
        if passed:
            print(f"{name}: pass {detail}".rstrip())
        else:
            print(f"{name}: FAIL {detail}")
            status = 1
    return status


def cmd_fixture(args) -> int:
    from .fixtures import fixture_text
    sys.stdout.write(fixture_text(args.name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsharp",
        description="Finite effect algebras and their unsharp implication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("order", help="induced order matrix or DOT diagram")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("implies", help="the subset X -> Y")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_implies)

    p = sub.add_parser("table", help="full implication (or sum) table")
    p.add_argument("file")
    p.add_argument("--format", choices=("aligned", "csv"), default="aligned")
    p.add_argument("--sums", action="store_true", help="emit the sum table instead")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("residuate", help="derive products and check C1-C5")
    p.add_argument("file")
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_residuate)

    p = sub.add_parser("ded", help="deductive systems")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--enumerate", action="store_true")
    g.add_argument("--atoms", action="store_true")
    g.add_argument("--generate", metavar="X,Y,...")
    p.set_defaults(func=cmd_ded)

    p = sub.add_parser("laws", help="contraposition and friends")
    p.add_argument("file")
    for law in LAWS:
        p.add_argument(f"--{law}", action="store_true")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("enumerate", help="all effect algebras on n elements")
    p.add_argument("n", type=int)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", metavar="DIR")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="run named law suites, exit 0 iff all pass")
    p.add_argument("file")
    p.add_argument("--suite", help="comma list from " + ",".join(SUITES))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fixture", help="print a bundled document")
    p.add_argument("name")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dsl.DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidAlgebraError as exc:
        for v in exc.report.violations:
            print(f"invalid: {v}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:  # a missing, unreadable or clashing path
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
