"""Command line front end.

Every FILE argument takes either a path to a document in the text format
(see `dsl`) or `fixture:NAME` for a bundled algebra.  Exit codes: 0 on
success, 1 when validation or a check fails, 2 for usage and parse
problems and for paths that cannot be read or written.  The command line
is read off the table `COMMANDS`, which also writes the help: `-h` or
`--help`, at the top or after a command, prints to stdout and exits 0.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Optional

from . import dsl
from .algebra import (
    EffectAlgebra,
    InvalidAlgebraError,
    check_cone_equations,
    check_sum_laws,
)
from .reports import PropertyReport

# the other modules are imported by the commands that use them: start-up
# compiles only what a command runs

SUITES = ("lemma1", "lemma2", "th2", "th4", "c1-c5", "th3", "roundtrip")
LAWS = ("contraposition", "identity1", "intro-adjointness", "monotonous")


def _load(arg: str) -> EffectAlgebra:
    if arg.startswith("fixture:"):
        from .fixtures import fixture
        return fixture(arg[len("fixture:"):])
    with open(arg, encoding="utf-8") as fh:
        return dsl.load_algebra(fh.read())  # main prints InvalidAlgebraError


def _label_index(E: EffectAlgebra, label: str) -> int:
    try:
        return E.labels.index(label)
    except ValueError:
        raise ValueError(f"no element {label!r} in {E.name}") from None


def cmd_validate(args) -> int:
    try:
        E = _load(args.file)
    except InvalidAlgebraError as exc:
        for v in exc.report.violations:
            print(v)
        return 1
    print(f"{E.name}: valid effect algebra with {E.n} elements")
    return 0


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
            mono = adjointness.monotonicity if adjointness else laws.is_monotonous(E)
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
    from .enumeration import MAX_LISTED, MAX_SEARCH, enumerate_effect_algebras
    if not 2 <= args.n <= MAX_SEARCH:  # before --emit creates its directory
        raise ValueError(f"unrestricted search supports 2..{MAX_SEARCH} elements")
    emit = args.emit and not args.count_only
    labeled = emit and not args.up_to_iso  # only this mode lists every labeled algebra
    if labeled and args.n > MAX_LISTED:
        raise ValueError(f"--emit without --up-to-iso lists 2..{MAX_LISTED} elements")
    if emit:  # an unusable path fails before the search, not after it
        os.makedirs(args.emit, exist_ok=True)
    result = enumerate_effect_algebras(args.n, up_to_iso=not labeled)
    print(f"n={args.n}: {result.labeled_count} labeled, {result.iso_count} up to isomorphism")
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


# name: (handler, positionals, flags, valued options, help line); a valued
# option maps to its metavar, or to its choices with the default first
COMMANDS = {
    "validate": (cmd_validate, ("file",), (), {}, "check the axioms of a document"),
    "order": (cmd_order, ("file",), ("--dot",), {}, "induced order matrix or DOT diagram"),
    "implies": (cmd_implies, ("file", "x", "y"), (), {}, "the subset X -> Y"),
    "table": (cmd_table, ("file",), ("--sums",), {"--format": ("aligned", "csv")},
              "full implication table, or with --sums the sum table"),
    "residuate": (cmd_residuate, ("file",), ("--roundtrip",), {},
                  "derive products and check C1-C5"),
    "ded": (cmd_ded, ("file",), ("--enumerate", "--atoms"), {"--generate": "X,Y,..."},
            "count deductive systems, or list them, their atoms or the one generated "
            "(one option at most)"),
    "laws": (cmd_laws, ("file",), tuple(f"--{law}" for law in LAWS), {},
             "contraposition and friends, all four unless some are named"),
    "enumerate": (cmd_enumerate, ("n",), ("--up-to-iso", "--count-only"), {"--emit": "DIR"},
                  "all effect algebras on n elements"),
    "check": (cmd_check, ("file",), (), {"--suite": "SUITE,..."},
              f"run law suites (default all: {','.join(SUITES)}), exit 0 iff all pass"),
    "fixture": (cmd_fixture, ("name",), (), {}, "print a bundled document"),
}
EXCLUSIVE = ("--enumerate", "--atoms", "--generate")  # ded takes at most one


class UsageError(Exception):
    'A command line the table refuses: the command (None before one) and the message.'


def _help(name: Optional[str]) -> str:
    'The help for one command or, with None, for all; its first line is the usage.'
    if name is None:
        rows = "".join(f"\n  {cmd:<10} {entry[-1]}" for cmd, entry in COMMANDS.items())
        return (f"usage: unsharp [-h] {{{','.join(COMMANDS)}}} ...\n\nFinite effect algebras and "
                f"their unsharp implication.\n\ncommands (COMMAND -h for its options):{rows}\n")
    _, positionals, flags, valued, line = COMMANDS[name]
    options = [*flags, *(f"{o} {{{','.join(v)}}}" if isinstance(v, tuple) else f"{o} {v}"
                         for o, v in valued.items())]
    usage = " ".join(["usage: unsharp", name, "[-h]", *(f"[{o}]" for o in options), *positionals])
    return f"{usage}\n\n{line}\n"


def _print_help(name: Optional[str]) -> int:
    sys.stdout.write(_help(name))
    return 0


def _option(name: Optional[str], arg: str, options: tuple) -> Optional[tuple]:
    """The option `arg` names, exactly or by a unique prefix, and its `=value`
    or None; ("", None) for an unknown option; None for a positional, which
    as in argparse is `-`, a negative number or a dashed word with a space."""
    if arg[:1] != "-" or arg == "-":
        return None
    opt, eq, value = arg.partition("=")
    found = [opt] if opt in options else [
        o for o in options if opt[:2] == "--" and o.startswith(opt)]
    if len(found) > 1:
        raise UsageError(name, f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    whole, dot, frac = arg[1:].partition(".")  # -3 and -.5, not -1. nor -1.2.3
    number = (whole or "0" if dot else whole).isdecimal() and (frac.isdecimal() or not dot)
    return None if number or " " in arg else ("", None)


def _integers(name: str, given: list) -> list:
    'The positionals given, with the N of enumerate read as the integer it is.'
    try:
        return [int(given[0]), *given[1:]] if name == "enumerate" and given else given
    except ValueError:
        raise UsageError(name, f"argument n: invalid int value: {given[0]!r}") from None


def parse(argv: list[str]) -> tuple:
    """The handler for a command line and what it takes: the parsed arguments,
    or the command whose help -h asks for.  Refusals raise UsageError."""
    name, rest, given, extras, values = None, list(argv), [], [], {}
    positionals, flags, valued, options = (), (), {}, ("-h", "--help")
    while rest:
        arg = rest.pop(0)
        found = None if arg == "--" else _option(name, arg, options)
        if arg == "--":  # the rest are positionals
            given, rest = given + rest, []
        elif found is None and name is None:  # the command: its options from here on
            if arg not in COMMANDS:
                raise UsageError(None, f"argument command: invalid choice: {arg!r}")
            name, (func, positionals, flags, valued, _) = arg, COMMANDS[arg]
            options += (*flags, *valued)
            for later in rest[:rest.index("--") if "--" in rest else None]:
                _option(name, later, options)  # an ambiguous prefix refuses the line, -h or not
        elif found is None:
            given.append(arg)
        elif not found[0]:
            extras.append(arg)
        else:
            opt, value = found
            if opt in valued and value is None:
                value = rest.pop(0) if rest else "--"
                if value == "--" or _option(name, value, options) is not None:
                    raise UsageError(name, f"argument {opt}: expected one argument")
            if opt not in valued and value is not None:
                raise UsageError(name, f"argument {opt}: ignored explicit argument {value!r}")
            if isinstance(valued.get(opt), tuple) and value not in valued[opt]:
                raise UsageError(name, f"argument {opt}: invalid choice: {value!r}")
            if opt in ("-h", "--help"):
                _integers(name, given)  # argparse reads N before it meets -h
                return _print_help, name
            clash = [o for o in EXCLUSIVE if opt in EXCLUSIVE and o in values and o != opt]
            if clash:
                raise UsageError(name, f"argument {opt}: not allowed with argument {clash[0]}")
            values[opt] = True if value is None else value
    if name is None:
        raise UsageError(None, "the following arguments are required: command")
    if len(given) < len(positionals):
        missing = ", ".join(positionals[len(given):])
        raise UsageError(name, f"the following arguments are required: {missing}")
    extras += given[len(positionals):]
    if extras:
        raise UsageError(name, f"unrecognized arguments: {' '.join(extras)}")
    values = dict.fromkeys(flags, False) | {
        o: v[0] if isinstance(v, tuple) else None for o, v in valued.items()} | values
    args = {o[2:].replace("-", "_"): v for o, v in values.items()}
    return func, SimpleNamespace(**args, **dict(zip(positionals, _integers(name, given))))


def main(argv: Optional[list[str]] = None) -> int:
    'Run one command line and return its exit code, 2 for a line the table refuses.'
    try:
        func, args = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        name, message = exc.args
        prog = "unsharp" if name is None else f"unsharp {name}"
        print(_help(name).split("\n")[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        return 2
    try:
        return func(args)
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
