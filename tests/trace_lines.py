"""Run tier-1 under a line tracer and list every function-body line of
`src/unsharp` that it never runs.

    python tests/trace_lines.py [PYTEST ARGS]

Run it from the repository root.  With no arguments pytest gets the tier-1
ones, `-q --continue-on-collection-errors`.  The tests run in this process
through `pytest.main`; the `unsharp` processes they start are traced by a
`sitecustomize` module that this script puts first on `PYTHONPATH` (where
it hides any other `sitecustomize`), so a line that only a subprocess
reaches, such as `main`'s exit on a broken pipe, counts as run.  Only the standard library traces: `sys.monitoring` LINE
events under `COVERAGE_ID`, each location disabled after its first hit.
That needs Python 3.12 or newer; on older versions the script exits 2.

The expected lines are read off the code objects: every line that `co_lines()`
gives a function, class body, lambda or generator expression, apart from its
first line, which holds the `def` or the decorator.  The exit status is
pytest's when a test fails, else 1 when some line never ran, else 0.
"""

import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "unsharp"
TIER1 = ["-q", "--continue-on-collection-errors"]

# the hook, run in this process and, through sitecustomize, in every child;
# it keeps the (file, line) pairs of the package it sees and disables each
# location after its first event, so a line costs one call
HOOK = '''\
import atexit, os, sys


def start(package, out=None):
    mon = sys.monitoring
    hits, paths = set(), {}  # paths: co_filename -> its real path, "" outside the package

    def line(code, lineno):
        path = paths.get(code.co_filename)
        if path is None:
            path = os.path.realpath(code.co_filename)
            path = paths[code.co_filename] = path if os.path.dirname(path) == package else ""
        if path:
            hits.add((path, lineno))
        return mon.DISABLE

    def dump():
        with open(os.path.join(out, f"{os.getpid()}.lines"), "w", encoding="utf-8") as f:
            f.writelines(f"{name}\\t{lineno}\\n" for name, lineno in hits)

    mon.use_tool_id(mon.COVERAGE_ID, "trace_lines")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    if out is not None:
        atexit.register(dump)
    return hits
'''


def expected_lines(source: str) -> set:
    'The function-body lines of one module, read off its nested code objects.'
    stack, lines = [compile(source, "<module>", "exec")], set()
    while stack:
        code = stack.pop()
        nested = [c for c in code.co_consts if hasattr(c, "co_lines")]
        stack.extend(nested)
        for c in nested:
            lines |= {line for *_, line in c.co_lines() if line not in (None, c.co_firstlineno)}
    return lines


def main(argv: list) -> int:
    if sys.version_info < (3, 12):
        print("trace_lines needs sys.monitoring: run it on Python 3.12 or newer", file=sys.stderr)
        return 2
    import pytest

    package = str(PACKAGE.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        hook_dir, out = os.path.join(tmp, "hook"), os.path.join(tmp, "out")
        os.mkdir(hook_dir)
        os.mkdir(out)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as f:
            f.write(f"{HOOK}\nstart({package!r}, {out!r})\n")
        inherited = filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
        os.environ["PYTHONPATH"] = os.pathsep.join([hook_dir, str(SRC), *inherited])
        sys.path.insert(0, str(SRC))

        scope: dict = {}
        exec(HOOK, scope)
        hits = scope["start"](package)
        try:
            status = int(pytest.main(argv or TIER1))
        finally:
            sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
            sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)
        for dump in Path(out).iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, lineno = row.split("\t")
                hits.add((name, int(lineno)))

    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        name, source = str(path.resolve()), path.read_text(encoding="utf-8")
        lines = expected_lines(source)
        total += len(lines)
        text = source.splitlines()
        missed += [(path, line, text[line - 1].strip())
                   for line in sorted(lines) if (name, line) not in hits]
    for path, line, text in missed:
        print(f"{path.relative_to(SRC.parent)}:{line}: never ran: {text}")
    print(f"trace_lines: {total - len(missed)} of {total} function-body lines of "
          f"src/unsharp ran; {len(missed)} never ran")
    return status or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
