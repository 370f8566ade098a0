"""Write the checked-in corpus: every labeled effect algebra with 2..7 elements.

Run once from the repository root:

    python3 perfbench/make_corpus.py

Each file corpus/n<N>.ea holds the labeled algebras on N elements as
text-format documents, in enumeration order.  A `# class K` comment before
each document names its isomorphism class (numbered by first appearance),
so the benchmark can sample evenly over classes without running the
enumerator it measures.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from unsharp import canonical_form, emit_spec, enumerate_effect_algebras  # noqa: E402


def main() -> None:
    for n in range(2, 8):
        result = enumerate_effect_algebras(n)
        classes: dict[tuple, int] = {}
        docs = []
        for E in result.algebras:
            k = classes.setdefault(canonical_form(E), len(classes))
            docs.append(f"# class {k}\n{emit_spec(E)}")
        path = HERE / "corpus" / f"n{n}.ea"
        header = (
            f"# every labeled effect algebra on {n} elements, 0 first and 1 last;\n"
            "# written by: python3 perfbench/make_corpus.py\n"
        )
        path.write_text(header + "".join(docs), encoding="utf-8")
        print(f"{path.name}: {len(docs)} algebras, {len(classes)} classes")


if __name__ == "__main__":
    main()
