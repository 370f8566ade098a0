"""The package namespace: the public names, each resolved lazily from its
home module."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import unsharp

PUBLIC = {
    "algebra": [
        "EffectAlgebra", "InvalidAlgebraError",
        "check_cone_equations", "check_sum_laws", "validate_tables",
    ],
    "deduction": [
        "atoms", "characterization_agreement", "characterize",
        "count_ded", "ded_lattice", "enumerate_ded", "generate", "is_deductive_system",
    ],
    "dsl": [
        "AlgebraSpec", "DslError", "emit_dot", "emit_spec", "emit_table",
        "load_algebra", "parse_spec", "spec_report",
    ],
    "enumeration": [
        "EnumerationResult", "canonical_form", "enumerate_effect_algebras",
        "find_isomorphism", "is_isomorphic", "relabel",
    ],
    "fixtures": ["BUNDLED", "boolean_to_ea", "fixture", "fixture_text"],
    "implication": [
        "ImplicationTable", "element_implication_suite", "implication_table",
        "implies", "implies_sets", "set_implication_suite",
    ],
    "laws": [
        "MonotonicityResult", "check_comparable_contraposition",
        "check_cone_level_adjointness", "check_lattice_identity", "contraposition_pair",
        "counterexample_search", "identity_contraposition_equivalence", "is_monotonous",
    ],
    "poset": ["Poset", "Subset", "validate_involution"],
    "residuation": [
        "UnsharpResiduatedPoset", "adjointness_exchange_equivalence",
        "from_effect_algebra", "roundtrip_check",
        "surp_roundtrip_check", "to_effect_algebra", "validate_surp",
    ],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_55_public_names():
    assert len(HOME) == 55
    assert sorted(unsharp.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_the_object_in_its_home_module(name):
    home = importlib.import_module(f"unsharp.{HOME[name]}")
    assert getattr(unsharp, name) is getattr(home, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from unsharp import *", namespace)
    assert set(HOME) <= set(namespace)
    assert all(namespace[name] is getattr(unsharp, name) for name in HOME)
    assert set(HOME) <= set(dir(unsharp))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        unsharp.no_such_name


def test_import_loads_no_submodule():
    code = (
        "import sys, unsharp; "
        "print(sorted(m for m in sys.modules if m.startswith('unsharp')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['unsharp']"


def test_no_module_imports_random():
    # every check is exhaustive, so nothing in the package samples
    package = pathlib.Path(unsharp.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "random" not in roots, f"{path.name}:{node.lineno} imports random"


def test_no_module_keeps_an_unused_import():
    # a deletion that leaves its imports behind fails here
    package = pathlib.Path(unsharp.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [f"{name} (line {line})" for name, line in imported.items() if name not in used]
        assert not unused, f"{path.name} imports {', '.join(unused)} and never uses it"


RECORDS = {
    "ClauseResult", "CompEntry", "CompletenessReport", "ConeAdjointness", "DeductiveCheck",
    "EnumerationResult", "IdentityEquivalence", "LawReport", "LawViolation",
    "MonotonicityResult", "PropertyReport", "RoundtripResult", "SumEntry",
    "UnsharpResiduatedPoset", "ValidationReport", "Violation",
}


def test_no_record_shares_a_mutable_default():
    # a NamedTuple default is one object for every instance, so a list
    # default would carry one call's appends into the next
    records = {}
    for path in pathlib.Path(unsharp.__file__).parent.glob("[!_]*.py"):
        home = importlib.import_module(f"unsharp.{path.stem}")
        for cls in vars(home).values():
            if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_field_defaults"):
                records[cls.__name__] = cls
    assert set(records) == RECORDS
    for cls in records.values():
        for name, value in cls._field_defaults.items():
            assert not isinstance(value, (list, dict, set)), f"{cls.__name__}.{name}"
