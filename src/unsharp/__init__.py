"""Finite effect algebras, their unsharp implication, and the derived
residuated structure.  See the README for the file format and CLI.

`import unsharp` loads no submodule: the first lookup of a public name
imports its home module and keeps the value here (PEP 562)."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in (
        ("algebra", "EffectAlgebra InvalidAlgebraError"
         " check_cone_equations check_sum_laws validate_tables"),
        ("deduction", "atoms characterization_agreement"
         " characterize count_ded ded_lattice enumerate_ded generate"
         " is_deductive_system"),
        ("dsl", "AlgebraSpec DslError emit_dot emit_spec emit_table"
         " load_algebra parse_spec spec_report"),
        ("enumeration", "EnumerationResult canonical_form"
         " enumerate_effect_algebras find_isomorphism is_isomorphic relabel"),
        ("fixtures", "BUNDLED boolean_to_ea fixture fixture_text"),
        ("implication", "ImplicationTable element_implication_suite"
         " implication_table implies implies_sets set_implication_suite"),
        ("laws", "MonotonicityResult check_comparable_contraposition"
         " check_cone_level_adjointness check_lattice_identity contraposition_pair"
         " counterexample_search identity_contraposition_equivalence is_monotonous"),
        ("poset", "Poset Subset validate_involution"),
        ("residuation", "UnsharpResiduatedPoset adjointness_exchange_equivalence"
         " from_effect_algebra roundtrip_check"
         " surp_roundtrip_check to_effect_algebra validate_surp"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
