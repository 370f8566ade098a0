"""Finite effect algebras, their unsharp implication, and the derived
residuated structure.  See the README for the file format and CLI."""

from types import ModuleType as _ModuleType

from .algebra import (
    EffectAlgebra,
    InvalidAlgebraError,
    MonotonicityResult,
    check_cone_equations,
    check_sum_laws,
    is_monotonous,
    validate_tables,
)
from .deduction import (
    DeductiveSystem,
    atoms,
    characterization_agreement,
    characterize,
    count_ded,
    ded_lattice,
    enumerate_ded,
    generate,
    is_deductive_system,
)
from .dsl import (
    AlgebraSpec,
    DslError,
    emit_dot,
    emit_spec,
    emit_table,
    load_algebra,
    parse_spec,
    spec_report,
)
from .enumeration import (
    EnumerationResult,
    canonical_form,
    enumerate_effect_algebras,
    find_isomorphism,
    is_isomorphic,
    relabel,
)
from .fixtures import BUNDLED, fixture, fixture_text
from .implication import (
    ImplicationTable,
    element_implication_suite,
    implication_table,
    implies,
    implies_sets,
    set_implication_suite,
)
from .laws import (
    boolean_to_ea,
    check_comparable_contraposition,
    check_cone_level_adjointness,
    check_lattice_identity,
    contraposition_pair,
    counterexample_search,
    identity_contraposition_equivalence,
)
from .poset import Involution, Poset, Subset, validate_involution
from .residuation import (
    UnsharpResiduatedPoset,
    adjointness_exchange_equivalence,
    check_dual_adjointness,
    from_effect_algebra,
    roundtrip_check,
    surp_roundtrip_check,
    to_effect_algebra,
    validate_surp,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
