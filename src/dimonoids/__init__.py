"""Finite dimonoids: paired Cayley tables with two interlocking associative
operations.

Construct the classical semigroup families and the dimonoid constructions
built from them, check the pairing axioms, compute halos, zeros and
automorphism groups, test isomorphism by a backtracking search, compute
canonical forms, and classify every dimonoid of small order.

Importing the package loads none of its modules.  Each public name in
`_EXPORTS` is resolved on first use (PEP 562), which imports only the module
that defines it, so a process pays only for the modules it uses.
"""

from importlib import import_module

# defining module -> the public names it exports
_EXPORTS = {
    "catalog": (
        "CatalogEntry", "SuiteReport", "TheoremRecord", "classify", "dumps_catalog",
        "enumerate_dimonoids_backtracking", "enumerate_semigroups", "load_catalog",
        "loads_catalog", "run_theorem_suite", "save_catalog",
    ),
    "constructions": (
        "CONSTRUCTION_NAMES", "ConstructionCase", "all_cases", "cases", "lo_arrow_pair",
        "lo_arrow_with_null", "lo_ro_plus_zero", "lo_tilde0_pair",
        "lo_tilde0_with_fixed_null", "lo_with_lo_arrow", "lo_with_ro_arrow", "lob_pair",
        "lob_with_fixed_null",
    ),
    "dimonoid": (
        "AxiomReport", "DiFlags", "DiTable", "adjoin_zero_di", "as_ditable",
        "axioms_ok", "check_axioms", "di_flags", "di_zero", "dual_dimonoid",
        "from_right_commutative", "halo", "is_subdimonoid", "naive_flip", "pair",
    ),
    "errors": (
        "ANotContainingA", "BadFamilyParams", "BadPartition", "BoundExceeded",
        "CarrierTooSmall", "DimonoidError", "EmptyA", "EmptyCarrier", "EmptySubset",
        "EqualDistinguished", "FormatError", "IndexOutOfRange", "NotADimonoid",
        "NotAssociative", "NotRightCommutative", "SizeMismatch", "ZeroInA",
    ),
    "families": (
        "FAMILIES", "FamilyParams", "build", "family_sweep", "left_zero_sg", "lo_arrow",
        "lo_tilde0", "lob", "make_params", "null_sg", "o_with_fixed", "plus_zero_lo",
        "right_zero_sg", "subsets",
    ),
    "morphisms": (
        "AutSet", "MorphismCheck", "Permutation", "SymmetricProductSpec",
        "are_isomorphic", "automorphisms", "canonical_form", "canonical_key",
        "check_morphism", "matches_symmetric_product", "relabel_dimonoid",
        "relabel_table",
    ),
    "tables": (
        "ClassFlags", "OpTable", "RoleReport", "adjoin_zero", "dual_table",
        "element_roles", "from_rows", "is_associative", "make_table", "semigroup_class",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
