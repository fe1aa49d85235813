"""Weighted fundamental groups of weighted simplicial complexes.

The public surface re-exports the data model (complexes, presentations,
exact algebra) and the operations on them: validation, maximal trees,
presentations, classification into free products of cyclic groups,
abelianization, weighted graph homology, lower-central-series free ranks,
two-piece gluing, filtration tracking, and Hamiltonian-tree
discrimination.

A name is looked up in its module on each access (PEP 562), so ``import
wfg`` loads no module that the caller does not use.  The value is not
kept here: whatever a module holds under the name now is what ``wfg``
returns.
"""

from importlib import import_module

from . import errors

_EXPORTS = {
    "analysis": ("BirthDeathEvent", "Filtration", "FiltrationAnalysis",
                 "TreeDiscriminationReport", "analyze_filtration", "discriminate_trees",
                 "enumerate_hamiltonian_trees", "filtration_from_json"),
    "complexes": ("ValidationReport", "WeightedComplex", "complex_from_json",
                  "complex_to_json", "compute_maximal_tree", "is_weighted_subcomplex",
                  "validate"),
    "exact": ("AbelianGroup", "IntegerMatrix", "SnfResult", "abelian_group_from_matrix",
              "smith_normal_form"),
    "invariants": ("CyclicFactorization", "WeightedHomology", "abelianization", "classify",
                   "lcs_free_ranks", "normalize_factorization", "satisfies_exactly_two",
                   "weighted_homology_graph", "witt_rank"),
    "presentation": ("Presentation", "abelianized_group", "abelianized_relation_matrix",
                     "free_reduce", "present", "presentation_to_json"),
    "vankampen": ("CoverSpec", "VanKampenReport", "amalgamated_presentation",
                  "check_hypotheses", "cover_from_json", "verify_van_kampen"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
