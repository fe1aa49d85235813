"""Weighted fundamental groups of weighted simplicial complexes.

The public surface re-exports the data model (complexes, presentations,
exact algebra) and the operations on them: validation, maximal trees,
presentations, classification into free products of cyclic groups,
abelianization, weighted graph homology, lower-central-series free ranks,
two-piece gluing, filtration tracking, and Hamiltonian-tree
discrimination.
"""

from . import errors
from .analysis import (
    BirthDeathEvent,
    Filtration,
    FiltrationAnalysis,
    TreeDiscriminationReport,
    analyze_filtration,
    discriminate_trees,
    enumerate_hamiltonian_trees,
    filtration_from_json,
)
from .complexes import (
    ValidationReport,
    WeightedComplex,
    complex_from_json,
    complex_to_json,
    compute_maximal_tree,
    is_weighted_subcomplex,
    validate,
)
from .exact import (
    AbelianGroup,
    IntegerMatrix,
    SnfResult,
    abelian_group_from_matrix,
    mobius,
    smith_normal_form,
)
from .invariants import (
    CyclicFactorization,
    WeightedHomology,
    abelianization,
    classify,
    lcs_free_ranks,
    normalize_factorization,
    satisfies_exactly_two,
    weighted_homology_graph,
    witt_rank,
)
from .presentation import (
    Presentation,
    abelianized_group,
    abelianized_relation_matrix,
    free_reduce,
    present,
    presentation_to_json,
)
from .vankampen import (
    CoverSpec,
    VanKampenReport,
    amalgamated_presentation,
    check_hypotheses,
    cover_from_json,
    verify_van_kampen,
)

__version__ = "0.1.0"
