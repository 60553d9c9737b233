"""Priorities and inconsistency indices for (incomplete) pairwise comparison matrices."""

from .core import (
    MISSING,
    BadDiagonal,
    BadSize,
    MatrixSyntaxError,
    NonPositiveEntry,
    NonSquare,
    NotComplete,
    NotIrreducible,
    PCError,
    PCMatrix,
    ReciprocityViolation,
    Triad,
    defined_pairs,
    is_complete,
    list_triads,
    parse_matrix,
    serialize_matrix,
    validate,
)
from .graph import (
    ComparisonGraph,
    Cycle,
    CycleCapExceeded,
    NoPath,
    Path,
    build_graph,
    enumerate_cycles,
    enumerate_paths,
    is_irreducible,
)
from .priority import (
    EigenResult,
    NotConverged,
    ReducibleInput,
    SingularSystem,
    evm,
    gmm,
    harker_matrix,
    harker_rank,
    ills,
    principal_eigen,
)
from .indices import (
    CLASSICAL_NAMES,
    INDEX_NAMES,
    BadParams,
    CycleIndices,
    NonFiniteIndex,
    all_indices,
    blend,
    check_blend,
    classical_indices,
    cycle_based_indices,
    harker_ci,
    least_squares_indices,
    oliva_index,
    sh_index_inc,
)
from .montecarlo import (
    BadK,
    DistanceTable,
    ExperimentConfig,
    disturb,
    gen_consistent,
    remove_comparisons,
    run_experiment,
)

__version__ = "0.1.0"
