"""Entanglement of two-qubit states built from real coherent amplitudes.

Public surface: coherent-state primitives, the closed-form concurrence, the
maximal/separable classification, the brute-force Fock-space oracle, and the
parameter-space scanner.
"""

from .analytic import (
    OrthonormalAmplitudes,
    SuperpositionCoeffs,
    concurrence,
    concurrence_from_amplitudes,
    gram_norm_squared,
    maximality_residual,
    orthonormal_amplitudes,
)
from .catalog import ExampleState, example_states, maximal_states, separable_states
from .classify import (
    ClassificationResult,
    RootReport,
    Verdict,
    check_class_a,
    check_class_b,
    classify,
    quadratic_roots_case1,
    quadratic_roots_case2,
    solve_coefficients_for_x,
)
from .coherent import (
    CoherentConfig,
    FockVector,
    OverlapPair,
    default_truncation,
    fock_vector,
    overlap,
    overlap_complement,
)
from .errors import (
    CohentError,
    ConsistencyError,
    DegenerateStateError,
    DomainError,
    GridSizeError,
    InputFileError,
    ScopeError,
    TruncationError,
)
from .oracle import (
    ProductStateVector,
    build_state,
    oracle_concurrence,
    schmidt_concurrence,
)
from .scan import (
    DisjointnessReport,
    ScanConfig,
    ScanHits,
    ScanOutcome,
    ScanRecord,
    grid_scan,
    oracle_spot_check,
    refine,
    refine_hits,
    run_scan,
    verify_disjoint_classes,
)
from .statespec import (
    StateSpec,
    dump_state_text,
    load_scan_file,
    load_state_file,
    parse_scan_text,
    parse_state_text,
)

__version__ = "0.1.0"

__all__ = [
    "CohentError", "ConsistencyError", "DegenerateStateError", "DomainError",
    "GridSizeError", "InputFileError", "ScopeError", "TruncationError",
    "CoherentConfig", "OverlapPair", "FockVector",
    "overlap", "overlap_complement", "fock_vector", "default_truncation",
    "SuperpositionCoeffs", "OrthonormalAmplitudes",
    "gram_norm_squared", "orthonormal_amplitudes",
    "concurrence", "concurrence_from_amplitudes", "maximality_residual",
    "Verdict", "ClassificationResult", "RootReport",
    "check_class_a", "check_class_b", "classify",
    "quadratic_roots_case1", "quadratic_roots_case2", "solve_coefficients_for_x",
    "ProductStateVector", "build_state", "schmidt_concurrence", "oracle_concurrence",
    "ScanConfig", "ScanRecord", "ScanHits", "ScanOutcome", "DisjointnessReport",
    "grid_scan", "refine", "refine_hits", "verify_disjoint_classes",
    "oracle_spot_check",
    "run_scan",
    "StateSpec", "parse_state_text", "load_state_file", "dump_state_text",
    "parse_scan_text", "load_scan_file",
    "ExampleState", "example_states", "maximal_states", "separable_states",
]
