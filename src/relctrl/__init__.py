"""Controllability analysis for arrays of identical systems under relative actuation.

The package decides four questions about an array of q identical linear
systems sharing p relative inputs: controllability, positive
controllability, pairwise controllability and positive pairwise
controllability.  Each question reduces to connectivity of
eigenvalue-indexed generalized graphs, and every verdict can be
cross-checked against an independent brute-force oracle.
"""

from .array_model import (
    ArraySpec,
    BigOperators,
    ValidationReport,
    build_big,
    disagreement_basis,
    validate_array,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .controllability import (
    AnalysisReport,
    EigGraphVerdict,
    IndexRecursionTrace,
    analyze,
    analyze_with_graphs,
    check_assumption_closed_structural,
    check_assumption_eigen,
    controllability_matrix,
    is_controllable,
    is_pairwise_controllable,
    is_positive_pairwise_controllable,
    is_positively_controllable,
    q_graphs_and_index_sets,
    v_graphs,
    w_graphs,
)
from .corpus import build_example, example_names
from .errors import AnalysisError
from .gengraph import (
    Feasibility,
    GenGraph,
    cone_member,
    detect_scalar_edges,
    is_connected,
    is_kl_connected,
    is_strongly_connected,
    is_strongly_kl_connected,
    lineality_space,
    make_graph,
    nnls,
    range_contains,
    to_dot,
)
from .oracles import (
    OracleVerdict,
    ReachProblem,
    brammer_positive,
    kalman_reduced,
    make_reach_problem,
    pairwise_range,
    path_oracle,
    polar_falsifier,
    reach_simulator,
)
from .report import REPORT_SCHEMA, render_json, render_text, report_to_dict
from .spectral import (
    EigComponent,
    Spectrum,
    distinct_eigenvalues,
    eigenvector_basis,
    generalized_basis,
    restriction,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "ArraySpec",
    "BigOperators",
    "DEFAULT_TOLERANCES",
    "EigComponent",
    "EigGraphVerdict",
    "Feasibility",
    "GenGraph",
    "IndexRecursionTrace",
    "OracleVerdict",
    "REPORT_SCHEMA",
    "ReachProblem",
    "Spectrum",
    "Tolerances",
    "ValidationReport",
    "analyze",
    "analyze_with_graphs",
    "brammer_positive",
    "build_big",
    "build_example",
    "check_assumption_closed_structural",
    "check_assumption_eigen",
    "cone_member",
    "controllability_matrix",
    "detect_scalar_edges",
    "disagreement_basis",
    "distinct_eigenvalues",
    "eigenvector_basis",
    "example_names",
    "generalized_basis",
    "is_connected",
    "is_controllable",
    "is_kl_connected",
    "is_pairwise_controllable",
    "is_positive_pairwise_controllable",
    "is_positively_controllable",
    "is_strongly_connected",
    "is_strongly_kl_connected",
    "kalman_reduced",
    "lineality_space",
    "make_graph",
    "make_reach_problem",
    "nnls",
    "pairwise_range",
    "path_oracle",
    "polar_falsifier",
    "q_graphs_and_index_sets",
    "range_contains",
    "reach_simulator",
    "render_json",
    "render_text",
    "report_to_dict",
    "restriction",
    "to_dot",
    "v_graphs",
    "validate_array",
    "w_graphs",
]
