"""The names ``relctrl`` exports, and where the retired ones still live."""

import importlib

import pytest

import relctrl

PUBLIC = [
    "AnalysisError",
    "AnalysisReport",
    "ArraySpec",
    "DEFAULT_TOLERANCES",
    "EigGraphVerdict",
    "GenGraph",
    "REPORT_SCHEMA",
    "Spectrum",
    "Tolerances",
    "analyze",
    "analyze_with_graphs",
    "brammer_positive",
    "build_example",
    "cross_check",
    "example_names",
    "kalman_reduced",
    "nnls",
    "pairwise_range",
    "path_oracle",
    "polar_falsifier",
    "reach_simulator",
    "render_json",
    "render_text",
    "report_to_dict",
]

# Names that left __all__ but stay importable from their defining module.
RETIRED = {
    "array_model": [
        "BigOperators", "ValidationReport", "build_big", "disagreement_basis",
        "validate_array",
    ],
    "controllability": [
        "check_assumption_closed_structural", "check_assumption_eigen",
        "controllability_matrix", "q_graphs_and_index_sets", "v_graphs", "w_graphs",
    ],
    "gengraph": [
        "Feasibility", "cone_member", "detect_scalar_edges", "is_connected",
        "lineality_space", "make_graph", "range_contains", "to_dot",
    ],
    "oracles": ["OracleVerdict"],
    "spectral": [
        "EigComponent", "distinct_eigenvalues", "restriction",
    ],
}

# Names deleted outright: each restated a field of analyze's report or a
# one-line call of kl_connected_pairs, cone_contains_subspace and
# lineality_generators, or (oracles) set or wrapped the reach simulator's
# own time grid, which is now the falsifier's, or (spectral) factored
# A* - mu I a second time for the bases that one SVD now gives.  The
# whole-matrix W check (controllability) restated the eigenvalue graphs'
# verdicts, and InternalConsistencyError (errors) was its raise.
DELETED = {
    "controllability": [
        "IndexRecursionTrace", "WMatrixVerdict", "is_controllable",
        "is_pairwise_controllable", "is_positive_pairwise_controllable",
        "is_positively_controllable", "w_matrix_verdict",
    ],
    "errors": ["InternalConsistencyError"],
    "gengraph": ["is_kl_connected", "is_strongly_connected", "is_strongly_kl_connected"],
    "oracles": ["REACH_HORIZON", "REACH_STEPS", "ReachProblem", "make_reach_problem"],
    "spectral": ["eigenvector_basis", "generalized_basis"],
}


def test_all_is_the_agreed_list():
    assert relctrl.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(relctrl, name) is not None


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from relctrl import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(PUBLIC)


@pytest.mark.parametrize("module", sorted(RETIRED))
def test_retired_names_import_from_their_module(module):
    mod = importlib.import_module(f"relctrl.{module}")
    for name in RETIRED[module]:
        assert hasattr(mod, name), f"relctrl.{module}.{name}"
        assert name not in relctrl.__all__


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(f"relctrl.{module}")
    for name in DELETED[module]:
        assert not hasattr(mod, name), f"relctrl.{module}.{name}"
        assert not hasattr(relctrl, name), f"relctrl.{name}"
