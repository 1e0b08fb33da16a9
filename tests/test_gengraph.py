import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relctrl import (
    cone_member,
    detect_scalar_edges,
    disagreement_basis,
    effective_conductance,
    is_connected,
    is_kl_connected,
    is_strongly_connected,
    is_strongly_kl_connected,
    lineality_space,
    make_graph,
    nnls,
    path_oracle,
    range_contains,
    to_dot,
)
from relctrl.errors import GraphDomainError, NumericalFailureError, UnsupportedRenderError

from conftest import all_pairs, random_unit_incidence

WT = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
TRIANGLE = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
HYPEREDGE = np.array([[1.0], [1.0], [-2.0]])


def wt_graph():
    return make_graph(3, 1, WT)


def triangle_graph():
    return make_graph(3, 1, TRIANGLE)


def hyperedge_graph():
    return make_graph(3, 1, HYPEREDGE)


def test_make_graph_rejects_bad_column_sums():
    with pytest.raises(GraphDomainError):
        make_graph(2, 1, np.array([[1.0], [1.0]]))


def test_range_contains_own_column():
    assert range_contains(wt_graph(), np.array([[1.0], [-1.0], [0.0]]))


def test_range_contains_disagreement_basis():
    assert range_contains(wt_graph(), disagreement_basis(3))


def test_range_does_not_contain_pair_difference_of_hyperedge():
    assert not range_contains(hyperedge_graph(), np.array([[1.0], [-1.0], [0.0]]))


def test_cone_member_exact_column():
    feas = cone_member(wt_graph(), np.array([1.0, -1.0, 0.0]))
    assert feas.member
    np.testing.assert_allclose(feas.certificate, [1.0, 0.0], atol=1e-12)
    assert feas.residual <= 1e-12


def test_cone_member_reversed_edge_rejected():
    feas = cone_member(wt_graph(), np.array([-1.0, 1.0, 0.0]))
    assert not feas.member
    assert feas.certificate is None
    assert feas.residual > 0.1


def test_cone_member_triangle_path_certificate():
    feas = cone_member(triangle_graph(), np.array([-1.0, 1.0, 0.0]))
    assert feas.member
    np.testing.assert_allclose(feas.certificate, [0.0, 1.0, 1.0], atol=1e-12)


def test_cone_member_requires_real_graph():
    G = make_graph(2, 1, np.array([[1.0j], [-1.0j]]))
    with pytest.raises(GraphDomainError):
        cone_member(G, np.array([1.0, -1.0]))


def test_cone_member_marginal_band():
    # A rejection within a decade of the threshold is flagged marginal.
    G = make_graph(2, 1, np.array([[1.0], [-1.0]]))
    off = np.array([1.0, 1.0]) / np.sqrt(2.0)     # orthogonal to the cone
    near = np.array([1.0, -1.0]) + 3e-8 * off
    feas = cone_member(G, near, tol_cone=1e-8)
    assert not feas.member
    assert feas.marginal
    far = np.array([1.0, -1.0]) + 1e-3 * off
    assert not cone_member(G, far).marginal


def test_predicates_on_named_graphs():
    assert is_connected(wt_graph())
    assert not is_strongly_connected(wt_graph())
    assert is_strongly_connected(triangle_graph())
    for k, l in all_pairs(3):
        assert not is_kl_connected(hyperedge_graph(), k, l)


def test_strong_predicates_reject_complex_graphs():
    G = make_graph(2, 1, np.array([[1.0j], [-1.0j]]))
    with pytest.raises(GraphDomainError):
        is_strongly_connected(G)
    with pytest.raises(GraphDomainError):
        is_strongly_kl_connected(G, 1, 2)


@given(data=st.integers(0, 2**31 - 1))
def test_predicates_match_path_oracle(data):
    rng = np.random.default_rng(data)
    M = random_unit_incidence(rng)
    q = M.shape[0]
    G = make_graph(q, 1, M)
    assert is_connected(G) == path_oracle(M, "connected")
    assert is_strongly_connected(G) == path_oracle(M, "strong")
    for k, l in all_pairs(q):
        assert is_kl_connected(G, k, l) == path_oracle(M, "kl", k, l)
        assert is_strongly_kl_connected(G, k, l) == path_oracle(M, "strong_kl", k, l)


@given(data=st.integers(0, 2**31 - 1))
def test_cone_certificates_reconstruct_member(data):
    rng = np.random.default_rng(data)
    M = random_unit_incidence(rng)
    q = M.shape[0]
    G = make_graph(q, 1, M)
    v = M @ rng.uniform(0.0, 2.0, size=M.shape[1])
    feas = cone_member(G, v)
    assert feas.member
    assert np.linalg.norm(M @ feas.certificate - v) <= 1e-8 * (1 + np.linalg.norm(v))
    assert feas.certificate.min() >= 0.0


def test_polar_vectors_reject_members():
    # Any vector making nonpositive products with all generators makes a
    # nonpositive product with every cone member.
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(200):
        M = random_unit_incidence(rng, q_max=5, p_max=5)
        q = M.shape[0]
        G = make_graph(q, 1, M)
        etas = []
        for _ in range(400):
            eta = rng.standard_normal(q)
            if (M.T @ eta).max() <= 0.0:
                etas.append(eta)
            if len(etas) == 5:
                break
        if not etas:
            continue
        hits += 1
        v = M @ rng.uniform(0.0, 1.0, size=M.shape[1])
        for eta in etas:
            assert v @ eta <= 1e-10 * (1 + np.linalg.norm(v))
    assert hits > 50


def test_lineality_single_reversible_edge():
    G = make_graph(3, 1, np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 1.0], [0.0, 0.0, -1.0]]))
    basis = lineality_space(G)
    assert basis.dim == 1
    direction = basis.columns[:, 0]
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    assert min(
        np.linalg.norm(direction - expected), np.linalg.norm(direction + expected)
    ) <= 1e-10


def test_lineality_triangle_is_disagreement_plane():
    basis = lineality_space(triangle_graph())
    assert basis.dim == 2
    np.testing.assert_allclose(np.ones(3) @ basis.columns, 0.0, atol=1e-10)


def test_lineality_pointed_cone_is_trivial():
    assert lineality_space(wt_graph()).dim == 0


def test_detect_scalar_edges_watertanks():
    edges = detect_scalar_edges(wt_graph())
    assert [(i, j, float(w[0])) for i, j, w in edges] == [(1, 2, 1.0), (2, 3, 1.0)]


def test_detect_scalar_edges_skips_zero_columns():
    M = np.array([[1.0, 0.0], [-1.0, 0.0]])
    edges = detect_scalar_edges(make_graph(2, 1, M))
    assert len(edges) == 1


def test_detect_scalar_edges_hyperedge_is_none():
    assert detect_scalar_edges(hyperedge_graph()) is None


def test_detect_scalar_edges_vector_weights():
    w = np.array([0.5, -2.0])
    col = np.kron(np.array([1.0, 0.0, -1.0]), w)
    G = make_graph(3, 2, col[:, None])
    ((i, j, weight),) = detect_scalar_edges(G)
    assert (i, j) == (1, 3)
    np.testing.assert_allclose(weight, w)


def test_to_dot_watertanks_snapshot():
    expected = (
        "digraph {\n"
        '  "1";\n'
        '  "2";\n'
        '  "3";\n'
        '  "1" -> "2" [label="1"];\n'
        '  "2" -> "3" [label="1"];\n'
        "}\n"
    )
    assert to_dot(wt_graph()) == expected
    assert to_dot(wt_graph()) == to_dot(wt_graph())


def test_to_dot_triangle_has_three_arcs():
    text = to_dot(triangle_graph())
    assert text.count("->") == 3


def test_to_dot_rejects_hyperedge():
    with pytest.raises(UnsupportedRenderError):
        to_dot(hyperedge_graph())


def test_effective_conductance_hyperedge_zero():
    for k, l in all_pairs(3):
        assert effective_conductance(hyperedge_graph(), k, l) == 0.0


def test_effective_conductance_single_edge():
    G = make_graph(2, 1, np.array([[1.0], [-1.0]]))
    assert effective_conductance(G, 1, 2) == pytest.approx(1.0)


def test_effective_conductance_triangle():
    for k, l in all_pairs(3):
        assert effective_conductance(triangle_graph(), k, l) == pytest.approx(1.5)


def test_effective_conductance_matches_pairwise_connectivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        M = random_unit_incidence(rng)
        q = M.shape[0]
        G = make_graph(q, 1, M)
        for k, l in all_pairs(q):
            positive = effective_conductance(G, k, l) > 0.0
            assert positive == is_kl_connected(G, k, l)


def test_nnls_solutions_are_optimal():
    # The program is convex, so feasibility plus the first-order
    # conditions certify global optimality; the reference, a separate
    # bounded-variable least squares implementation, only needs to never
    # beat us.  Opposite pairs, exact duplicates and zero columns are the
    # degenerate instances an active-set method can cycle or stall on.
    from scipy.optimize import lsq_linear

    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 8))
        c = int(rng.integers(1, 10))
        M = rng.standard_normal((m, c))
        if rng.random() < 0.3 and c >= 2:
            M[:, c - 1] = -M[:, 0]          # plant an exact opposite pair
        if rng.random() < 0.3 and c >= 2:
            i, j = rng.choice(c, size=2, replace=False)
            M[:, j] = M[:, i]               # plant an exact duplicate
        zero = rng.random(c) < 0.15
        M[:, zero] = 0.0
        v = rng.standard_normal(m)
        if rng.random() < 0.5:
            v = M @ rng.uniform(0, 1, size=c)   # known member
        scale = 1.0 + np.linalg.norm(v)

        ours_x, ours_r = nnls(M, v)
        assert ours_x.min() >= 0.0
        assert np.all(ours_x[zero] == 0.0)
        assert abs(ours_r - np.linalg.norm(M @ ours_x - v)) <= 1e-12 * scale
        grad = M.T @ (v - M @ ours_x)
        assert grad.max(initial=0.0) <= 1e-8 * scale          # no descent direction
        assert abs(grad @ ours_x) <= 1e-8 * scale * (1 + ours_x.max())

        ref = lsq_linear(M, v, bounds=(0.0, np.inf), method="bvls")
        ref_r = np.linalg.norm(M @ ref.x - v)
        assert ours_r <= ref_r + 1e-9 * scale


def test_nnls_zero_target():
    x, resid = nnls(WT, np.zeros(3))
    np.testing.assert_array_equal(x, np.zeros(2))
    assert resid == 0.0


def test_nnls_no_columns():
    x, resid = nnls(np.zeros((3, 0)), np.array([1.0, -1.0, 0.0]))
    assert x.shape == (0,)
    assert resid == pytest.approx(np.sqrt(2))


def test_nnls_no_rows():
    x, resid = nnls(np.zeros((0, 2)), np.zeros(0))
    np.testing.assert_array_equal(x, np.zeros(2))
    assert resid == 0.0


def test_nnls_iteration_cap_raises_numerical_failure():
    # Reaching the positive orthant target takes two active-set steps.
    with pytest.raises(NumericalFailureError, match="exceeded 1 iterations"):
        nnls(np.eye(2), np.array([1.0, 1.0]), max_iter=1)


def test_empty_graph_predicates():
    G = make_graph(2, 1, np.zeros((2, 0)))
    assert not is_connected(G)
    assert not is_strongly_connected(G)
    assert not is_kl_connected(G, 1, 2)
