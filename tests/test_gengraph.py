import inspect
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relctrl.controllability as controllability_module
import relctrl.gengraph as gengraph_module
from relctrl import nnls, path_oracle
from relctrl.array_model import disagreement_basis
from relctrl.config import DEFAULT_TOLERANCES, KKT, Tolerances
from relctrl.errors import (
    DimensionError,
    GraphDomainError,
    NumericalFailureError,
    UnsupportedRenderError,
)
from relctrl.gengraph import (
    GenGraph,
    _range_complement,
    blocks_in_range,
    cone_contains_subspace,
    cone_member,
    detect_scalar_edges,
    is_connected,
    kl_connected_pairs,
    lineality_generators,
    lineality_space,
    make_graph,
    range_contains,
    to_dot,
)
from relctrl.numutil import equilibrated, null_basis, pair_difference

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


def test_make_graph_checks_its_row_count():
    with pytest.raises(DimensionError, match="3 rows, expected q\\*n = 4"):
        make_graph(2, 2, WT)


def test_null_basis_of_empty_matrices():
    # No columns: a null space of dimension 0; no rows: all of R^c.
    assert null_basis(np.zeros((3, 0))).shape == (0, 0)
    np.testing.assert_array_equal(null_basis(np.zeros((0, 4))), np.eye(4))


def test_range_contains_own_column():
    assert range_contains(wt_graph(), np.array([[1.0], [-1.0], [0.0]]))


def test_range_contains_disagreement_basis():
    assert range_contains(wt_graph(), disagreement_basis(3))


def test_range_does_not_contain_pair_difference_of_hyperedge():
    assert not range_contains(hyperedge_graph(), np.array([[1.0], [-1.0], [0.0]]))


def reference_range_contains(G, T, tol_rank=1e-9):
    """Earlier rule, rank([Gn, Tn]) == rank(Gn) at one cutoff, kept as a reference.

    Returns (verdict, decisive); decisive is False when a singular value
    of either matrix lies within a factor 10 of the cutoff, where two
    sound rules may legitimately round differently.
    """
    Gn = equilibrated(G.M, tol_rank)
    Tn = equilibrated(np.atleast_2d(T), tol_rank)
    if Tn.shape[1] == 0:
        return True, True
    aug = np.hstack([Gn, Tn]) if Gn.shape[1] else Tn
    s_aug = np.linalg.svd(aug, compute_uv=False)
    cutoff = tol_rank * float(s_aug[0])
    s_g = np.linalg.svd(Gn, compute_uv=False) if Gn.size else np.zeros(0)
    near = [s for s in np.concatenate([s_aug, s_g]) if cutoff / 10 < s < 10 * cutoff]
    return int(np.sum(s_aug > cutoff)) == int(np.sum(s_g > cutoff)), not near


@st.composite
def generalized_graphs(draw):
    """Random real or complex graphs: wide or tall, with hyperedges, dependent
    and zero columns, and column norms spread over six decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, b = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    is_complex = draw(st.booleans())
    hyper_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))

    def weights(*shape):
        w = rng.standard_normal(shape)
        return w + 1j * rng.standard_normal(shape) if is_complex else w

    cols = []
    for _ in range(draw(st.integers(0, q * b + 2))):
        if rng.random() < hyper_frac:
            blocks = weights(q, b)
            blocks -= blocks.mean(axis=0)
        else:
            blocks = np.zeros((q, b), dtype=complex if is_complex else float)
            i, j = rng.choice(q, size=2, replace=False)
            blocks[i] = weights(b)
            blocks[j] = -blocks[i]
        cols.append(blocks.ravel())
    M = np.stack(cols, axis=1) if cols else np.zeros((q * b, 0))
    dependent = [M @ weights(M.shape[1]) for _ in range(draw(st.integers(0, 3)))] if cols else []
    zeros = [np.zeros(q * b)] * draw(st.integers(0, 2))
    M = np.column_stack([M, *dependent, *zeros]) if dependent or zeros else M
    M = M[:, rng.permutation(M.shape[1])] * 10.0 ** rng.uniform(-3, 3, M.shape[1])
    return make_graph(q, b, M), rng


@settings(max_examples=150)
@given(drawn=generalized_graphs())
def test_range_contains_matches_reference_rank_rule(drawn):
    G, rng = drawn
    q, b = G.q, G.blocksize
    m = q * b
    targets = [rng.standard_normal((m, int(rng.integers(1, 4))))]
    if G.n_columns:
        targets.append(G.M @ rng.standard_normal((G.n_columns, int(rng.integers(1, 4)))))
    decided = 0
    for T in targets:
        want, decisive = reference_range_contains(G, T)
        if decisive:
            assert range_contains(G, T) == want
            decided += 1
    want, decisive = reference_range_contains(G, np.kron(disagreement_basis(q), np.eye(b)))
    if decisive:
        assert is_connected(G) == want
        decided += 1
    for k, l in all_pairs(q):
        T = np.kron(pair_difference(q, k, l)[:, None], np.eye(b))
        want, decisive = reference_range_contains(G, T)
        if decisive:
            assert kl_connected_pairs(G, [(k, l)]) == [want]
            decided += 1
    assume(decided > 0)


@st.composite
def pair_questions(draw):
    """A graph from generalized_graphs, or a GenGraph around an arbitrary
    matrix (a wide one has full row rank, so an empty complement), rebuilt
    under a rank tolerance, and that tolerance; 1.0 makes equilibrated
    drop every target column."""
    G, rng = draw(generalized_graphs())
    M = G.M
    if draw(st.booleans()):
        m = G.q * G.blocksize
        M = rng.standard_normal((m, draw(st.sampled_from([0, m // 2, m, m + 3]))))
        if not G.is_real:
            M = M + 1j * rng.standard_normal(M.shape)
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.3, 1.0]))
    return GenGraph(G.q, G.blocksize, M, G.is_real, Tolerances(rank=tol)), tol


@settings(max_examples=150)
@given(drawn=pair_questions())
def test_kl_connected_pairs_matches_range_contains(drawn):
    G, tol = drawn
    q, b = G.q, G.blocksize
    pairs = all_pairs(q)
    got = kl_connected_pairs(G, pairs)
    assert all(type(flag) is bool for flag in got)
    Nh, bound = _range_complement(G)
    decided = 0
    for (k, l), flag in zip(pairs, got):
        T = np.kron(pair_difference(q, k, l)[:, None], np.eye(b))
        # Skip residuals whose norms sit at a threshold of the rule, where
        # two orders of the same arithmetic may round differently.
        X = Nh @ equilibrated(T, tol)
        if X.size:
            fro = np.linalg.norm(X)
            norms = (fro, fro / np.sqrt(min(X.shape)), np.linalg.norm(X, 2))
            if any(abs(v / bound - 1.0) < 1e-6 for v in norms):
                continue
        assert flag == range_contains(G, T)
        decided += 1
    assume(decided > 0)
    assert kl_connected_pairs(G, []) == []


@st.composite
def block_questions(draw):
    """A graph and tolerance from pair_questions and a target of width-column
    blocks: each block mixes columns inside the range, random columns and
    zero columns, with its own magnitude, and one column of a block may sit
    up to twelve decades below the others."""
    G, tol = draw(pair_questions())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, c = G.M.shape
    width = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        cols = []
        for _ in range(width):
            kind = draw(st.sampled_from(["inside", "random", "zero"] if c else ["random", "zero"]))
            if kind == "inside":
                col = G.M @ rng.standard_normal(c)
            elif kind == "random":
                col = rng.standard_normal(m)
            else:
                col = np.zeros(m)
            cols.append(col if G.is_real else col * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        block = np.column_stack(cols) * 10.0 ** rng.uniform(-6, 6)
        block[:, rng.integers(width)] *= 10.0 ** -rng.uniform(0, 12)
        blocks.append(block)
    T = np.hstack(blocks) if blocks else np.zeros((m, 0))
    return G, tol, T, width


@settings(max_examples=150)
@given(drawn=block_questions())
def test_blocks_in_range_matches_range_contains_per_block(drawn):
    G, tol, T, width = drawn
    got = blocks_in_range(G, T, width)
    assert all(type(flag) is bool for flag in got)
    assert len(got) == T.shape[1] // width
    Nh, bound = _range_complement(G)
    for j, flag in enumerate(got):
        block = T[:, j * width : (j + 1) * width]
        # Skip residuals at a threshold of the rule, as for the pairs.
        X = Nh @ equilibrated(block, tol)
        if X.size:
            fro = np.linalg.norm(X)
            norms = (fro, fro / np.sqrt(min(X.shape)), np.linalg.norm(X, 2))
            if any(abs(v / bound - 1.0) < 1e-6 for v in norms):
                continue
        assert flag == range_contains(G, block)


def test_blocks_in_range_equilibrates_each_block_on_its_own():
    # The second block's small column leans out of the range.  Next to its
    # own unit column it counts; next to the first block's 1e12 column it
    # falls below the drop rule, so one block of all four columns passes.
    G = make_graph(3, 1, np.array([[1.0], [-1.0], [0.0]]))
    edge, lean = np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, -2.0])
    T = np.column_stack([1e12 * edge, edge, edge, 1e-6 * lean])
    assert blocks_in_range(G, T, 2) == [True, False]
    assert range_contains(G, T[:, :2]) and not range_contains(G, T[:, 2:])
    assert range_contains(G, T)


def test_blocks_in_range_on_a_full_rank_graph():
    # A full-row-rank matrix leaves a complement with no rows: every block
    # lies in its range, and none of the stacks is empty of blocks.
    rng = np.random.default_rng(3)
    G = GenGraph(3, 2, rng.standard_normal((6, 9)), True, DEFAULT_TOLERANCES)
    assert _range_complement(G)[0].shape == (0, 6)
    assert blocks_in_range(G, rng.standard_normal((6, 6)), 3) == [True, True]
    assert blocks_in_range(G, np.zeros((6, 0)), 2) == []
    assert lineality_space(triangle_graph()).shape == (3, 2)


def test_blocks_in_range_checks_its_shapes():
    for T, width in [(np.zeros((3, 4)), 3), (np.zeros((3, 4)), 0), (np.zeros((2, 2)), 1)]:
        with pytest.raises(DimensionError):
            blocks_in_range(wt_graph(), T, width)


def test_kl_connected_pairs_bounds_the_spectral_norm_of_each_residual():
    # Two orthonormal edges of a q = 3, b = 2 graph lean out of the plane
    # of pair (1,2) towards vertex 3 by angles of sine a and c, so that
    # pair's residual has singular values a and c; pair (1,3) is far off.
    def graph(a, c):
        t = np.kron(pair_difference(3, 1, 2)[:, None], np.eye(2)) / np.sqrt(2.0)
        n = np.kron(np.array([[1.0], [1.0], [-2.0]]), np.eye(2)) / np.sqrt(6.0)
        lean = np.array([a, c])
        return make_graph(3, 2, t * np.sqrt(1.0 - lean**2) + n * lean, Tolerances(rank=1e-3))

    pairs = [(1, 2), (1, 3), (2, 1)]
    # Frobenius norm 1.13e-3 > 1e-3 >= spectral norm 0.8e-3.
    assert kl_connected_pairs(graph(8e-4, 8e-4), pairs) == [True, False, True]
    # Frobenius norm 1.21e-3 <= sqrt(2) 1e-3, spectral norm 1.1e-3 > 1e-3.
    assert kl_connected_pairs(graph(5e-4, 1.1e-3), pairs) == [False, False, False]


def test_kl_connected_pairs_over_many_stacks():
    # Systems 1-10 of 40 form a path with full 8 x 8 edges; the other 30
    # are isolated.  The complement has dimension 248, so the 1560 ordered
    # pairs are judged in a dozen stacks of 2**18 entries or fewer.
    q, b = 40, 8
    M = np.kron(np.eye(q, 9, k=0) - np.eye(q, 9, k=-1), np.eye(b))
    pairs = all_pairs(q)
    got = kl_connected_pairs(make_graph(q, b, M), pairs)
    assert got == [k <= 10 and l <= 10 for k, l in pairs]


def test_kl_connected_pairs_checks_every_pair():
    for bad in [(1, 1), (0, 2), (2, 4)]:
        with pytest.raises(DimensionError):
            kl_connected_pairs(wt_graph(), [(1, 2), bad])


def count_svd_calls(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _leaning_graph(tol):
    # The second edge leans 1e-6 off the first: its direction counts at
    # rank tolerance 1e-9 and falls below the cutoff at 1e-3.
    lean = np.array([1.0, 1.0, -2.0])
    M = np.column_stack([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0] + 1e-6 * lean])
    return make_graph(3, 1, M, tol), lean[:, None]


def test_range_complement_is_factored_once_per_graph(monkeypatch):
    G, T = _leaning_graph(DEFAULT_TOLERANCES)
    calls = count_svd_calls(monkeypatch)
    for _ in range(3):
        assert range_contains(G, T)
        assert is_connected(G)
        assert kl_connected_pairs(G, [(1, 3)]) == [True]
        assert blocks_in_range(G, np.hstack([T, G.M]), 1) == [True, True, True]
    assert len(calls) == 1


def test_graphs_under_two_rank_tolerances_judge_the_leaning_edge_apart():
    fine, T = _leaning_graph(Tolerances(rank=1e-9))
    coarse, _ = _leaning_graph(Tolerances(rank=1e-3))
    assert range_contains(fine, T) and not range_contains(coarse, T)
    assert is_connected(fine) and not is_connected(coarse)
    assert kl_connected_pairs(fine, [(1, 3)]) == [True]
    assert kl_connected_pairs(coarse, [(1, 3), (1, 2)]) == [False, True]


def test_range_contains_bounds_the_spectral_norm_of_the_residual():
    # One edge in R^4 leaves a two-dimensional complement; each target
    # column leans a residual of 0.8e-3 or 0.75e-3 out of the range.
    edge = np.array([1.0, -1.0, 0.0, 0.0])
    n1 = np.array([1.0, 1.0, -2.0, 0.0]) / np.sqrt(6.0)
    n2 = np.array([1.0, 1.0, 1.0, -3.0]) / np.sqrt(12.0)
    G = make_graph(4, 1, edge[:, None], Tolerances(rank=1e-3))

    def leaning(r, n):
        # Unit column whose residual outside span(edge) is exactly r.
        return np.sqrt(1.0 - r * r) * edge / np.sqrt(2.0) + r * n

    # Orthogonal residuals: spectral norm 0.8e-3 <= 1e-3 < Frobenius norm.
    assert range_contains(G, np.column_stack([leaning(8e-4, n1), leaning(8e-4, n2)]))
    # Parallel residuals: spectral norm 0.75e-3 * sqrt(2) > 1e-3.
    assert not range_contains(G, np.column_stack([leaning(7.5e-4, n1), leaning(7.5e-4, n1)]))


def test_graph_matrix_is_read_only():
    G = wt_graph()
    with pytest.raises(ValueError):
        G.M[0, 0] = 2.0
    assert WT[0, 0] == 1.0


def test_cone_member_exact_column():
    feas = cone_member(wt_graph(), np.array([1.0, -1.0, 0.0]))
    assert feas.member
    np.testing.assert_allclose(feas.weights, [1.0, 0.0], atol=1e-12)
    assert feas.residual <= 1e-12


def test_cone_member_reversed_edge_rejected():
    feas = cone_member(wt_graph(), np.array([-1.0, 1.0, 0.0]))
    assert not feas.member
    assert feas.residual > 0.1
    assert feas.weights.shape == (2,) and feas.weights.min() >= 0.0


def test_cone_member_triangle_path_certificate():
    feas = cone_member(triangle_graph(), np.array([-1.0, 1.0, 0.0]))
    assert feas.member
    np.testing.assert_allclose(feas.weights, [0.0, 1.0, 1.0], atol=1e-12)


def test_cone_member_requires_real_graph():
    G = make_graph(2, 1, np.array([[1.0j], [-1.0j]]))
    with pytest.raises(GraphDomainError):
        cone_member(G, np.array([1.0, -1.0]))


def test_cone_member_marginal_band():
    # A rejection within a decade of the threshold is flagged marginal.
    G = make_graph(2, 1, np.array([[1.0], [-1.0]]), Tolerances(cone=1e-8))
    off = np.array([1.0, 1.0]) / np.sqrt(2.0)     # orthogonal to the cone
    near = np.array([1.0, -1.0]) + 3e-8 * off
    feas = cone_member(G, near)
    assert not feas.member
    assert feas.marginal
    far = np.array([1.0, -1.0]) + 1e-3 * off
    assert not cone_member(G, far).marginal


def test_predicates_on_named_graphs():
    assert is_connected(wt_graph())
    assert not cone_contains_subspace(wt_graph())[0]
    assert cone_contains_subspace(triangle_graph())[0]
    assert not any(kl_connected_pairs(hyperedge_graph(), all_pairs(3)))


def test_strong_predicates_reject_complex_graphs():
    G = make_graph(2, 1, np.array([[1.0j], [-1.0j]]))
    with pytest.raises(GraphDomainError):
        cone_contains_subspace(G)
    with pytest.raises(GraphDomainError):
        lineality_generators(G)


@given(data=st.integers(0, 2**31 - 1))
def test_predicates_match_path_oracle(data):
    rng = np.random.default_rng(data)
    M = random_unit_incidence(rng)
    q = M.shape[0]
    G = make_graph(q, 1, M)
    pairs = all_pairs(q)
    assert is_connected(G) == path_oracle(M, "connected")
    assert cone_contains_subspace(G)[0] == path_oracle(M, "strong")
    assert kl_connected_pairs(G, pairs) == [path_oracle(M, "kl", *pair) for pair in pairs]
    assert kl_connected_pairs(lineality_generators(G).graph, pairs) == [
        path_oracle(M, "strong_kl", *pair) for pair in pairs
    ]


@given(data=st.integers(0, 2**31 - 1))
def test_cone_certificates_reconstruct_member(data):
    rng = np.random.default_rng(data)
    M = random_unit_incidence(rng)
    q = M.shape[0]
    G = make_graph(q, 1, M)
    v = M @ rng.uniform(0.0, 2.0, size=M.shape[1])
    feas = cone_member(G, v)
    assert feas.member
    assert np.linalg.norm(M @ feas.weights - v) <= 1e-8 * (1 + np.linalg.norm(v))
    assert feas.weights.min() >= 0.0


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
    assert basis.shape[1] == 1
    direction = basis[:, 0]
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    assert min(
        np.linalg.norm(direction - expected), np.linalg.norm(direction + expected)
    ) <= 1e-10


def test_lineality_triangle_is_disagreement_plane():
    basis = lineality_space(triangle_graph())
    assert basis.shape[1] == 2
    np.testing.assert_allclose(np.ones(3) @ basis, 0.0, atol=1e-10)


def test_lineality_pointed_cone_is_trivial():
    assert lineality_space(wt_graph()).shape[1] == 0


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


def test_to_dot_complex_weights_snapshot():
    # A complex weight keeps its phase (no flip); an imaginary part twelve
    # orders below the real one is float noise and is dropped.
    G = make_graph(2, 1, np.array([[1.0 + 2.0j, 3.0 + 1e-15j], [-1.0 - 2.0j, -3.0]]))
    assert to_dot(G) == (
        'digraph {\n  "1";\n  "2";\n'
        '  "1" -> "2" [label="1+2j"];\n  "1" -> "2" [label="3"];\n}\n'
    )


def test_to_dot_vector_weights_snapshot():
    G = make_graph(3, 2, np.array([[0.0], [0.0], [1.0], [0.25], [-1.0], [-0.25]]))
    assert to_dot(G) == (
        'digraph {\n  "1";\n  "2";\n  "3";\n  "2" -> "3" [label="(1, 0.25)"];\n}\n'
    )


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


def _certificate_breach(M, v, x):
    # max over j of g_j, and of |g_j| where x_j > 0, with g the gradient
    # of the unit-column program, over the certificate's kappa.
    norms = np.linalg.norm(M, axis=0)
    U = M / np.where(norms > 0.0, norms, 1.0)
    g = U.T @ (v - M @ x)
    worst = np.where(x > 0.0, np.abs(g), g).max(initial=0.0)
    return worst / (KKT * (1.0 + np.linalg.norm(v)))


def wide_matrix(draw):
    # A wide matrix as the oracles pose them, with planted exact duplicates
    # and exactly opposite columns, and the generator that drew it.
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    m = draw(st.integers(1, 12))
    c = draw(st.integers(2 * m + 1, 2000))
    M = rng.standard_normal((m, c))
    planted = rng.choice(c, size=(2, c // 4), replace=False)
    M[:, planted[1]] = M[:, planted[0]] * rng.choice([-1.0, 1.0], size=c // 4)
    return rng, M


def wide_target(rng, M, inside):
    # A sparse nonnegative combination of the columns, or a generic target.
    m, c = M.shape
    if inside:
        return M @ (rng.uniform(0.0, 1.0, c) * (rng.random(c) < 0.02))
    return rng.standard_normal(m)


@st.composite
def wide_programs(draw):
    # Wide programs with targets inside and outside the cone.
    rng, M = wide_matrix(draw)
    return M, wide_target(rng, M, draw(st.booleans()))


@settings(max_examples=50)
@given(drawn=wide_programs())
def test_nnls_wide_programs_match_bvls(drawn):
    from scipy.optimize import lsq_linear

    M, v = drawn
    x, residual = nnls(M, v)
    assert x.min() >= 0.0
    assert _certificate_breach(M, v, x) <= 1.0
    ref = lsq_linear(M, v, bounds=(0.0, np.inf), method="bvls")
    assert abs(residual - np.linalg.norm(M @ ref.x - v)) <= 1e-12 * (1.0 + np.linalg.norm(v))


def _stalled_peel_program():
    # The first peel program of the q = 5 graph below: the compiled solver
    # alone stops at residual 1.2943 with a gradient entry of +0.092.
    edges = [(1, 3), (2, 5), (5, 1), (2, 4), (3, 1), (1, 5), (4, 1), (4, 2)]
    M = np.zeros((5, len(edges)))
    for s, (i, j) in enumerate(edges):
        M[i - 1, s], M[j - 1, s] = 1.0, -1.0
    return M, -(M / np.linalg.norm(M, axis=0)).sum(axis=1)


def test_nnls_certifies_the_stalled_peel_program():
    M, v = _stalled_peel_program()
    x, residual = nnls(M, v)
    assert residual == pytest.approx(1.2909944487358056, abs=1e-12)
    assert _certificate_breach(M, v, x) <= 1.0
    # One cone_member call decides at the true distance: with the bound
    # between the optimum 1.2910 and the stalled 1.2943, v is a member.
    tol = Tolerances(cone=1.2925 / (1.0 + np.linalg.norm(v)))
    feas = cone_member(make_graph(5, 1, M, tol), v)
    assert feas.member and feas.residual == pytest.approx(residual, abs=1e-12)


def test_nnls_falls_back_to_bvls_when_the_solver_stalls(monkeypatch):
    import scipy.optimize

    M, v = WT, np.array([1.0, 0.0, -1.0])
    fallbacks = []
    bvls = scipy.optimize.lsq_linear

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return bvls(*args, **kwargs)

    # A compiled solver that returns zero weights on every program.
    monkeypatch.setattr(scipy.optimize, "nnls", lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0))
    monkeypatch.setattr(scipy.optimize, "lsq_linear", counting)
    x, residual = nnls(M, v)
    assert len(fallbacks) == 1
    assert residual == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    class Stalled:
        x = np.zeros(2)

    monkeypatch.setattr(scipy.optimize, "lsq_linear", lambda *args, **kwargs: Stalled)
    with pytest.raises(NumericalFailureError, match="gradient"):
        nnls(M, v)


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
    assert not cone_contains_subspace(G)[0]
    assert kl_connected_pairs(G, [(1, 2)]) == [False]


# ---------------------------------------------------------------------------
# lineality peel


def _random_cone_graph(rng):
    """Edges and hyperedges on q vertices with blocks of size 1-3.

    Some draws plant lineality (the negated positive sum of a few
    columns), exact duplicates and zero columns; column norms span six
    decades.
    """
    q = int(rng.integers(2, 6))
    b = int(rng.integers(1, 4))
    cols = []
    for _ in range(int(rng.integers(1, 8))):
        if rng.random() < 0.7:
            i, j = rng.choice(q, size=2, replace=False)
            col = np.zeros((q, b))
            w = rng.standard_normal(b)
            col[i], col[j] = w, -w
        else:
            col = rng.standard_normal((q, b))
            col -= col.mean(axis=0)
        cols.append(col.ravel())
    M = np.stack(cols, axis=1)
    if rng.random() < 0.5:
        chosen = rng.choice(M.shape[1], size=int(rng.integers(1, M.shape[1] + 1)), replace=False)
        planted = -M[:, chosen] @ rng.uniform(0.5, 2.0, size=chosen.size)
        M = np.column_stack([M, planted])
    if rng.random() < 0.3:
        M = np.column_stack([M, M[:, int(rng.integers(M.shape[1]))]])
    if rng.random() < 0.3:
        M = np.column_stack([M, np.zeros(q * b)])
    M = M[:, rng.permutation(M.shape[1])] * 10.0 ** rng.uniform(-3.0, 3.0, M.shape[1])
    return make_graph(q, b, M, Tolerances(zero=1e-8))


def test_lineality_generators_match_per_column_programs():
    # Reference: the per-column rule, -g_i in cone(G).  Draws whose
    # reference residual lies within 10x of its threshold are skipped.
    rng = np.random.default_rng(20261018)
    compared = nontrivial = 0
    for _ in range(300):
        G = _random_cone_graph(rng)
        reference = set()
        near = False
        for i, g in enumerate(G.M.T):
            norm = float(np.linalg.norm(g))
            if norm == 0.0:
                continue
            feas = cone_member(G, -g)
            bound = 1e-8 * (1.0 + norm)
            near |= bound / 10.0 <= feas.residual <= 10.0 * bound
            if feas.member:
                reference.add(i)
        if near:
            continue
        assert set(lineality_generators(G).columns) == reference
        compared += 1
        nontrivial += bool(reference)
    assert compared > 250
    assert nontrivial > 100


def _cycle_edges(M):
    # An edge generates lineality exactly when it lies on a directed cycle,
    # that is when its two ends reach each other.
    return {
        s
        for s, col in enumerate(M.T)
        if path_oracle(
            M, "strong_kl", int(np.flatnonzero(col == 1.0)[0]) + 1,
            int(np.flatnonzero(col == -1.0)[0]) + 1,
        )
    }


@given(data=st.integers(0, 2**31 - 1))
def test_lineality_generators_are_the_cycle_edges(data):
    M = random_unit_incidence(np.random.default_rng(data))
    assert set(lineality_generators(make_graph(M.shape[0], 1, M)).columns) == _cycle_edges(M)


def test_lineality_peel_survives_a_stalled_program():
    # The first peel program on this graph stops short of its optimum in
    # the compiled solver (the opposite pair 2 -> 4, 4 -> 2 leaves a
    # positive gradient of 0.09), which nnls's certificate catches; the
    # peel must not drop the cycle edges.
    M, _ = _stalled_peel_program()
    lin = lineality_generators(make_graph(5, 1, M))
    assert set(lin.columns) == _cycle_edges(M) == {0, 2, 3, 4, 5, 7}


@pytest.fixture
def nnls_calls(monkeypatch):
    calls = []
    original = gengraph_module.nnls

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gengraph_module, "nnls", counting)
    return calls


def test_lineality_generators_memoized_and_shared(nnls_calls):
    G = triangle_graph()
    lin = lineality_generators(G)
    assert lin.columns == (0, 1, 2)
    assert lineality_space(G).shape[1] == 2
    assert cone_contains_subspace(G)[0]
    assert all(kl_connected_pairs(lin.graph, all_pairs(3)))
    assert lineality_generators(G) is lin
    assert len(nnls_calls) == 1
    # The same matrix under another cone tolerance is another graph.
    lineality_generators(make_graph(3, 1, TRIANGLE, Tolerances(cone=1e-6)))
    assert len(nnls_calls) == 2


def test_lineality_peel_terminates_on_long_path(nnls_calls):
    # A directed path has no lineality; each round drops its two end
    # edges, so the peel needs about half as many programs as columns.
    q = 64
    M = np.zeros((q, q - 1))
    for s in range(q - 1):
        M[s, s], M[s + 1, s] = 1.0, -1.0
    G = make_graph(q, 1, M)
    lin = lineality_generators(G)
    assert lin.columns == ()
    assert not lin.marginal
    assert len(nnls_calls) <= G.n_columns
    assert not cone_contains_subspace(G)[0]


def test_lineality_peel_falls_back_to_per_column_programs(nnls_calls):
    # At a loose tolerance the two-edge path's residual is rejected but
    # neither push clears its cut tau_i ||r||, so each column gets its own
    # program.
    G = make_graph(3, 1, WT, Tolerances(cone=0.3))
    assert lineality_generators(G).columns == ()
    assert len(nnls_calls) == 3
    assert not any(cone_member(G, -g).member for g in WT.T)


def test_lineality_marginal_near_threshold():
    # An edge and its reversal tilted by eps out of the plane: the peel's
    # rejection and the dropped column's push lie within a decade of their
    # thresholds for eps = 5e-8, far outside them for eps = 1e-3.
    tilt = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    edge = np.array([1.0, -1.0, 0.0])
    other = np.array([0.0, 1.0, -1.0])

    def graph(eps, *extra):
        M = np.column_stack([edge, -edge + eps * tilt, *extra])
        return make_graph(3, 1, M, Tolerances(cone=1e-8))

    near = graph(5e-8)
    lin = lineality_generators(near)
    assert lin.columns == ()
    assert lin.marginal
    assert cone_contains_subspace(near) == (False, True)

    far = graph(1e-3)
    assert not lineality_generators(far).marginal
    assert cone_contains_subspace(far) == (False, False)

    # A positive verdict is never marginal: with the edge 2-3 both ways
    # too, the exact graph is strongly connected.
    exact = graph(0.0, other, -other)
    assert cone_contains_subspace(exact) == (True, False)


def test_lineality_peel_scales_its_rule_per_column():
    # Two short columns 1e-3 e and 1e-3 (-e + 1e-7 t): each negation lies
    # 1e-10 from the cone, well inside tol_cone (1 + ||g_i||) ~ 1e-8, so
    # both are generators.  On unit columns the peel's target sits 7e-8
    # from the cone, which the unit-column bound tau_i ~ 7e-6 accepts.
    tilt = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    edge = np.array([1.0, -1.0, 0.0])
    M = 1e-3 * np.column_stack([edge, -edge + 1e-7 * tilt])
    G = make_graph(3, 1, M)
    assert all(cone_member(G, -g).member for g in M.T)
    lin = lineality_generators(G)
    assert lin.columns == (0, 1)
    assert not lin.marginal
    assert range_contains(lin.graph, edge[:, None])


def test_lineality_requires_real_graph():
    G = make_graph(2, 1, np.array([[1.0j], [-1.0j]]))
    with pytest.raises(GraphDomainError):
        lineality_generators(G)
    with pytest.raises(GraphDomainError):
        cone_contains_subspace(G)


def test_only_make_graph_takes_a_tolerance():
    # Every other predicate reads the tolerances the graph carries.
    def takes_a_tolerance(fn):
        return any(
            name.startswith("tol") or "Tolerances" in str(param.annotation)
            for name, param in inspect.signature(fn).parameters.items()
        )

    public = [
        fn for name, fn in vars(gengraph_module).items()
        if inspect.isfunction(fn) and fn.__module__ == gengraph_module.__name__
        and not name.startswith("_")
    ]
    assert {fn.__name__ for fn in public if takes_a_tolerance(fn)} == {"make_graph"}
    builders = ("w_graphs", "v_graphs", "q_graphs_and_index_sets", "controllability_matrix")
    assert {
        name for name in builders if takes_a_tolerance(getattr(controllability_module, name))
    } == {"w_graphs", "controllability_matrix"}
    assert [f.name for f in fields(GenGraph)] == ["q", "blocksize", "M", "is_real", "tol", "_memo"]
