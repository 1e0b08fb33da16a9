"""The edge-bundle rule on eigenvalue graphs.

``gengraph._edge_components`` decides every edge graph, at any
blocksize; its docstring carries the proof that the SVD rule gives the
same verdicts.  Every verdict the edge route gives must equal the SVD
route's on the same graph (``range_contains``, ``lineality_space`` and
``_blocks_by_svd`` always take it).  Graphs the rule does not cover must
take the SVD route, which the range complement in the graph's memo
shows.
"""

import numpy as np
import pytest

from relctrl import ArraySpec, analyze
from relctrl.array_model import build_big, disagreement_basis
from relctrl.config import DEFAULT_TOLERANCES, Tolerances
from relctrl.controllability import analyze_with_graphs
from relctrl.gengraph import (
    _blocks_by_svd,
    _edge_labels,
    blocks_in_range,
    detect_scalar_edges,
    is_connected,
    kl_connected_pairs,
    lineality_dim,
    lineality_generators,
    lineality_space,
    make_graph,
    range_contains,
)
from relctrl.numutil import component_labels, pair_difference
from relctrl.oracles import _krylov_complement, _pairs_in_range

from conftest import all_pairs, random_array_spec

TOL = DEFAULT_TOLERANCES


def _directed_cycle(q, n, closed):
    # Unit edges s -> s+1; n = 2 drives double integrators at the velocity.
    m = q if closed else q - 1
    G = np.zeros((q, m))
    for s in range(m):
        G[s, s], G[(s + 1) % q, s] = 1.0, -1.0
    if n == 1:
        return ArraySpec.from_incidence([[0.0]], G)
    return ArraySpec.from_incidence([[0.0, 1.0], [0.0, 0.0]], np.kron(G, [[0.0], [1.0]]))


def _unit_edge_array(rng, A, q, p):
    n = A.shape[0]
    B = np.zeros((q, p, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        B[i, s] = rng.standard_normal(n)
        B[j, s] = -B[i, s]
    T = np.linalg.qr(rng.standard_normal((n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, n))
    return ArraySpec(n=n, q=q, p=p, A=T @ A @ np.linalg.inv(T), B=B)


def _damped_array(rng, q, n, p):
    # n/2 damped rotations: every eigenvalue non-real.
    A = np.zeros((n, n))
    for b in range(0, n, 2):
        a, w = rng.uniform(0.05, 0.5), rng.uniform(0.5, 3.0)
        A[b : b + 2, b : b + 2] = [[-a, w], [-w, -a]]
    return _unit_edge_array(rng, A, q, p)


def _real_and_rotations_array(rng, q, n, p):
    # Two real eigenvalues and (n-2)/2 rotations: cone programs on every draw.
    A = np.zeros((n, n))
    A[0, 0], A[1, 1] = rng.uniform(-1.0, 1.0, 2)
    for b in range(2, n, 2):
        a, w = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
        A[b : b + 2, b : b + 2] = [[a, w], [-w, a]]
    return _unit_edge_array(rng, A, q, p)


def _corpus():
    rng = np.random.default_rng(20261018)
    specs = [random_array_spec(rng) for _ in range(600)]
    for n, qs in ((1, (8, 16, 32, 64)), (2, (8, 16, 32))):
        specs += [_directed_cycle(q, n, closed) for q in qs for closed in (True, False)]
    rng = np.random.default_rng(11)
    specs += [_real_and_rotations_array(rng, 20, 6, 40) for _ in range(3)]
    specs += [_damped_array(rng, q, n, (3 * q) // 2) for n in (6, 8, 10) for q in (12, 18, 24)]
    return specs


def _svd_connected(G) -> bool:
    return range_contains(G, np.kron(disagreement_basis(G.q), np.eye(G.blocksize)))


def _svd_pairs(G, pairs) -> list[bool]:
    # Every pair target (e_k - e_l) ⊗ I as one block of one stacked target.
    E = np.column_stack([pair_difference(G.q, k, l) for k, l in pairs])
    b = G.blocksize
    T = np.einsum("qp,mn->qmpn", E, np.eye(b)).reshape(G.q * b, len(pairs) * b)
    return _blocks_by_svd(G, T, b)


def _assert_routes_agree(G, pairs) -> bool:
    """Compare every verdict of G with the SVD route; True if G took the edge route."""
    assert is_connected(G) == _svd_connected(G)
    assert kl_connected_pairs(G, pairs) == _svd_pairs(G, pairs)
    if G.is_real:
        lin = lineality_generators(G).graph
        assert is_connected(lin) == _svd_connected(lin)
        assert kl_connected_pairs(lin, pairs) == _svd_pairs(lin, pairs)
        width = G.blocksize
        assert blocks_in_range(lin, G.M, width) == _blocks_by_svd(lin, G.M, width)
        assert lineality_dim(G) == lineality_space(G).shape[1]
    return _edge_labels(G) is not None


def _kalman_verdicts(spec, pairs):
    """Controllability and every pair's verdict by the Kalman oracle."""
    big = build_big(spec, TOL.zero)
    complement = _krylov_complement(spec.A, big.Bred, TOL.rank)
    return complement[0].shape[0] == 0, _pairs_in_range(complement, big.D, pairs, spec.n)


def test_edge_route_matches_svd_route_on_the_corpus():
    graphs = edge = 0
    for spec in _corpus():
        pairs = all_pairs(spec.q)
        report, families = analyze_with_graphs(spec, pairs)
        for G in families["V"] + families["W"] + families["Q"]:
            graphs += 1
            edge += _assert_routes_agree(G, pairs)
        controllable, in_range = _kalman_verdicts(spec, pairs)
        assert report.controllable == controllable
        assert list(report.pairwise.values()) == in_range
    # Every random, ring, path and damped graph here is an edge graph, the
    # Jordan-block graphs of the n = 2 chains (blocksize 2) included.
    assert graphs == edge == 3873


def test_component_labels_name_the_smallest_vertex():
    assert component_labels(5, [(4, 2), (2, 0), (3, 1)]).tolist() == [0, 1, 0, 1, 0]
    assert component_labels(3, []).tolist() == [0, 1, 2]
    assert component_labels(3, iter([(1, 1)])).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# fallbacks to the SVD route


def _path_incidence(q):
    return np.eye(q, q - 1) - np.eye(q, q - 1, k=-1)


def _takes_svd_route(G) -> bool:
    # The SVD route leaves the graph's range complement in its memo.
    is_connected(G)
    kl_connected_pairs(G, all_pairs(G.q))
    return "complement" in G._memo


def test_an_edge_graph_takes_the_edge_route():
    G = make_graph(4, 1, _path_incidence(4) * [2.0, -3.0, 1e-12])
    assert not _takes_svd_route(G)
    assert _edge_labels(G).tolist() == [0, 0, 0, 3]
    assert not is_connected(G)
    assert kl_connected_pairs(G, [(1, 3), (3, 4)]) == [True, False]


def test_a_column_within_a_decade_of_the_drop_cut_takes_the_svd_route():
    for scale in (5e-9, 2e-10):
        G = make_graph(4, 1, _path_incidence(4) * [2.0, 1.0, 2.0 * scale])
        assert _takes_svd_route(G)


def test_a_hyperedge_takes_the_svd_route():
    M = np.column_stack([_path_incidence(4), [1.0, 1.0, -2.0, 0.0]])
    assert _takes_svd_route(make_graph(4, 1, M))
    # A column whose two entries are not exact negatives is a hyperedge too.
    M = _path_incidence(4)
    M[0, 0] = 1.0 + 2e-16
    assert _takes_svd_route(make_graph(4, 1, M))


def test_blocksize_two_graphs_match_the_svd_route():
    # A path of 4 without its middle edge, each edge in both directions,
    # so that the lineality space is the whole range, of dimension
    # 2 (4 - 2) = 4.  With weights I_2 every bundle spans R^2 and the
    # edge route answers; with weights (1, 0) it does not span R^2.
    incidence = _path_incidence(4)[:, [0, 2]]
    pairs = all_pairs(4)
    both_ways = np.hstack([incidence, -incidence])
    spanning = make_graph(4, 2, np.kron(both_ways, np.eye(2)))
    assert _assert_routes_agree(spanning, pairs)
    assert lineality_dim(spanning) == 4
    flat = make_graph(4, 2, np.kron(both_ways, [[1.0], [0.0]]))
    assert not _assert_routes_agree(flat, pairs)
    assert lineality_dim(flat) == 2
    # Blocks of two edge columns: inside one component, across two, one
    # across but below its block's drop cut, and one zero.
    e = np.eye(4)
    T = np.kron(
        np.column_stack([e[0] - e[1], e[2] - e[3], e[0] - e[2], e[0] - e[1],
                         e[2] - e[3], 1e-10 * (e[1] - e[2]), e[0] - e[1], 0 * e[0]]),
        [[1.0], [2.0]],
    )
    for G in (spanning, flat):
        assert blocks_in_range(G, T, 2) == _blocks_by_svd(G, T, 2)
    assert blocks_in_range(spanning, T, 2) == [True, False, True, True]


def _random_bundle_graph(rng, q, b):
    # Edge columns with random or unit weights, real or complex, some of
    # them tiny; zero columns; hyperedges, half of them tiny (ignored
    # below the drop cut); then some columns repeated with opposite sign.
    dtype = complex if rng.random() < 0.3 else float
    cols = []
    for _ in range(int(rng.integers(0, 12))):
        col = np.zeros((q, b), dtype=dtype)
        i, j = rng.choice(q, size=2, replace=False)
        w = rng.standard_normal(b) if rng.random() < 0.7 else np.eye(b)[rng.integers(b)]
        w = w * (np.exp(1j * rng.random()) if dtype is complex else 1.0)
        w = w * (1e-13 if rng.random() < 0.15 else 1.0)
        kind = rng.random()
        if kind < 0.7:
            col[i], col[j] = w, -w
        elif kind < 0.85 and q > 2:
            k = next(v for v in range(q) if v not in (i, j))
            col[i], col[j], col[k] = w, -w / 2, -w / 2
        cols.append(col.reshape(-1))
    M = np.column_stack(cols) if cols else np.zeros((q * b, 0), dtype=dtype)
    if rng.random() < 0.3:
        M = np.hstack([M, -M[:, : M.shape[1] // 2]])
    # Whole blocks of b columns, for blocks_in_range at width b.
    return make_graph(q, b, np.hstack([M, np.zeros((q * b, -M.shape[1] % b))]))


def test_random_bundle_graphs_match_the_svd_route():
    rng = np.random.default_rng(5)
    edge = 0
    for _ in range(300):
        q = int(rng.integers(2, 7))
        edge += _assert_routes_agree(_random_bundle_graph(rng, q, int(rng.integers(2, 4))),
                                     all_pairs(q))
    assert edge > 50


def test_a_tolerance_that_fails_the_guard_takes_the_svd_route():
    # Path of 10: maxdeg 2, so the guard needs a rank tolerance below 1 / 100.
    def path(rank):
        return make_graph(10, 1, _path_incidence(10), Tolerances(rank=rank))

    assert not _takes_svd_route(path(9.9e-3))
    assert _takes_svd_route(path(1.01e-2))


def test_an_input_with_a_rank_deficient_krylov_matrix_takes_the_svd_route():
    # Double integrators; input 1 pushes the position only, so A b = 0 and
    # the pair it joins is not (1,2)-controllable.  Its block of the swept
    # graph at the Jordan block, (b, Lambda b), has rank one.
    B = np.zeros((3, 2, 2))
    B[0, 0], B[1, 0] = [1.0, 0.0], [-1.0, 0.0]
    B[1, 1], B[2, 1] = [0.0, 1.0], [0.0, -1.0]
    spec = ArraySpec(n=2, q=3, p=2, A=[[0.0, 1.0], [0.0, 0.0]], B=B)
    report, graphs = analyze_with_graphs(spec, [(1, 2), (2, 3)])
    (W,) = graphs["W"]
    assert _takes_svd_route(W)
    assert not report.controllable
    assert report.pairwise == {(1, 2): False, (2, 3): True}
    # With the velocity pushed as well, both blocks span R^2.
    B[0, 0], B[1, 0] = [1.0, 1.0], [-1.0, -1.0]
    spec = ArraySpec(n=2, q=3, p=2, A=[[0.0, 1.0], [0.0, 0.0]], B=B)
    report, graphs = analyze_with_graphs(spec, [(1, 2), (2, 3)])
    (W,) = graphs["W"]
    assert not _takes_svd_route(W)
    assert report.controllable


def test_inputs_twelve_decades_apart_give_the_svd_verdict():
    # The small input lies far below the drop cut of every graph, so each
    # drops it; the rule drops it too instead of joining systems 2 and 3
    # through it.
    B = np.zeros((3, 2, 1))
    B[:, 0, 0] = [1.0, -1.0, 0.0]
    B[:, 1, 0] = [0.0, 1e-12, -1e-12]
    spec = ArraySpec(n=1, q=3, p=2, A=[[0.5]], B=B)
    _, graphs = analyze_with_graphs(spec, all_pairs(3))
    for G in graphs["V"] + graphs["W"] + graphs["Q"]:
        assert _assert_routes_agree(G, all_pairs(3))
    for pair, expected in (((1, 2), True), ((2, 3), False), ((1, 3), False)):
        report = analyze(spec, [pair])
        assert not report.controllable and report.pairwise == {pair: expected}


def test_drawing_tolerates_blocks_that_are_negatives_only_to_rounding():
    # edge_ends at tol_zero = 0 asks for exact negatives, which the edge
    # route needs; detect_scalar_edges judges them within the graph's zero
    # tolerance.  At 1e-16 the block sum 2.2e-16 of the first column
    # passes make_graph's cut 1e-16 (1 + ||column||) but not the drawing's
    # 1e-16 max(1, ||column||).
    M = np.array([[1.0, 0.0], [-(1.0 + 2e-16), 1.0], [0.0, -1.0]])
    G = make_graph(3, 1, M)
    assert _edge_labels(G) is None
    assert [(i, j) for i, j, _ in detect_scalar_edges(G)] == [(1, 2), (2, 3)]
    assert detect_scalar_edges(make_graph(3, 1, M, Tolerances(zero=1e-16))) is None
