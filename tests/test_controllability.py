import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import relctrl.controllability as controllability_module
import relctrl.gengraph as gengraph_module
from relctrl import DEFAULT_TOLERANCES, ArraySpec, Tolerances, analyze, build_example, render_text
from relctrl.cli import main
from relctrl.corpus import TRIANGLE
from relctrl.controllability import (
    EIGEN_CAVEAT,
    MARGINAL_CAVEAT,
    analyze_with_graphs,
    check_assumption_closed_structural,
    check_assumption_eigen,
    controllability_matrix,
    q_graphs_and_index_sets,
    v_graphs,
    w_graphs,
)
from relctrl.errors import DimensionError, InvalidArrayError
from relctrl.gengraph import (
    column_graph,
    is_connected,
    kl_connected_pairs,
    lineality_generators,
    lineality_space,
    range_contains,
)
from relctrl.numutil import pair_difference
from relctrl.specio import load_spec, save_spec
from relctrl.spectral import distinct_eigenvalues

from conftest import all_pairs, random_array_spec


def _v_graphs(spec):
    spectrum = distinct_eigenvalues(spec.A)
    return v_graphs(spec, spectrum, w_graphs(spec, spectrum))


def _q_graphs(spec):
    spectrum = distinct_eigenvalues(spec.A)
    return q_graphs_and_index_sets(w_graphs(spec, spectrum), spectrum)


# ---------------------------------------------------------------------------
# controllability matrix


def test_controllability_matrix_watertanks_is_input_matrix(watertanks):
    W = controllability_matrix(watertanks)
    np.testing.assert_array_equal(W.M, watertanks.incidence)


def test_controllability_matrix_counterexample(counterexample):
    W = controllability_matrix(counterexample)
    assert W.M.shape == (12, 12)
    assert kl_connected_pairs(W, [(2, 3)]) == [False]


def test_controllability_matrix_chain_ring_rank(chain_ring):
    W = controllability_matrix(chain_ring)
    assert np.linalg.matrix_rank(W.M) == (chain_ring.q - 1) * chain_ring.n


def test_controllability_matrix_matches_stacked_operator():
    # Applying A blockwise equals powers of the stacked I_q ⊗ A, built
    # densely here as the reference.
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_array_spec(rng)
        Abig = np.kron(np.eye(spec.q), spec.A)
        blocks, P = [], spec.incidence
        for _ in range(spec.n):
            blocks.append(P)
            P = Abig @ P
        np.testing.assert_allclose(
            controllability_matrix(spec).M, np.hstack(blocks), rtol=1e-12, atol=1e-12
        )


# ---------------------------------------------------------------------------
# eigenvector graphs


def test_v_graph_watertanks_is_input_matrix(watertanks):
    (G,) = _v_graphs(watertanks)
    np.testing.assert_array_equal(G.M, watertanks.incidence)


def test_v_graphs_oscillators_scalar_edges(oscillators_a, oscillators_b):
    from relctrl.gengraph import detect_scalar_edges

    counts_a = [len(detect_scalar_edges(G)) for G in _v_graphs(oscillators_a)]
    assert counts_a == [3, 3, 2, 2, 2, 2, 2, 2, 3, 3]
    counts_b = [len(detect_scalar_edges(G)) for G in _v_graphs(oscillators_b)]
    assert counts_b == [3, 3, 2, 2, 1, 1, 2, 2, 3, 3]


def test_v_graph_oscillator_b_disconnected_at_middle_pair(oscillators_b):
    connected = [is_connected(G) for G in _v_graphs(oscillators_b)]
    mus = [c.mu for c in distinct_eigenvalues(oscillators_b.A).components]
    for flag, mu in zip(connected, mus):
        expected = abs(abs(mu.imag) - np.sqrt(0.5)) > 1e-9
        assert flag == expected


def test_oscillator_b_disconnected_cell_renders_with_missing_vertex(oscillators_b):
    # The disconnected graph still renders: one arc between systems 2 and
    # 3, system 1 isolated.
    from relctrl.gengraph import to_dot

    spectrum = distinct_eigenvalues(oscillators_b.A)
    kappa = next(
        i
        for i, c in enumerate(spectrum.components)
        if abs(c.mu.imag - np.sqrt(0.5)) <= 1e-9
    )
    G = _v_graphs(oscillators_b)[kappa]
    text = to_dot(G)
    arcs = [line for line in text.splitlines() if "->" in line]
    assert len(arcs) == 1
    assert '"2" -> "3"' in arcs[0] or '"3" -> "2"' in arcs[0]
    assert '"1" ->' not in text and '-> "1"' not in text


# ---------------------------------------------------------------------------
# the four verdicts on the worked examples


def test_watertanks_verdicts(watertanks):
    report = analyze(watertanks, [(1, 3), (1, 2)])
    assert report.controllable
    assert not report.positively_controllable
    assert report.pairwise[1, 3]
    verdict = report.positive_pairwise[1, 2]
    assert not verdict.yes
    assert not verdict.conditional


def test_watertanks_ring_verdicts(watertanks_ring):
    report = analyze(watertanks_ring, all_pairs(3))
    assert report.controllable
    assert report.positively_controllable
    for verdict in report.positive_pairwise.values():
        assert verdict.yes and not verdict.conditional


def test_oscillator_verdicts(oscillators_a, oscillators_b):
    report = analyze(oscillators_a)
    assert report.controllable
    assert not analyze(oscillators_b).controllable
    # No real eigenvalues, so the strong condition is vacuous.
    assert report.positively_controllable


def test_zero_input_not_controllable():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.zeros((2, 1, 1)))
    assert not analyze(spec).controllable


def test_counterexample_pairwise(counterexample):
    assert not analyze(counterexample, [(2, 3)]).pairwise[2, 3]
    (vg,) = _v_graphs(counterexample)
    assert kl_connected_pairs(vg, [(2, 3)]) == [True]


def test_controllable_array_pairwise_everywhere(watertanks_ring):
    assert all(analyze(watertanks_ring, all_pairs(3)).pairwise.values())


def test_verdict_functions_refuse_invalid_arrays():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.ones((2, 1, 1)))
    for pairs in ((), [(1, 2)]):
        with pytest.raises(InvalidArrayError):
            analyze(spec, pairs)


def test_positive_controllability_builds_v_graphs_once(watertanks_ring, monkeypatch):
    calls = []
    original = controllability_module.v_graphs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(controllability_module, "v_graphs", counting)
    report = analyze(watertanks_ring)
    assert report.positively_controllable
    assert len(calls) == 1
    assert all(row.strongly_connected for row in report.rows("V") if row.mu.imag == 0.0)


def _projection_corpus():
    from relctrl import build_example, example_names

    rng = np.random.default_rng(53)
    return [build_example(name) for name in example_names()] + [
        random_array_spec(rng) for _ in range(40)
    ]


@pytest.mark.parametrize("spec", _projection_corpus(), ids=lambda spec: spec.name)
def test_verdict_functions_are_projections_of_analyze(spec):
    # Every verdict is read off one report: the V rows carry the strong
    # flag at every real eigenvalue, and a pair's verdicts do not depend
    # on which other pairs the analysis was asked for.
    report = analyze(spec)
    for row in report.rows("V"):
        assert (row.strongly_connected is not None) == (row.mu.imag == 0.0)
    everything = analyze(spec, all_pairs(spec.q))
    for pair in all_pairs(spec.q):
        one = analyze(spec, [pair])
        assert one.pairwise[pair] == everything.pairwise[pair]
        assert one.positive_pairwise[pair] == everything.positive_pairwise[pair]


def test_analyze_svd_count_does_not_grow_with_pairs(monkeypatch):
    # Every eigenvalue of the damped rotation is non-real, so no cone
    # program runs and every pairwise question is a range inclusion.
    # Each graph is factored once, whatever the number of pairs.
    rng = np.random.default_rng(11)
    q, p = 8, 12
    B = np.zeros((q, p, 2))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        B[i, s] = rng.standard_normal(2)
        B[j, s] = -B[i, s]
    spec = ArraySpec(n=2, q=q, p=p, A=[[-0.2, 1.0], [-1.0, -0.2]], B=B)
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    counts = []
    for n_pairs in (2, 40):
        calls.clear()
        analyze(spec, pairs=all_pairs(q)[:n_pairs])
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "A",
    [[[-0.2, 1.0], [-1.0, -0.2]], block_diag([[-0.2, 1.0], [-1.0, -0.2]], [[-0.5]])],
    ids=["damped", "damped-and-real"],
)
def test_analyze_range_contains_count_does_not_grow_with_pairs(A, monkeypatch):
    # Every requested pair of a graph is read off its range complement in
    # one array operation, plain pairs and (at the real eigenvalue) strong
    # pairs alike, so each complement is factored once, however many pairs
    # are asked about.  The last input touches three systems, which keeps
    # every graph off the edge route; the factorizations are the misses of
    # the graphs' complement memos.
    rng = np.random.default_rng(5)
    q, p, n = 12, 18, len(A)
    B = np.zeros((q, p + 1, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        B[i, s] = rng.standard_normal(n)
        B[j, s] = -B[i, s]
    B[:3, p] = np.outer([1.0, 1.0, -2.0], rng.standard_normal(n))
    spec = ArraySpec(n=n, q=q, p=p + 1, A=A, B=B)
    complement = gengraph_module._range_complement
    misses = []

    def counting(G):
        if "complement" not in G._memo:
            misses.append(1)
        return complement(G)

    monkeypatch.setattr(gengraph_module, "_range_complement", counting)
    counts = []
    for n_pairs in (2, 60):
        misses.clear()
        analyze(spec, pairs=all_pairs(q)[:n_pairs])
        counts.append(len(misses))
    assert 0 < counts[0] == counts[1]


def test_analyze_nnls_count_is_one_per_real_graph(monkeypatch):
    # Directed ring of 32 integrators: one real eigenvalue, simple, so its
    # V and Q graphs are one graph, which needs cone answers.  It is peeled
    # once, however many pairs are asked about.
    q = 32
    G = np.zeros((q, q))
    for s in range(q):
        G[s, s], G[(s + 1) % q, s] = 1.0, -1.0
    spec = ArraySpec.from_incidence([[0.0]], G, name="ring-q32-n1")
    nnls = gengraph_module.nnls
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(gengraph_module, "nnls", counting)
    counts = []
    for n_pairs in (2, 11):
        calls.clear()
        report = analyze(spec, pairs=[(1, l) for l in range(2, 2 + n_pairs)])
        assert report.positively_controllable
        assert all(v.yes for v in report.positive_pairwise.values())
        counts.append(len(calls))
    real = sum(comp.is_real for comp in report.spectrum.components)
    assert counts[0] == counts[1] <= real


def test_one_graph_serves_v_w_and_q_at_every_simple_eigenvalue():
    damped = load_spec(Path(__file__).resolve().parent / "golden" / "damped-q12-n6-spec.json")
    for spec, tolerances in ((build_example("watertanks-ring"), None), damped):
        report, graphs = analyze_with_graphs(spec, (), tolerances)
        assert all(comp.alg_mult == 1 for comp in report.spectrum.components)
        for V, W, Q in zip(graphs["V"], graphs["W"], graphs["Q"]):
            assert V is W is Q


EXAMPLE_GRAPH_BUILDS = {
    "watertanks": 1,
    "watertanks-ring": 1,
    "oscillators-a": 10,
    "oscillators-b": 10,
    "counterexample-23": 2,
    "integrator-chain-ring": 2,
}


def test_analyze_builds_one_graph_per_eigenvalue(monkeypatch):
    # One swept graph per eigenvalue and a V graph more at each repeated
    # eigenvalue.
    built = []
    make_graph = controllability_module.make_graph

    def building(*args, **kwargs):
        built.append(1)
        return make_graph(*args, **kwargs)

    monkeypatch.setattr(controllability_module, "make_graph", building)
    counts = {}
    for name in EXAMPLE_GRAPH_BUILDS:
        built.clear()
        components = analyze(build_example(name), all_pairs(3)).spectrum.components
        repeated = sum(comp.alg_mult > 1 for comp in components)
        assert len(built) == len(components) + repeated
        counts[name] = len(built)
    assert counts == EXAMPLE_GRAPH_BUILDS


def test_index_recursion_keeps_inputs_inside_lineality():
    # Inputs 1-3 form a ring (all lineality), input 4 a one-way edge
    # 3 -> 4 off it: only input 4 leaves the index set.
    G = np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )
    spec = ArraySpec.from_incidence([[0.0]], G)
    _, trace = _q_graphs(spec)
    (step,) = trace
    assert step.index_set == (1, 2, 3, 4)
    assert step.removed == (4,)
    assert step.lineality_dim == 2


def _nilpotent_chain_array(rng) -> ArraySpec:
    # One Jordan block at 0, so every input sweeps a block of n columns.
    n, q, p = int(rng.integers(2, 4)), int(rng.integers(3, 6)), int(rng.integers(3, 8))
    B = np.zeros((q, p, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        B[i, s] = rng.standard_normal(n)
        B[j, s] = -B[i, s]
    return ArraySpec(n=n, q=q, p=p, A=np.eye(n, k=1), B=B, name="nilpotent-chain")


def test_index_recursion_keeps_the_inputs_range_contains_keeps():
    # Each real step removes exactly the inputs whose block of swept
    # columns range_contains rejects against the lineality generators.
    rng = np.random.default_rng(20261018)
    specs = [random_array_spec(rng) for _ in range(40)]
    specs += [_nilpotent_chain_array(rng) for _ in range(20)]
    kept = removed = blocks = 0
    for spec in specs:
        spectrum = distinct_eigenvalues(spec.A)
        graphs, trace = q_graphs_and_index_sets(w_graphs(spec, spectrum), spectrum)
        for G, step, comp in zip(graphs, trace, spectrum.components):
            if not comp.is_real:
                continue
            lin = lineality_generators(G).graph
            nk = comp.alg_mult
            rejected = tuple(
                s
                for i, s in enumerate(step.index_set)
                if not range_contains(lin, G.M[:, i * nk : (i + 1) * nk])
            )
            assert step.removed == rejected
            assert step.lineality_dim == lineality_space(G).shape[1]
            removed += len(rejected)
            kept += len(step.index_set) - len(rejected)
            blocks += nk > 1 and len(step.index_set) > 0
    assert kept > 50 and removed > 50 and blocks > 10


def test_pair_validation(watertanks):
    for pair in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(DimensionError):
            analyze(watertanks, [pair])


# ---------------------------------------------------------------------------
# swept graphs


def test_w_graphs_scalar_components_are_scaled_v_graphs(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    vgs = v_graphs(oscillators_a, spectrum, w_graphs(oscillators_a, spectrum))
    wgs = w_graphs(oscillators_a, spectrum)
    for vg, wg in zip(vgs, wgs):
        assert wg.M.shape == vg.M.shape
        # Each is the other times a unimodular basis phase.
        ratio = wg.M[np.abs(vg.M) > 1e-9] / vg.M[np.abs(vg.M) > 1e-9]
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)
        assert np.allclose(ratio, ratio.flat[0], atol=1e-9)


def test_w_graph_counterexample_not_23_connected(counterexample):
    spectrum = distinct_eigenvalues(counterexample.A)
    (wg,) = w_graphs(counterexample, spectrum)
    assert wg.M.shape[0] == 12
    assert kl_connected_pairs(wg, [(2, 3)]) == [False]


def test_w_graph_watertanks_equals_input_matrix(watertanks):
    spectrum = distinct_eigenvalues(watertanks.A)
    (wg,) = w_graphs(watertanks, spectrum)
    np.testing.assert_array_equal(wg.M, watertanks.incidence)


def power_swept_reference(spec, comp, sweep, sigmas):
    """Columns [I_q ⊗ sweep^r] b_sigma, one small product each, sigma-major."""
    blocks = np.einsum("dn,qpn->qdp", comp.U.conj().T, spec.B)
    powers = [np.eye(comp.alg_mult)]
    for _ in range(comp.alg_mult - 1):
        powers.append(powers[-1] @ sweep)
    cols = [(blocks[:, :, s] @ P.T).ravel() for s in sigmas for P in powers]
    return np.stack(cols, axis=1) if cols else np.zeros((spec.q * comp.alg_mult, 0))


def _swept_columns(nk, sigmas):
    return [s * nk + r for s in sigmas for r in range(nk)]


def test_w_graphs_match_the_loop_reference(chain_ring, oscillators_a):
    # A Jordan block of size 3 next to a damped rotation: real and
    # non-real components, with nilpotent parts of order 3 and 1.  The
    # columns of some inputs are the Q graph's (column_graph).
    rng = np.random.default_rng(3)
    A = block_diag([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]], [[-0.2, 1.0], [-1.0, -0.2]])
    B = np.zeros((4, 5, 5))
    for s in range(5):
        i, j = rng.choice(4, size=2, replace=False)
        B[i, s] = rng.standard_normal(5)
        B[j, s] = -B[i, s]
    jordan = ArraySpec(n=5, q=4, p=5, A=A, B=B)
    for spec in (chain_ring, oscillators_a, jordan):
        spectrum = distinct_eigenvalues(spec.A)
        for comp, W in zip(spectrum.components, w_graphs(spec, spectrum)):
            for sigmas in (list(range(spec.p)), [spec.p - 1, 0], []):
                got = column_graph(W, _swept_columns(comp.alg_mult, sigmas))
                want = power_swept_reference(spec, comp, comp.Lambda, sigmas)
                assert got.M.shape == want.shape
                scale = 1.0 + float(np.abs(want).max(initial=0.0))
                np.testing.assert_allclose(got.M, want, rtol=0, atol=1e-13 * scale)


def _jordan_beside_rotation(rng) -> ArraySpec:
    # A Jordan block of size 2-4 at a real mu != 0, where A_k and Lambda
    # differ, beside a damped rotation; sparse edge inputs, so that some
    # graphs are disconnected.
    m = int(rng.integers(2, 5))
    mu = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
    a, w = rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)
    A = block_diag(mu * np.eye(m) + np.eye(m, k=1), [[a, w], [-w, a]])
    n, q, p = m + 2, int(rng.integers(3, 7)), int(rng.integers(1, 6))
    B = np.zeros((q, p, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        B[i, s] = rng.standard_normal(n) * (rng.random(n) < 0.6)
        B[j, s] = -B[i, s]
    return ArraySpec(n=n, q=q, p=p, A=A, B=B, name="jordan-rotation")


def _w_verdicts(G, pairs):
    return is_connected(G), kl_connected_pairs(G, pairs)


def _restriction_swept_verdicts(spec, comp, pairs):
    """The verdicts of the graph swept by A_k = Lambda + conj(mu) I instead of Lambda."""
    A_k = comp.Lambda + np.conj(comp.mu) * np.eye(comp.alg_mult)
    M = power_swept_reference(spec, comp, A_k, range(spec.p))
    return _w_verdicts(gengraph_module.make_graph(spec.q, comp.alg_mult, M), pairs)


def _row_reduce(M, width=None) -> tuple[int, list]:
    """Gauss-Jordan elimination in rational arithmetic on M's first width columns.

    Each float entry is taken exactly.  Returns the rank of those columns
    and the reduced rows; the rows below the rank are zero there.
    """
    rows = [[Fraction(x) for x in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if width is None else width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, rows


def _exact_rank(M) -> int:
    return _row_reduce(M)[0]


def _exact_jordan_verdicts(spec, m, pairs):
    """The verdicts at the Jordan block of ``_jordan_beside_rotation``, exactly.

    Its generalized eigenspace is spanned by the first m states, where the
    restriction is mu I + N, N the upper shift.  So the graph's columns are
    N^r applied to the first m entries of each input block: the float
    entries themselves, ranked in rational arithmetic.
    """
    N = np.eye(m, k=1)
    M = np.stack(
        [
            (spec.B[:, s, :m] @ np.linalg.matrix_power(N, r).T).ravel()
            for s in range(spec.p)
            for r in range(m)
        ],
        axis=1,
    )
    rank = _exact_rank(M)
    targets = [np.kron(pair_difference(spec.q, k, l)[:, None], np.eye(m)) for k, l in pairs]
    return rank == (spec.q - 1) * m, [_exact_rank(np.hstack([M, T])) == rank for T in targets]


def test_w_verdicts_do_not_depend_on_the_sweep_at_jordan_blocks():
    # Lambda = A_k - conj(mu) I sweeps the same Krylov subspaces as A_k,
    # so every W verdict must be the same, at mu != 0 too.  Where they
    # differ, the powers of A_k, all close to mu^r b, have left a direction
    # within reach of the rank cutoff, and exact arithmetic sides with
    # Lambda.
    rng = np.random.default_rng(20261018)
    connected, differ = [], 0
    for _ in range(200):
        spec = _jordan_beside_rotation(rng)
        spectrum = distinct_eigenvalues(spec.A)
        pairs = all_pairs(spec.q)
        for comp, W in zip(spectrum.components, w_graphs(spec, spectrum)):
            verdicts = _w_verdicts(W, pairs)
            connected.append(verdicts[0])
            if verdicts != _restriction_swept_verdicts(spec, comp, pairs):
                assert comp.alg_mult > 1
                assert verdicts == _exact_jordan_verdicts(spec, comp.alg_mult, pairs)
                differ += 1
    assert len(connected) == 600 and 0 < sum(connected) < 600
    assert differ <= 2


def test_w_verdicts_do_not_depend_on_the_sweep_on_the_edge_route_corpus():
    from test_edge_route import _corpus

    connected = []
    for spec in _corpus():
        spectrum = distinct_eigenvalues(spec.A)
        pairs = all_pairs(spec.q)
        for comp, W in zip(spectrum.components, w_graphs(spec, spectrum)):
            verdicts = _w_verdicts(W, pairs)
            assert verdicts == _restriction_swept_verdicts(spec, comp, pairs)
            connected.append(verdicts[0])
    assert 0 < sum(connected) < len(connected)


# ---------------------------------------------------------------------------
# arrays whose raw Krylov matrix is ill-conditioned
#
# The verdicts come from the eigenvalue graphs alone.  Below, the whole
# controllability matrix [B, AB, ..., A^(n-1) B] of the generic arrays, of
# the graded ones with b = 1 from n = 5 on, of the Jordan draws, of the
# oscillators at rank tolerance 1e-3 and of the long path is too
# ill-conditioned for a floating-point rank test, which contradicts the
# graphs there; the exact rank sides with the graphs.


def _exact_kalman_verdicts(spec, pairs):
    """Controllability and each pair's range verdict, from W in exact arithmetic.

    W = [B, (I ⊗ A) B, ..., (I ⊗ A)^(n-1) B] is built in rational
    arithmetic from the float entries of A and B.  Its columns have zero
    block sums, so the array is controllable when W has rank (q - 1) n.
    Reducing [W, I] leaves a basis Y of the vectors orthogonal to W's
    range in the rows below the rank, so (e_k - e_l) ⊗ I_n lies in the
    range when Y's column blocks k and l are equal.
    """
    A = [[Fraction(x) for x in row] for row in spec.A.tolist()]
    columns = []
    for s in range(spec.p):
        blocks = [[Fraction(x) for x in b] for b in spec.B[:, s].tolist()]
        for _ in range(spec.n):
            columns.append([x for b in blocks for x in b])
            blocks = [[sum(a * x for a, x in zip(row, b)) for row in A] for b in blocks]
    m, width = spec.q * spec.n, len(columns)
    W = [list(row) + [int(r == c) for c in range(m)] for r, row in enumerate(zip(*columns))]
    rank, rows = _row_reduce(W, width)
    Y = [row[width:] for row in rows[rank:]]
    n = spec.n
    return rank == (spec.q - 1) * n, [
        all(y[(k - 1) * n : k * n] == y[(l - 1) * n : l * n] for y in Y) for k, l in pairs
    ]


def _ring_of_three(A, b, inputs=3):
    # The first `inputs` edges of the ring, each input b and -b.
    return ArraySpec.from_incidence(A, np.kron(TRIANGLE[:, :inputs], np.asarray(b)[:, None]))


@pytest.mark.parametrize("seed", range(10))
def test_a_generic_ring_of_24_states_is_controllable(seed):
    # (A, b) is a generic pair, so controllable, and the ring of three
    # connects every pair of systems.
    rng = np.random.default_rng(seed)
    n = 24
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.2 * np.eye(n)
    report = analyze(_ring_of_three(A, rng.standard_normal(n)), all_pairs(3))
    assert report.controllable
    assert all(report.pairwise.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_a_graded_spectrum_matches_the_exact_kalman_rank(n):
    # A = diag(1, 10, ..., 10^(n-1)): the Krylov matrix of b is a scaled
    # Vandermonde matrix.  With b = 1 its powers span (n-1)^2 decades;
    # b_i = 10^(-i (n-1)) gives every power A^k b unit scale.  On one, two
    # or three edges of the ring.
    A = np.diag(10.0 ** np.arange(n))
    pairs = all_pairs(3)
    for b in (np.ones(n), 10.0 ** (-np.arange(n) * (n - 1))):
        for inputs in (1, 2, 3):
            spec = _ring_of_three(A, b, inputs)
            report = analyze(spec, pairs)
            assert report.controllable == (inputs > 1)
            assert (report.controllable, list(report.pairwise.values())) == (
                _exact_kalman_verdicts(spec, pairs)
            )


def test_jordan_blocks_beside_rotations_match_the_exact_kalman_rank():
    # Draws of _jordan_beside_rotation whose W rank disagreed with the graphs.
    rng = np.random.default_rng(20261018)
    draws = [_jordan_beside_rotation(rng) for _ in range(1644)]
    for index in (574, 1401, 1515, 1624, 1643):
        spec = draws[index]
        pairs = all_pairs(spec.q)
        report = analyze(spec, pairs)
        assert (report.controllable, list(report.pairwise.values())) == _exact_kalman_verdicts(
            spec, pairs
        )


@pytest.mark.parametrize("name", ["oscillators-a", "oscillators-b"])
def test_a_coarse_rank_tolerance_keeps_the_oscillator_verdicts(name):
    spec = build_example(name)
    pairs = [(1, 2), (2, 3)]
    coarse = analyze(spec, pairs, Tolerances(rank=1e-3))
    default = analyze(spec, pairs)
    assert (coarse.controllable, coarse.pairwise) == (default.controllable, default.pairwise)
    assert default.controllable == (name == "oscillators-a")
    assert default.pairwise == {(1, 2): name == "oscillators-a", (2, 3): True}


def test_a_long_path_with_nearly_equal_eigenvalues_is_controllable():
    # A = diag(1, 1 + 1e-7), b = (1, 1): the eigenvalues are distinct and b
    # has a component along each eigenvector, and a path of 100 systems is
    # connected.  The smallest nonzero singular value of W is about
    # 1e-7 / (2 sqrt(2)) times pi / (sqrt(2) q), below the rank cutoff.
    q = 100
    path = np.eye(q, q - 1) - np.eye(q, q - 1, k=-1)
    spec = ArraySpec.from_incidence(np.diag([1.0, 1.0 + 1e-7]), np.kron(path, [[1.0], [1.0]]))
    report = analyze(spec, [(1, 2), (1, q), (50, 51)])
    assert report.controllable
    assert all(report.pairwise.values())


# ---------------------------------------------------------------------------
# index recursion


def test_index_recursion_watertanks(watertanks):
    _, trace = _q_graphs(watertanks)
    (step,) = trace
    assert step.index_set == (1, 2)
    assert step.removed == (1, 2)
    assert step.lineality_dim == 0


def test_index_recursion_ring(watertanks_ring):
    _, trace = _q_graphs(watertanks_ring)
    (step,) = trace
    assert step.index_set == (1, 2, 3)
    assert step.removed == ()
    assert step.lineality_dim == 2


def test_index_recursion_oscillators(oscillators_a):
    _, trace = _q_graphs(oscillators_a)
    for step in trace:
        assert step.index_set == (1, 2, 3)
        assert step.removed == ()
        assert step.lineality_dim is None


def test_index_recursion_monotone_on_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        spec = random_array_spec(rng)
        _, trace = _q_graphs(spec)
        previous = None
        for step in trace:
            if previous is not None:
                assert set(step.index_set) <= set(previous)
            assert set(step.removed) <= set(step.index_set)
            previous = set(step.index_set) - set(step.removed)


# ---------------------------------------------------------------------------
# assumptions


def test_eigen_overlap_oscillators(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    assert check_assumption_eigen(spectrum).holds


def test_eigen_overlap_simple_coincidence_holds():
    # Eigenvalues {0, +-j} with trivial blocks at the pair.
    A = block_diag([[0.0]], [[0.0, 1.0], [-1.0, 0.0]])
    spectrum = distinct_eigenvalues(A)
    assert check_assumption_eigen(spectrum).holds


def test_eigen_overlap_violated_by_pair_chain():
    # Real eigenvalue 0 plus a +-j pair carrying a length-2 chain.
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    C = np.block([[J, np.eye(2)], [np.zeros((2, 2)), J]])
    A = block_diag([[0.0]], C)
    spectrum = distinct_eigenvalues(A)
    check = check_assumption_eigen(spectrum)
    assert not check.holds
    violated = [spectrum.components[k - 1].mu for k in check.violated_at]
    assert all(mu.imag != 0 for mu in violated)
    assert len(check.violated_at) == 2


def _overlapping_chain(d, eps):
    # diag(100, 1, J), J the real 4x4 Jordan block of 1 + d +/- i with
    # coupling eps: the spectrum clusters at 1e-8 (1 + 100) = 1.01e-6.
    C = np.array([[1.0 + d, 1.0], [-1.0, 1.0 + d]])
    J = np.block([[C, eps * np.eye(2)], [np.zeros((2, 2)), C]])
    return block_diag([[100.0]], [[1.0]], J)


def test_eigen_overlap_reads_the_spectrums_grouping():
    # The pair's real part, 5e-8 off the real eigenvalue 1, lies within
    # the clustering tolerance, so the spectrum orders it in 1's group;
    # the check must see the same overlap.
    spectrum = distinct_eigenvalues(_overlapping_chain(5e-8, 1.0))
    assert [c.mu.real == 1.0 for c in spectrum.components[1:]] == [True, False, False]
    check = check_assumption_eigen(spectrum)
    assert not check.holds and check.violated_at == (3, 4)


def test_eigen_overlap_reads_the_spectrums_multiplicities():
    # A coupling of 1e-7 lies below the spectrum's eigenspace floor, so
    # it finds two eigenvectors at each of 1 +/- i: no chain to flag.
    spectrum = distinct_eigenvalues(_overlapping_chain(0.0, 1e-7))
    assert [(c.alg_mult, c.geo_mult) for c in spectrum.components[2:]] == [(2, 2), (2, 2)]
    assert check_assumption_eigen(spectrum).holds


def test_tol_eig_moves_the_eigen_overlap_verdict_end_to_end(tmp_path, capsys):
    # At d = 5e-7 the pair overlaps the real eigenvalue 1 under the
    # default clustering tolerance 1.01e-6, not under 1.01e-7.
    B = np.kron([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]], np.ones((6, 1)))
    path = tmp_path / "overlap.json"
    save_spec(ArraySpec.from_incidence(_overlapping_chain(5e-7, 1.0), B), path)
    for flags, expected in (([], "violated at k=3,4"), (["--tol-eig", "1e-9"], "holds")):
        assert main(["analyze", str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert f"  eigen overlap: {expected}" in out.splitlines(), flags
        assert (EIGEN_CAVEAT in out) == (expected != "holds"), flags


def test_report_flags_a_violated_eigen_overlap():
    # A = diag(0, J), J the real Jordan block of +-i with a length-2 chain,
    # on a three-system path whose inputs drive every state.
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    J = np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])
    B = np.kron([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]], np.ones((5, 1)))
    report = analyze(ArraySpec.from_incidence(block_diag([[0.0]], J), B))
    assert EIGEN_CAVEAT in report.caveats
    assert "  eigen overlap: violated at k=2,3" in render_text(report).splitlines()


def test_report_flags_a_marginal_cone_test():
    # At tol_cone = 0.03 a watertanks cone residual falls within a decade
    # of the threshold.
    report = analyze(build_example("watertanks"), tolerances=Tolerances(cone=0.03))
    assert MARGINAL_CAVEAT in report.caveats
    assert any(row.marginal for row in report.rows("V"))
    assert MARGINAL_CAVEAT not in analyze(build_example("watertanks")).caveats


def test_render_text_stars_a_marginal_q_row():
    # The watertanks graph is its own Q graph, so the marginal peel of its
    # V row reaches the Q row, whose strong (1,2) flag is negative.
    for tolerances, flag in ((Tolerances(cone=0.03), "NO*"), (None, "NO")):
        report = analyze(build_example("watertanks"), [(1, 2)], tolerances)
        (line,) = [line for line in render_text(report).splitlines() if line.startswith("  1 ")]
        assert line.split()[-1] == flag


def test_closed_structural_watertanks(watertanks):
    assert check_assumption_closed_structural(watertanks)


def test_closed_structural_chain_ring(chain_ring):
    assert check_assumption_closed_structural(chain_ring)


def test_closed_structural_oscillators(oscillators_a):
    assert not check_assumption_closed_structural(oscillators_a)


def test_closed_structural_permuted_chain():
    # Relabeling the chain states must not defeat the detector; the input
    # has to enter at the relabeled terminal state.
    J = np.diag(np.ones(2), 1)          # 3-state chain, terminal state 3
    perm = np.eye(3)[[2, 0, 1]]
    A = perm @ J @ perm.T
    e_term = perm[:, 2]                 # the relabeled terminal state
    assert not np.any(e_term @ A)       # is A's zero row
    G = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    incidence = np.kron(G, e_term[:, None])
    spec = ArraySpec.from_incidence(A, incidence)
    assert check_assumption_closed_structural(spec)


def test_closed_structural_wrong_tap_state():
    A = [[0.0, 1.0], [0.0, 0.0]]
    incidence = np.kron(
        np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]), np.array([[1.0], [0.0]])
    )
    spec = ArraySpec.from_incidence(A, incidence)
    assert not check_assumption_closed_structural(spec)


def test_closed_structural_non_unit_weights():
    A = [[0.0]]
    spec = ArraySpec.from_incidence(A, [[2.0], [-2.0], [0.0]])
    assert not check_assumption_closed_structural(spec)


def _tapped_at(A, state):
    # Unit-edge inputs 1 -> 2 -> 3 entering at one state of every system.
    G = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    return ArraySpec.from_incidence(A, np.kron(G, np.eye(len(A))[:, [state]]))


def test_closed_structural_rejects_two_cycle_beside_isolated_state():
    # n - 1 ones, at most one per row and column, but 1 <-> 2 is a cycle.
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    for state in range(3):
        assert not check_assumption_closed_structural(_tapped_at(A, state))


def test_closed_structural_rejects_branching():
    # Nilpotent with n - 1 ones, but column 3 holds two of them.
    A = np.zeros((3, 3))
    A[0, 2] = A[1, 2] = 1.0
    for state in range(3):
        assert not check_assumption_closed_structural(_tapped_at(A, state))
    A = np.zeros((3, 3))
    A[2, 0] = A[2, 1] = 1.0            # and here row 3 does
    for state in range(3):
        assert not check_assumption_closed_structural(_tapped_at(A, state))


# ---------------------------------------------------------------------------
# positive pairwise


def test_positive_pairwise_counterexample(counterexample):
    verdict = analyze(counterexample, [(2, 3)]).positive_pairwise[2, 3]
    assert not verdict.yes
    assert verdict.conditional        # chain pattern does not match: two chains


def test_chain_ring_positive_pairwise_unconditional(chain_ring):
    for verdict in analyze(chain_ring, all_pairs(3)).positive_pairwise.values():
        assert verdict.yes and not verdict.conditional


# ---------------------------------------------------------------------------
# corpus-level implications


def test_random_corpus_implications():
    rng = np.random.default_rng(31)
    for _ in range(40):
        report = analyze(random_array_spec(rng), [(1, 2)])
        if report.positively_controllable:
            assert report.controllable
        if report.positive_pairwise[1, 2].yes:
            assert report.pairwise[1, 2]


def _structured_spec(rng):
    """Arrays whose node matrix has a repeated eigenvalue.

    Either a permuted shift chain (one eigenvalue, geometric multiplicity
    one) or a scalar multiple of the identity (full geometric
    multiplicity); both sides of the generalized-eigenspace machinery get
    exercised, unlike with generic random matrices.
    """
    n = int(rng.integers(2, 4))
    q = int(rng.integers(2, 5))
    p = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        J = np.diag(np.ones(n - 1), 1)
        P = np.eye(n)[rng.permutation(n)]
        A = P @ J @ P.T
    else:
        A = float(rng.standard_normal()) * np.eye(n)
    B = np.zeros((q, p, n))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        w = rng.standard_normal(n)
        B[i, s] = w
        B[j, s] = -w
    return ArraySpec(n=n, q=q, p=p, A=A, B=B)


def test_oracle_agreement_on_repeated_eigenvalue_corpus():
    from relctrl import brammer_positive, kalman_reduced, pairwise_range

    rng = np.random.default_rng(47)
    for _ in range(30):
        spec = _structured_spec(rng)
        report = analyze(spec, all_pairs(spec.q))
        assert report.controllable == kalman_reduced(spec)
        assert report.positively_controllable == brammer_positive(spec)
        for pair, verdict in report.pairwise.items():
            assert verdict == pairwise_range(spec, *pair)


def test_verdicts_invariant_under_uniform_scaling():
    # Eigenvectors are unchanged by A -> cA and the graph columns only
    # rescale, so every verdict must survive large scale changes.
    rng = np.random.default_rng(61)
    for _ in range(10):
        spec = random_array_spec(rng)
        base = analyze(spec, pairs=[(1, 2)])
        for scale in (1e-3, 1e3):
            scaled = ArraySpec(
                n=spec.n,
                q=spec.q,
                p=spec.p,
                A=scale * spec.A,
                B=scale * spec.B,
            )
            report = analyze(scaled, pairs=[(1, 2)])
            assert report.controllable == base.controllable
            assert report.positively_controllable == base.positively_controllable
            assert report.pairwise == base.pairwise
            assert (
                report.positive_pairwise[(1, 2)].yes
                == base.positive_pairwise[(1, 2)].yes
            )


def test_analyze_is_thread_safe(watertanks_ring):
    from concurrent.futures import ThreadPoolExecutor

    from relctrl import report_to_dict

    def run(_):
        return report_to_dict(analyze(watertanks_ring, pairs=[(1, 2), (2, 3)]))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, range(16)))
    assert all(r == results[0] for r in results[1:])


def test_conjugate_rows_match_direct_computation():
    # The copied verdicts for negative-imaginary components must equal
    # what direct evaluation of their (conjugated) graphs yields.
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(20):
        spec = random_array_spec(rng)
        spectrum = distinct_eigenvalues(spec.A)
        graphs = w_graphs(spec, spectrum)
        report = analyze(spec, pairs=all_pairs(spec.q))
        w_rows = [v for v in report.graph_verdicts if v.graph_kind == "W"]
        for kappa, comp in enumerate(spectrum.components):
            if comp.is_real or comp.mu.imag > 0:
                continue
            for pair in all_pairs(spec.q):
                (direct,) = kl_connected_pairs(graphs[kappa], [pair])
                assert w_rows[kappa].kl_connected[pair] == direct
                checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# report assembly


def test_analyze_report_fields(watertanks):
    report = analyze(watertanks, pairs=[(1, 2), (1, 3)])
    assert report.controllable
    assert not report.positively_controllable
    assert report.pairwise == {(1, 2): True, (1, 3): True}
    assert not report.positive_pairwise[(1, 2)].yes
    assert not report.positive_pairwise[(1, 2)].conditional
    assert report.positive_pairwise[(1, 3)].yes is False or True   # present
    assert report.assumption_eigen.holds
    assert report.assumption_closed
    kinds = {v.graph_kind for v in report.graph_verdicts}
    assert kinds == {"V", "W", "Q"}


def test_analyze_counterexample_reports_both_facts(counterexample):
    report = analyze(counterexample, pairs=[(2, 3)])
    assert report.pairwise[(2, 3)] is False
    v_row = next(v for v in report.graph_verdicts if v.graph_kind == "V")
    assert v_row.kl_connected[(2, 3)] is True


def test_analyze_conjugate_rows_copied(oscillators_a):
    report = analyze(oscillators_a, pairs=[(1, 2)])
    v_rows = [v for v in report.graph_verdicts if v.graph_kind == "V"]
    for kappa, comp in enumerate(report.spectrum.components):
        if comp.is_real or comp.mu.imag > 0:
            continue
        partner = v_rows[kappa - 1]
        assert v_rows[kappa].connected == partner.connected
        assert v_rows[kappa].kl_connected == partner.kl_connected


def _leaning_inputs() -> ArraySpec:
    # Inputs e1 - e2 and e1 - e2 + 1e-6 (1, 1, -2): the second leans out
    # of the first's direction by about 1e-6, which counts at rank
    # tolerance 1e-9 and falls below the cutoff at 1e-3.
    e = np.array([1.0, -1.0, 0.0])
    G = np.column_stack([e, e + 1e-6 * np.array([1.0, 1.0, -2.0])])
    return ArraySpec.from_incidence([[0.0]], G, name="leaning-inputs")


def test_a_rank_tolerance_reaches_every_graph(tmp_path, capsys):
    spec = _leaning_inputs()
    for tol, expected in ((DEFAULT_TOLERANCES, True), (Tolerances(rank=1e-3), False)):
        report, graphs = analyze_with_graphs(spec, [(1, 3)], tol)
        assert report.controllable is expected
        assert report.pairwise == {(1, 3): expected}
        for G in graphs["V"] + graphs["W"] + graphs["Q"]:
            assert G.tol is report.tolerances
            assert set(G._memo) <= {"complement", "edges", "lineality"}
        for G, comp in zip(graphs["Q"], report.spectrum.components):
            if comp.is_real:
                assert lineality_generators(G).graph.tol is report.tolerances
    path = tmp_path / "leaning.json"
    save_spec(spec, path)
    for flags, expected in (([], True), (["--tol-rank", "1e-3"], False)):
        assert main(["analyze", str(path), "--pair", "1", "3", "--json", *flags]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts["controllable"] is expected
        assert verdicts["pairwise"] == {"1-3": expected}
