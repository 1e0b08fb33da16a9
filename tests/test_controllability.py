import numpy as np
import pytest
from scipy.linalg import block_diag

import relctrl.controllability as controllability_module
from relctrl import (
    ArraySpec,
    analyze,
    build_big,
    check_assumption_closed_structural,
    check_assumption_eigen,
    controllability_matrix,
    distinct_eigenvalues,
    is_controllable,
    is_kl_connected,
    is_pairwise_controllable,
    is_positive_pairwise_controllable,
    is_positively_controllable,
    q_graphs_and_index_sets,
    v_graphs,
    w_graphs,
)
from relctrl.controllability import _shift_chain_terminal
from relctrl.errors import DimensionError, InvalidArrayError

from conftest import all_pairs, random_array_spec


# ---------------------------------------------------------------------------
# controllability matrix


def test_controllability_matrix_watertanks_is_input_matrix(watertanks):
    W = controllability_matrix(watertanks)
    np.testing.assert_array_equal(W.M, watertanks.incidence)


def test_controllability_matrix_counterexample(counterexample):
    W = controllability_matrix(counterexample)
    assert W.M.shape == (12, 12)
    assert not is_kl_connected(W, 2, 3)


def test_controllability_matrix_chain_ring_rank(chain_ring):
    W = controllability_matrix(chain_ring)
    assert np.linalg.matrix_rank(W.M) == (chain_ring.q - 1) * chain_ring.n


def test_controllability_matrix_matches_stacked_operator():
    # Applying A blockwise equals powers of the stacked I_q ⊗ A.
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_array_spec(rng)
        big = build_big(spec)
        blocks, P = [], big.Bbig
        for _ in range(spec.n):
            blocks.append(P)
            P = big.Abig @ P
        np.testing.assert_allclose(
            controllability_matrix(spec).M, np.hstack(blocks), rtol=1e-12, atol=1e-12
        )


# ---------------------------------------------------------------------------
# eigenvector graphs


def test_v_graph_watertanks_is_input_matrix(watertanks):
    spectrum = distinct_eigenvalues(watertanks.A)
    (G,) = v_graphs(watertanks, spectrum)
    np.testing.assert_array_equal(G.M, watertanks.incidence)


def test_v_graphs_oscillators_scalar_edges(oscillators_a, oscillators_b):
    from relctrl import detect_scalar_edges

    spectrum = distinct_eigenvalues(oscillators_a.A)
    counts_a = [len(detect_scalar_edges(G)) for G in v_graphs(oscillators_a, spectrum)]
    assert counts_a == [3, 3, 2, 2, 2, 2, 2, 2, 3, 3]
    spectrum_b = distinct_eigenvalues(oscillators_b.A)
    counts_b = [len(detect_scalar_edges(G)) for G in v_graphs(oscillators_b, spectrum_b)]
    assert counts_b == [3, 3, 2, 2, 1, 1, 2, 2, 3, 3]


def test_v_graph_oscillator_b_disconnected_at_middle_pair(oscillators_b):
    from relctrl import is_connected

    spectrum = distinct_eigenvalues(oscillators_b.A)
    connected = [is_connected(G) for G in v_graphs(oscillators_b, spectrum)]
    mus = [c.mu for c in spectrum.components]
    for flag, mu in zip(connected, mus):
        expected = abs(abs(mu.imag) - np.sqrt(0.5)) > 1e-9
        assert flag == expected


def test_oscillator_b_disconnected_cell_renders_with_missing_vertex(oscillators_b):
    # The disconnected graph still renders: one arc between systems 2 and
    # 3, system 1 isolated.
    from relctrl import to_dot

    spectrum = distinct_eigenvalues(oscillators_b.A)
    kappa = next(
        i
        for i, c in enumerate(spectrum.components)
        if abs(c.mu.imag - np.sqrt(0.5)) <= 1e-9
    )
    G = v_graphs(oscillators_b, spectrum)[kappa]
    text = to_dot(G)
    arcs = [line for line in text.splitlines() if "->" in line]
    assert len(arcs) == 1
    assert '"2" -> "3"' in arcs[0] or '"3" -> "2"' in arcs[0]
    assert '"1" ->' not in text and '-> "1"' not in text


# ---------------------------------------------------------------------------
# the four verdicts on the worked examples


def test_watertanks_verdicts(watertanks):
    assert is_controllable(watertanks)[0]
    assert not is_positively_controllable(watertanks)[0]
    assert is_pairwise_controllable(watertanks, 1, 3)[0]
    yes, conditional, _ = is_positive_pairwise_controllable(watertanks, 1, 2)
    assert not yes
    assert not conditional


def test_watertanks_ring_verdicts(watertanks_ring):
    assert is_controllable(watertanks_ring)[0]
    assert is_positively_controllable(watertanks_ring)[0]
    for k, l in all_pairs(3):
        yes, conditional, _ = is_positive_pairwise_controllable(watertanks_ring, k, l)
        assert yes and not conditional


def test_oscillator_verdicts(oscillators_a, oscillators_b):
    assert is_controllable(oscillators_a)[0]
    assert not is_controllable(oscillators_b)[0]
    # No real eigenvalues, so the strong condition is vacuous.
    assert is_positively_controllable(oscillators_a)[0]


def test_zero_input_not_controllable():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.zeros((2, 1, 1)))
    assert not is_controllable(spec)[0]


def test_counterexample_pairwise(counterexample):
    ok, rows = is_pairwise_controllable(counterexample, 2, 3)
    assert not ok
    spectrum = distinct_eigenvalues(counterexample.A)
    (vg,) = v_graphs(counterexample, spectrum)
    assert is_kl_connected(vg, 2, 3)


def test_controllable_array_pairwise_everywhere(watertanks_ring):
    for k, l in all_pairs(3):
        assert is_pairwise_controllable(watertanks_ring, k, l)[0]


def test_verdict_functions_refuse_invalid_arrays():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.ones((2, 1, 1)))
    for check in (is_controllable, is_positively_controllable):
        with pytest.raises(InvalidArrayError):
            check(spec)
    with pytest.raises(InvalidArrayError):
        is_pairwise_controllable(spec, 1, 2)


def test_positive_controllability_builds_v_graphs_once(watertanks_ring, monkeypatch):
    calls = []
    original = controllability_module.v_graphs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(controllability_module, "v_graphs", counting)
    ok, rows = is_positively_controllable(watertanks_ring)
    assert ok
    assert len(calls) == 1
    assert all(row.strongly_connected for row in rows if row.mu.imag == 0.0)


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


def test_pair_validation(watertanks):
    with pytest.raises(DimensionError):
        is_pairwise_controllable(watertanks, 1, 1)
    with pytest.raises(DimensionError):
        is_pairwise_controllable(watertanks, 0, 2)
    with pytest.raises(DimensionError):
        is_pairwise_controllable(watertanks, 1, 4)


# ---------------------------------------------------------------------------
# swept graphs


def test_w_graphs_scalar_components_are_scaled_v_graphs(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    vgs = v_graphs(oscillators_a, spectrum)
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
    assert not is_kl_connected(wg, 2, 3)


def test_w_graph_watertanks_equals_input_matrix(watertanks):
    spectrum = distinct_eigenvalues(watertanks.A)
    (wg,) = w_graphs(watertanks, spectrum)
    np.testing.assert_array_equal(wg.M, watertanks.incidence)


# ---------------------------------------------------------------------------
# index recursion


def test_index_recursion_watertanks(watertanks):
    spectrum = distinct_eigenvalues(watertanks.A)
    _, trace = q_graphs_and_index_sets(watertanks, spectrum)
    (step,) = trace.steps
    assert step.index_set == (1, 2)
    assert step.removed == (1, 2)
    assert step.lineality_dim == 0


def test_index_recursion_ring(watertanks_ring):
    spectrum = distinct_eigenvalues(watertanks_ring.A)
    _, trace = q_graphs_and_index_sets(watertanks_ring, spectrum)
    (step,) = trace.steps
    assert step.index_set == (1, 2, 3)
    assert step.removed == ()
    assert step.lineality_dim == 2


def test_index_recursion_oscillators(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    _, trace = q_graphs_and_index_sets(oscillators_a, spectrum)
    for step in trace.steps:
        assert step.index_set == (1, 2, 3)
        assert step.removed == ()
        assert step.lineality_dim is None


def test_index_recursion_monotone_on_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        spec = random_array_spec(rng)
        spectrum = distinct_eigenvalues(spec.A)
        _, trace = q_graphs_and_index_sets(spec, spectrum)
        previous = None
        for step in trace.steps:
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
    terminal = _shift_chain_terminal(A, 1e-9)
    e_term = np.zeros(3)
    e_term[terminal] = 1.0
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


# ---------------------------------------------------------------------------
# positive pairwise


def test_positive_pairwise_counterexample(counterexample):
    yes, conditional, _ = is_positive_pairwise_controllable(counterexample, 2, 3)
    assert not yes
    assert conditional        # chain pattern does not match: two chains


def test_chain_ring_positive_pairwise_unconditional(chain_ring):
    for k, l in all_pairs(3):
        yes, conditional, _ = is_positive_pairwise_controllable(chain_ring, k, l)
        assert yes and not conditional


# ---------------------------------------------------------------------------
# corpus-level implications


def test_random_corpus_implications():
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec = random_array_spec(rng)
        controllable = is_controllable(spec)[0]
        positive = is_positively_controllable(spec)[0]
        if positive:
            assert controllable
        pair = (1, 2)
        yes, _, _ = is_positive_pairwise_controllable(spec, *pair)
        if yes:
            assert is_pairwise_controllable(spec, *pair)[0]


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
        assert is_controllable(spec)[0] == kalman_reduced(spec)
        assert is_positively_controllable(spec)[0] == brammer_positive(spec)
        for pair in all_pairs(spec.q):
            assert is_pairwise_controllable(spec, *pair)[0] == pairwise_range(
                spec, *pair
            )


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
                direct = is_kl_connected(graphs[kappa], pair[0], pair[1])
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
