"""Acceptance criteria, one test per criterion, with runtime budgets.

Each test prints a PASS/FAIL line (visible under pytest -s or on failure)
and asserts both the criterion and its time limit.
"""

import math
import time

import numpy as np

from relctrl import (
    Tolerances,
    analyze,
    brammer_positive,
    build_example,
    kalman_reduced,
    pairwise_range,
    path_oracle,
    polar_falsifier,
    reach_simulator,
)
from relctrl.gengraph import (
    cone_contains_subspace,
    cone_member,
    is_connected,
    kl_connected_pairs,
    lineality_generators,
    lineality_space,
    make_graph,
)
from relctrl.spectral import distinct_eigenvalues

from conftest import all_pairs, random_array_spec, random_unit_incidence

OSC_FREQS = {
    math.sqrt(math.tan(5 * math.pi / 12)),
    1.0,
    math.sqrt(1 / 2),
    math.sqrt(1 / 3),
    math.sqrt(math.tan(math.pi / 12)),
}


def _finish(criterion: str, start: float, limit: float, detail: str = ""):
    elapsed = time.perf_counter() - start
    print(f"PASS: {criterion} ({elapsed:.2f}s, limit {limit:g}s) {detail}")
    assert elapsed < limit, f"{criterion} exceeded its {limit}s budget ({elapsed:.2f}s)"


def test_criterion_1_oscillator_arrays():
    start = time.perf_counter()
    spec_a = build_example("oscillators-a")
    spec_b = build_example("oscillators-b")

    for spec in (spec_a, spec_b):
        spectrum = distinct_eigenvalues(spec.A)
        assert len(spectrum.components) == 10
        for comp in spectrum.components:
            assert comp.mu.real == 0.0
            assert min(abs(abs(comp.mu.imag) - f) for f in OSC_FREQS) <= 1e-9
        assert all(c.alg_mult == 1 for c in spectrum.components)

    report_a = analyze(spec_a)
    assert report_a.controllable
    v_rows_a = [v for v in report_a.graph_verdicts if v.graph_kind == "V"]
    assert all(row.connected for row in v_rows_a)

    report_b = analyze(spec_b)
    assert not report_b.controllable
    v_rows_b = [v for v in report_b.graph_verdicts if v.graph_kind == "V"]
    for row, comp in zip(v_rows_b, report_b.spectrum.components):
        disconnected_pair = abs(abs(comp.mu.imag) - math.sqrt(0.5)) <= 1e-9
        assert row.connected == (not disconnected_pair)

    _finish("criterion 1 (oscillator arrays)", start, 5.0)


def test_criterion_2_water_tanks():
    start = time.perf_counter()
    two_pumps = analyze(build_example("watertanks"))
    assert two_pumps.controllable
    assert not two_pumps.positively_controllable
    ring = analyze(build_example("watertanks-ring"))
    assert ring.controllable
    assert ring.positively_controllable
    _finish("criterion 2 (water tanks)", start, 1.0)


def test_criterion_3_counterexample_report():
    start = time.perf_counter()
    report = analyze(build_example("counterexample-23"), pairs=[(2, 3)])
    assert report.pairwise[(2, 3)] is False
    v_row = next(v for v in report.graph_verdicts if v.graph_kind == "V")
    assert v_row.kl_connected[(2, 3)] is True

    from relctrl import render_json, render_text

    text = render_text(report)
    assert "(2,3)-controllable: NO" in text
    import json

    doc = json.loads(render_json(report))
    assert doc["verdicts"]["pairwise"]["2-3"] is False
    assert doc["graphs"][0]["kind"] == "V"
    assert doc["graphs"][0]["kl_connected"]["2-3"] is True
    _finish("criterion 3 (counterexample report)", start, 1.0)


def test_criterion_4_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    outcomes = {"controllable": 0, "positive": 0}
    for _ in range(100):
        spec = random_array_spec(rng, n_max=3, q_max=4, p_max=5)
        pairs = all_pairs(spec.q)
        report = analyze(spec, pairs=pairs)
        assert report.controllable == kalman_reduced(spec, report.tolerances.rank)
        assert report.positively_controllable == brammer_positive(spec, report.tolerances)
        for pair in pairs:
            assert report.pairwise[pair] == pairwise_range(
                spec, pair[0], pair[1], report.tolerances.rank
            )
        outcomes["controllable"] += report.controllable
        outcomes["positive"] += report.positively_controllable
    # The corpus must exercise both branches to mean anything.
    assert 0 < outcomes["controllable"] < 100
    assert outcomes["positive"] < outcomes["controllable"]
    _finish(
        "criterion 4 (oracle equivalence, 100 specs)",
        start,
        60.0,
        f"controllable={outcomes['controllable']}, positive={outcomes['positive']}",
    )


def test_criterion_5_path_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    for _ in range(200):
        M = random_unit_incidence(rng, q_max=6, p_max=8)
        q = M.shape[0]
        G = make_graph(q, 1, M)
        pairs = all_pairs(q)
        assert is_connected(G) == path_oracle(M, "connected")
        assert cone_contains_subspace(G)[0] == path_oracle(M, "strong")
        assert kl_connected_pairs(G, pairs) == [path_oracle(M, "kl", *pair) for pair in pairs]
        assert kl_connected_pairs(lineality_generators(G).graph, pairs) == [
            path_oracle(M, "strong_kl", *pair) for pair in pairs
        ]
    _finish("criterion 5 (path oracle, 200 graphs)", start, 10.0)


def _random_cone(rng):
    q = int(rng.integers(2, 6))
    n = int(rng.integers(1, 3))
    count = int(rng.integers(2, 9))
    proj = np.eye(q) - np.full((q, q), 1.0 / q)
    cols = []
    for _ in range(count):
        z = rng.standard_normal((q, n))
        cols.append((proj @ z).reshape(q * n))
    # Re-add negations of a random subset to plant lineality directions.
    for idx in np.flatnonzero(rng.random(count) < 0.4):
        cols.append(-cols[idx])
    M = np.stack(cols, axis=1)
    return make_graph(q, n, M, Tolerances(zero=1e-8))


def test_criterion_6_lineality_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    nontrivial = 0
    for _ in range(50):
        G = _random_cone(rng)
        basis = lineality_space(G)
        nontrivial += basis.shape[1] > 0
        for b in basis.T:
            for sign in (1.0, -1.0):
                feas = cone_member(G, sign * b)
                assert feas.member
                assert feas.residual <= 1e-8
        # Generators outside the returned span must fail negated membership.
        for col in G.M.T:
            if np.linalg.norm(col) == 0.0:
                continue
            inside = basis.shape[1] > 0 and np.linalg.norm(
                col - basis @ (basis.T @ col)
            ) <= 1e-8 * (1 + np.linalg.norm(col))
            if not inside:
                assert not cone_member(G, -col).member
    assert nontrivial >= 10
    _finish("criterion 6 (lineality, 50 cones)", start, 10.0, f"nontrivial={nontrivial}")


def test_criterion_7_positive_pairwise_end_to_end():
    start = time.perf_counter()
    ring = build_example("watertanks-ring")
    chain = build_example("integrator-chain-ring")

    for spec in (ring, chain):
        report = analyze(spec, pairs=all_pairs(spec.q))
        assert report.assumption_eigen.holds
        assert report.assumption_closed
        for pair, verdict in report.positive_pairwise.items():
            assert verdict.yes, f"{spec.name} {pair}"
            assert not verdict.conditional

    for spec in (ring, chain):
        results = reach_simulator(spec, 1, 2)
        assert all(r.hit and r.residual <= 1e-6 for r in results), spec.name

    assert polar_falsifier(ring, 1, 2) is None
    assert polar_falsifier(chain, 1, 2) is None

    witness = polar_falsifier(build_example("watertanks"), 1, 2)
    assert witness is not None
    _finish("criterion 7 (positive pairwise end to end)", start, 120.0)
