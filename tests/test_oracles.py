import numpy as np
import pytest

from relctrl import (
    ArraySpec,
    brammer_positive,
    is_pairwise_controllable,
    kalman_reduced,
    make_reach_problem,
    pairwise_range,
    path_oracle,
    polar_falsifier,
    reach_simulator,
)
from relctrl.errors import GraphDomainError, InvalidArrayError

WT = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
TRIANGLE = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])


def test_kalman_watertanks(watertanks):
    assert kalman_reduced(watertanks)


def test_kalman_oscillator_b(oscillators_b):
    assert not kalman_reduced(oscillators_b)


def test_kalman_zero_input():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.zeros((2, 1, 1)))
    assert not kalman_reduced(spec)


def test_brammer_watertanks(watertanks):
    assert not brammer_positive(watertanks)


def test_brammer_ring(watertanks_ring):
    assert brammer_positive(watertanks_ring)


def test_brammer_oscillator_a(oscillators_a):
    assert brammer_positive(oscillators_a)


def test_pairwise_range_counterexample(counterexample):
    assert not pairwise_range(counterexample, 2, 3)
    assert pairwise_range(counterexample, 1, 2) == is_pairwise_controllable(
        counterexample, 1, 2
    )[0]


def test_pairwise_range_controllable_array(watertanks_ring):
    for k, l in ((1, 2), (2, 3), (3, 1)):
        assert pairwise_range(watertanks_ring, k, l)


def test_path_oracle_watertanks_graph():
    assert not path_oracle(WT, "strong_kl", 1, 3)
    assert path_oracle(WT, "kl", 1, 3)
    assert path_oracle(WT, "connected")
    assert not path_oracle(WT, "strong")


def test_path_oracle_triangle():
    for k, l in ((1, 2), (2, 1), (1, 3), (3, 2)):
        assert path_oracle(TRIANGLE, "strong_kl", k, l)
    assert path_oracle(TRIANGLE, "strong")


def test_path_oracle_empty_edge_set():
    G = np.zeros((2, 0))
    assert not path_oracle(G, "connected")
    assert not path_oracle(G, "strong")
    assert not path_oracle(G, "kl", 1, 2)
    assert not path_oracle(G, "strong_kl", 1, 2)


def test_path_oracle_rejects_weighted_columns():
    with pytest.raises(GraphDomainError):
        path_oracle(np.array([[0.5], [-0.5]]), "connected")
    with pytest.raises(GraphDomainError):
        path_oracle(np.array([[1.0], [1.0], [-2.0]]), "connected")


def test_falsifier_finds_watertanks_witness(watertanks):
    eta = polar_falsifier(watertanks, 1, 2, attempts=100, seed=0)
    assert eta is not None
    # Witness property: all input responses nonpositive (A = 0 here) and a
    # visible component along e_1 - e_2.
    assert (WT.T @ eta).max() <= 1e-7
    assert abs(eta[0] - eta[1]) >= 0.1


def test_falsifier_silent_on_ring(watertanks_ring):
    assert polar_falsifier(watertanks_ring, 1, 2, attempts=100, seed=0) is None


def test_falsifier_trivial_for_zero_input():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.zeros((2, 1, 1)))
    eta = polar_falsifier(spec, 1, 2, attempts=10, seed=3)
    assert eta is not None
    assert abs(eta[0] - eta[1]) >= 0.1


def test_reach_ring_hits_targets(watertanks_ring):
    prob = make_reach_problem(watertanks_ring, 1, 2, horizon=2.0, steps=20)
    results = reach_simulator(prob)
    assert len(results) == 2
    assert all(r.hit for r in results)
    assert max(r.residual for r in results) <= 1e-6


def test_reach_two_pump_target_unreachable(watertanks):
    # e_2 - e_1 lies outside the input cone and the tank dynamics are
    # time-invariant, so no step count helps.
    for steps in (2, 25, 100):
        prob = make_reach_problem(watertanks, 1, 2, horizon=2.0, steps=steps)
        results = reach_simulator(prob)
        target_back = next(r for r in results if r.target[1] > 0)
        assert target_back.residual >= 0.1


def test_reach_oscillators_completes_at_cli_defaults(oscillators_a):
    # Degenerate programs: an active-set loop that cycles on them hits its
    # iteration cap and raises instead of returning residuals.
    from relctrl.cli import build_parser

    args = build_parser().parse_args(["oracle", "spec.json"])
    prob = make_reach_problem(oscillators_a, 1, 2, args.horizon, args.steps)
    results = reach_simulator(prob)
    assert len(results) == 2 * oscillators_a.n
    assert all(np.isfinite(r.residual) for r in results)


def test_reach_accepts_noise_within_tol_zero(watertanks_ring):
    B = np.array(watertanks_ring.B)
    B[0, 0, 0] += 1e-7                  # column-sum error of 1e-7
    spec = ArraySpec(n=1, q=3, p=3, A=watertanks_ring.A, B=B)
    prob = make_reach_problem(spec, 1, 2, horizon=2.0, steps=20)
    with pytest.raises(InvalidArrayError):
        reach_simulator(prob)
    assert all(r.hit for r in reach_simulator(prob, tol_zero=1e-6))


def test_reach_problem_validation(watertanks):
    with pytest.raises(GraphDomainError):
        make_reach_problem(watertanks, 1, 2, horizon=0.0, steps=10)
    with pytest.raises(GraphDomainError):
        make_reach_problem(watertanks, 1, 2, horizon=1.0, steps=1)
