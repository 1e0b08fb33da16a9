import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import relctrl.oracles
from relctrl import (
    DEFAULT_TOLERANCES,
    ArraySpec,
    Tolerances,
    analyze,
    brammer_positive,
    build_example,
    cross_check,
    example_names,
    kalman_reduced,
    nnls,
    pairwise_range,
    path_oracle,
    polar_falsifier,
    reach_simulator,
)
from relctrl.array_model import build_big, require_valid
from relctrl.config import DECADE
from relctrl.corpus import random_array_spec
from relctrl.errors import DimensionError, GraphDomainError, InvalidArrayError
from relctrl.numutil import equilibrated, pair_difference, pair_indices
from relctrl.oracles import (
    ResponseStack,
    _batch,
    _chebyshev_grid,
    _exponentials,
    _input_responses,
    _krylov_complement,
    _pair_targets,
    _pairs_in_range,
    _reached,
    _response_stack,
    _stays_nonpositive,
    default_polar_grid,
    polar_horizon,
)

from conftest import all_pairs
from test_controllability import _jordan_beside_rotation
from test_edge_route import _corpus, _damped_array
from test_gengraph import _certificate_breach, wide_matrix, wide_target

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
    assert pairwise_range(counterexample, 1, 2) == analyze(counterexample, [(1, 2)]).pairwise[1, 2]


@pytest.mark.parametrize("pair", [(0, 2), (1, 1), (4, 1), (1, 2**70)])
def test_oracles_reject_invalid_pairs(watertanks, pair):
    # Index 0 and negative indices must not wrap round to system q, and an
    # index beyond int64 must not overflow.
    with pytest.raises(DimensionError):
        pairwise_range(watertanks, *pair)
    with pytest.raises(DimensionError):
        polar_falsifier(watertanks, *pair)
    with pytest.raises(DimensionError):
        reach_simulator(watertanks, *pair)
    with pytest.raises(DimensionError):
        path_oracle(WT, "kl", *pair)


@pytest.mark.parametrize("pair", [(0, 2), (1, 1), (4, 1), (1, 2**70), (-1, 2)])
def test_pair_difference_checks_a_pair_as_pair_indices_does(pair):
    with pytest.raises(DimensionError) as vectorized:
        pair_indices(3, [pair])
    with pytest.raises(DimensionError) as scalar:
        pair_difference(3, *pair)
    assert str(scalar.value) == str(vectorized.value)


def test_pair_difference_is_e_k_minus_e_l():
    assert pair_difference(3, 3, 1).tolist() == [-1.0, 0.0, 1.0]
    assert pair_difference(4, np.int64(2), np.intp(4)).tolist() == [0.0, 1.0, 0.0, -1.0]


def test_pairwise_range_controllable_array(watertanks_ring):
    for k, l in ((1, 2), (2, 3), (3, 1)):
        assert pairwise_range(watertanks_ring, k, l)


def _residual_beside_small_kept_direction():
    # Input columns e and e + 1e-8 n (singular values 1.4 and 7e-9, kept at
    # the default cutoff 1.4e-9); the target e_1 - e_2 is n + 1e-3 m up to
    # scale, so it leaves a residual of ~1e-3 outside the range.  Comparing
    # rank([W, T]) with rank(W) calls it contained, since the singular value
    # [W, T] adds is only ~7e-12.
    t = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    m = np.array([1.0, 1.0, -2.0, 0.0]) / np.sqrt(6.0)
    e = np.array([1.0, 1.0, 1.0, -3.0]) / np.sqrt(12.0)
    n = (t - 1e-3 * m) / np.linalg.norm(t - 1e-3 * m)
    return ArraySpec.from_incidence([[0.0]], np.stack([e, e + 1e-8 * n], axis=1))


def test_pairwise_range_sees_residual_beside_small_kept_direction():
    spec = _residual_beside_small_kept_direction()
    assert not pairwise_range(spec, 1, 2)
    assert not analyze(spec, [(1, 2)]).pairwise[1, 2]


def _q_block_pairwise_range(spec, pairs, tol_rank=DEFAULT_TOLERANCES.rank):
    """The q-block range test: the full W, the kron target and W's own SVD.

    W = [B, (I ⊗ A) B, ...] of the q input blocks and the target
    (e_k - e_l) ⊗ I_n are column-equilibrated, and the target is in range
    when its projection onto the complement of W's numerical range has
    spectral norm at most tol_rank smax.  The reference for the reduced
    route of ``pairwise_range``.
    """
    spec = require_valid(spec, DEFAULT_TOLERANCES.zero)
    powers = [spec.B]
    for _ in range(spec.n - 1):
        powers.append(powers[-1] @ spec.A.T)
    W = equilibrated(
        np.stack(powers).transpose(1, 3, 0, 2).reshape(spec.q * spec.n, -1), tol_rank
    )
    U, s, _ = np.linalg.svd(W, full_matrices=False)
    bound = tol_rank * float(s.max(initial=0.0))
    U = U[:, : int(np.sum(s > bound))]
    verdicts = []
    for k, l in pairs:
        T = equilibrated(np.kron(pair_difference(spec.q, k, l)[:, None], np.eye(spec.n)), tol_rank)
        verdicts.append(float(np.linalg.norm(T - U @ (U.conj().T @ T), 2)) <= bound)
    return verdicts


def test_pairwise_range_matches_the_q_block_route():
    # Every ordered pair of the examples, of the edge-route corpus, of the
    # array whose residual sits beside a small kept direction, and of a
    # 40-system array in 20 or more pieces, whose 1,560 pairs are judged in
    # two stacks.  The reduced route is read as cross_check reads it, one
    # factorization for all pairs; pairwise_range itself is checked on the
    # examples.
    specs = [build_example(name) for name in example_names()]
    for spec in specs:
        pairs = all_pairs(spec.q)
        assert [pairwise_range(spec, k, l) for k, l in pairs] == _q_block_pairwise_range(
            spec, pairs
        ), spec.name
    specs += _corpus() + [_residual_beside_small_kept_direction()]
    specs.append(_damped_array(np.random.default_rng(3), 40, 4, 20))
    for index, spec in enumerate(specs):
        pairs = all_pairs(spec.q)
        big = build_big(spec)
        complement = _krylov_complement(spec.A, big.Bred, DEFAULT_TOLERANCES.rank)
        reduced = _pairs_in_range(complement, big.D, pairs, spec.n)
        assert reduced == _q_block_pairwise_range(spec, pairs), index


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
    eta = polar_falsifier(watertanks, 1, 2)
    assert eta is not None
    # Witness property: all input responses nonpositive (A = 0 here) and a
    # visible component along e_1 - e_2.
    assert (WT.T @ eta).max() <= 1e-7
    assert abs(eta[0] - eta[1]) >= 0.1


def test_falsifier_silent_on_ring(watertanks_ring):
    assert polar_falsifier(watertanks_ring, 1, 2) is None


def test_falsifier_trivial_for_zero_input():
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=np.zeros((2, 1, 1)))
    eta = polar_falsifier(spec, 1, 2)
    assert eta is not None
    assert abs(eta[0] - eta[1]) >= 0.1


def _kron_responses(spec, times):
    # Reference: rows of B* (I_q ⊗ exp(A* t)) for every time, stacked.
    return np.vstack(
        [spec.incidence.T @ np.kron(np.eye(spec.q), expm(spec.A.T * t)) for t in times]
    )


def test_input_responses_match_kron_reference(oscillators_b):
    times = np.array([0.0, 0.3, 2.0, 7.5])
    np.testing.assert_allclose(
        _input_responses(oscillators_b, times),
        _kron_responses(oscillators_b, times),
        rtol=1e-12,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# the exponential kernel, against scipy.linalg.expm as the reference


def _assert_matches_expm(A, times):
    # Per time, max-norm error at most 1e-11 (1 + ||E_ref||_max).
    A = np.asarray(A, dtype=float)
    got = _exponentials(A, times)
    ref = expm(A[None, :, :] * times[:, None, None])
    err = np.abs(got - ref).max(axis=(1, 2), initial=0.0)
    bound = 1e-11 * (1.0 + np.abs(ref).max(axis=(1, 2), initial=0.0))
    bad = np.flatnonzero(err > bound)
    assert bad.size == 0, (times[bad], err[bad], bound[bad])


@pytest.mark.parametrize("name", example_names())
def test_exponentials_match_expm_on_example_dense_grids(name):
    spec = build_example(name)
    grid = default_polar_grid(spec)
    _assert_matches_expm(spec.A, _chebyshev_grid(grid[-1], 10 * grid.size))


def test_exponentials_match_expm_on_random_matrices():
    # Standard normal A, as in random_array_spec, over the falsifier's own
    # horizon for A, where entries of e^{A t} reach ~1e27.  Near that growth
    # the reference itself errs by up to ~8e-12 against 40-digit arithmetic,
    # while the kernel stays within ~2e-14 (see the test below).
    rng = np.random.default_rng(1)
    for n in range(1, 11):
        for _ in range(4):
            A = rng.standard_normal((n, n))
            B = np.zeros((2, 1, n))
            B[0, 0, 0], B[1, 0, 0] = 1.0, -1.0
            horizon, _ = polar_horizon(ArraySpec(n=n, q=2, p=1, A=A, B=B))
            _assert_matches_expm(A, _chebyshev_grid(horizon, 200))


def test_exponentials_match_expm_on_similar_nilpotent_chains():
    # A defective eigenvalue 0 of full multiplicity behind a similarity.
    rng = np.random.default_rng(0)
    for n in range(2, 7):
        N = np.diag(np.ones(n - 1), 1)
        for _ in range(4):
            T = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            _assert_matches_expm(T @ N @ np.linalg.inv(T), np.linspace(0.0, 10.0, 257))


def test_exponentials_match_expm_on_a_stiff_matrix():
    A = -np.diag([1.0, 10.0, 100.0, 1000.0]) + np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1)
    _assert_matches_expm(A, _chebyshev_grid(5.0, 300))


def test_exponentials_stay_accurate_under_growth():
    # Entries reach 3e24 at t = 40.  Against a 40-digit reference the kernel
    # errs by ~2e-14 relative; scipy's expm errs by 3e-12 here.
    mpmath = pytest.importorskip("mpmath")
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    times = np.array([10.0, 20.0, 40.0])
    got = _exponentials(A, times)
    with mpmath.workdps(40):
        for t, E in zip(times, got):
            exact = np.array(
                mpmath.expm(mpmath.matrix(A.tolist()) * mpmath.mpf(t)).tolist(), dtype=float
            )
            assert np.abs(E - exact).max() <= 1e-13 * (1.0 + np.abs(exact).max()), t


def test_exponentials_at_time_zero_are_exactly_the_identity():
    A = np.random.default_rng(2).standard_normal((5, 5))
    E = _exponentials(A, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(E[0], np.eye(5))
    assert np.array_equal(E[2], np.eye(5))
    assert np.array_equal(_exponentials(np.zeros((3, 3)), np.array([2.0]))[0], np.eye(3))


def _anchor_step(A):
    return 1.0 / np.abs(A).sum(axis=0).max()


def test_exponentials_match_expm_around_the_anchors():
    # Times at the anchors k h exactly and one ulp on either side, where
    # k = floor(t / h) may fall either way, over 200 anchors; then at
    # negative times, and at ||A||_1 = 1e6, where 200 anchors span 2e-4.
    A = np.random.default_rng(4).standard_normal((5, 5)) - 3.0 * np.eye(5)
    anchors = np.arange(200) * _anchor_step(A)
    times = np.concatenate([anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf)])
    _assert_matches_expm(A, times)

    A = np.random.default_rng(5).standard_normal((4, 4)) + 2.0 * np.eye(4)
    _assert_matches_expm(A, -_chebyshev_grid(200 * _anchor_step(A), 301))

    A = -np.diag([1.0, 1e2, 1e4, 1e6]) + np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1)
    A *= 1e6 / np.abs(A).sum(axis=0).max()
    _assert_matches_expm(A, _chebyshev_grid(200 * _anchor_step(A), 500))


def test_exponentials_on_a_grid_off_the_chunk_size():
    A = np.random.default_rng(3).standard_normal((4, 4))
    times = np.linspace(0.0, 3.0, 2 * _batch(4) + 37)
    _assert_matches_expm(A, times)
    assert _exponentials(A, times[:0]).shape == (0, 4, 4)


def test_falsifier_witness_holds_on_dense_grid():
    # Every witness on the six examples, at every ordered pair, re-checked
    # on stacks built with scipy's expm and np.kron, so that the kernel is
    # never the only judge of its own witnesses.
    witnessed = set()
    for name in example_names():
        spec = build_example(name)
        grid = default_polar_grid(spec)
        P = _kron_responses(spec, grid)
        slack = 1e-7 * (1.0 + np.abs(P).max())
        dense = None
        for pair in all_pairs(spec.q):
            eta = polar_falsifier(spec, *pair)
            if eta is None:
                continue
            witnessed.add((name, pair))
            if dense is None:
                dense = _kron_responses(spec, _chebyshev_grid(grid[-1], 10 * grid.size))
            assert (P @ eta).max() <= slack, (name, pair)
            assert (dense @ eta).max() <= slack, (name, pair)
            d = pair_difference(spec.q, *pair)
            assert np.linalg.norm(d @ eta.reshape(spec.q, spec.n)) >= 0.1, (name, pair)
            assert np.linalg.norm(eta) == pytest.approx(1.0)
    assert {("oscillators-b", (1, 2)), ("counterexample-23", (2, 3))} <= witnessed


def _count_calls(monkeypatch, name="_exponentials"):
    """The second argument of every call of ``relctrl.oracles.<name>``, in call order.

    That is the times of the exponential kernel and the anchor indices
    of the anchor helper ``_taylor_powers``.
    """
    calls = []
    real = getattr(relctrl.oracles, name)

    def counting(first, times, *rest):
        calls.append(np.array(times))
        return real(first, times, *rest)

    monkeypatch.setattr(relctrl.oracles, name, counting)
    return calls


def _assert_each_anchor_once(calls, spec):
    """Every anchor formed was formed once, and at most ceil(T ||A||_1) + 1 of them."""
    horizon = default_polar_grid(spec)[-1]
    bound = int(np.ceil(horizon / _anchor_step(spec.A))) + 1
    formed = np.concatenate(calls)
    assert 0 < formed.size <= bound
    assert np.unique(formed).size == formed.size


def test_falsifier_forms_the_dense_exponentials_once(oscillators_a, monkeypatch):
    # On (1,2) many candidates pass the grid and reach the witness check
    # (17 at the time of writing).  Each reads the anchors formed before
    # it and forms only those no earlier call formed, so no anchor of the
    # dense check is formed twice.
    calls = _count_calls(monkeypatch, "_taylor_powers")
    checked = []
    real_check = relctrl.oracles._stays_nonpositive

    def check(stack, eta, slack):
        checked.append(eta)
        return real_check(stack, eta, slack)

    monkeypatch.setattr(relctrl.oracles, "_stays_nonpositive", check)
    assert polar_falsifier(oscillators_a, 1, 2) is None
    assert len(checked) > 1
    _assert_each_anchor_once(calls, oscillators_a)


def test_cross_check_forms_one_pade_exponential_per_anchor(oscillators_a, monkeypatch):
    # Each exponential on [0, T] is an anchor e^{A k h}, k <= T ||A||_1,
    # times a Taylor polynomial, and the witness check reads the anchors
    # 0..ceil(T ||A||_1) - 1: each anchor is formed once, by the anchor
    # helper, for the whole cross-check, where one exponential per time
    # formed 195 coarse and 1,950 dense ones.  Every pair and candidate
    # reads the anchors formed before it, and the reach simulator, which
    # runs on all six positive pairs here, reads the same stack.
    report = analyze(oscillators_a, pairs=all_pairs(oscillators_a.q))
    calls = _count_calls(monkeypatch, "_taylor_powers")
    verdicts = cross_check(oscillators_a, report)
    assert sum(v.name.startswith("reach_simulator") for v in verdicts) == 6
    _assert_each_anchor_once(calls, oscillators_a)


def test_the_witness_check_forms_no_anchor_of_the_grid(monkeypatch):
    # A fast rotation, ||A||_1 = 201 on the horizon 4: its 64 grid times
    # fall in 64 of the 805 anchor intervals, which with the anchors their
    # bits pass through make a few hundred.  The witness check forms the
    # rest, but none that the grid formed, and none twice; a second
    # candidate forms none.  Each anchor is e^{A k h} to the kernel's
    # accuracy.
    w = 200.0
    spec = ArraySpec(n=2, q=2, p=1, A=[[-1.0, w], [-w, -1.0]],
                     B=[[[1.0, 0.0]], [[-1.0, 0.0]]])
    calls = _count_calls(monkeypatch, "_taylor_powers")
    stack = _response_stack(spec, None, DEFAULT_TOLERANCES)
    grid = np.concatenate(calls).tolist()
    calls.clear()
    eta = np.array([0.0, 1.0, 0.0, -1.0]) / np.sqrt(2.0)
    assert not _stays_nonpositive(stack, eta, 1e-7)
    checked = np.concatenate(calls).tolist()
    assert checked and set(grid).isdisjoint(checked)
    assert len(set(grid)) == len(grid) and len(set(checked)) == len(checked)
    assert set(range(1, int(np.ceil(stack.grid[-1] * 201.0)))) <= set(grid) | set(checked)
    calls.clear()
    assert not _stays_nonpositive(stack, -eta, 1e-7)
    assert calls == []
    formed = stack.anchors.powers[1]
    ref = expm(spec.A[None] * (np.arange(len(formed)) / 201.0)[:, None, None])
    assert np.abs(formed - ref).max() <= 1e-11


def test_anchors_are_the_same_bits_whichever_call_forms_them():
    # Anchor k is the identity times the squares of the bits of |k|, in
    # one order: formed all at once, one at a time, or a few at a time
    # after another call made the squares, every anchor has the same bits.
    A = np.random.default_rng(6).standard_normal((4, 4))
    keys = [0, 1, 2, 3, 7, 8, 100, 255, 256, -1, -5, -64, 1000]
    whole = relctrl.oracles._Anchors(A).at(keys)
    one = relctrl.oracles._Anchors(A)
    assert all(np.array_equal(one.at([key])[0], E) for key, E in zip(keys[::-1], whole[::-1]))
    few = relctrl.oracles._Anchors(A)
    few.at([5, -3])
    assert np.array_equal(few.at(keys), whole)
    assert np.array_equal(whole[0], np.eye(4))


def test_anchors_form_no_square_past_the_largest_anchor():
    # With ||A||_1 = 1 the anchor k is e^k: anchor 700 is e^700 = 1e304,
    # and the square S^1024 past its top bit 512 would overflow.
    A = np.array([[1.0]])
    anchors = relctrl.oracles._Anchors(A)
    with np.errstate(over="raise", invalid="raise"):
        E = _exponentials(A, np.array([700.5]), anchors)
    assert len(anchors.squares[1]) == 10
    # 700 is formed from 700 - 512, and so on down its bits.
    assert np.flatnonzero(anchors.formed[1]).tolist() == [0, 4, 12, 28, 60, 188, 700]
    assert E[0, 0, 0] == pytest.approx(np.exp(700.5), rel=1e-12)


def test_reach_reads_the_falsifiers_programs(watertanks_ring, monkeypatch):
    # One nonnegative least-squares program per target and stack: the
    # reach simulator solves none after the falsifier, and the pair (2,1)
    # shares its targets, and so its programs, with (1,2).
    programs = []
    real = relctrl.oracles._lawson_hanson

    def counting(U, v, *args, **kwargs):
        programs.append(v)
        return real(U, v, *args, **kwargs)

    monkeypatch.setattr(relctrl.oracles, "_lawson_hanson", counting)
    report = analyze(watertanks_ring, pairs=[(1, 2), (2, 1)])
    verdicts = {v.name: v for v in cross_check(watertanks_ring, report)}
    assert verdicts["reach_simulator_1_2"].agrees and verdicts["reach_simulator_2_1"].agrees
    # The Brammer cone test's programs, on reduced coordinates, go through
    # nnls; the stack runs the two of the pair, +/-(e_1 - e_2).
    assert sum(v.size == watertanks_ring.q for v in programs) == 2


@st.composite
def wide_program_sequences(draw):
    # One wide matrix, as a response stack holds, and a sequence of
    # targets inside and outside its cone.
    rng, M = wide_matrix(draw)
    insides = draw(st.lists(st.booleans(), min_size=2, max_size=8))
    return M, [wide_target(rng, M, inside) for inside in insides]


@settings(max_examples=50)
@given(drawn=wide_program_sequences())
def test_warm_stack_programs_match_cold_nnls(drawn):
    # Each program after the first starts from the columns the earlier
    # answers used; its answer must still carry the certificate, and its
    # residual is the distance to the cone that a cold start finds.  Only
    # P is read by projection, so the stack needs no spec here.
    M, targets = drawn
    stack = ResponseStack(None, np.zeros(1), M.T, 0.0)
    for v in targets:
        x, residual = stack.projection(v)
        assert x.min() >= 0.0
        assert _certificate_breach(M, v, x) <= 1.0
        _, cold = nnls(M, v)
        assert abs(residual - cold) <= 1e-12 * (1.0 + np.linalg.norm(v))


def test_the_stack_warms_its_programs(oscillators_a, monkeypatch):
    # Started afresh, the cone programs of this cross-check took 322
    # compiled solves; started from the columns of the earlier answers,
    # 127.
    import scipy.optimize

    report = analyze(oscillators_a, pairs=[(1, 2)])
    solves = []
    real = scipy.optimize.nnls

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counting)
    cross_check(oscillators_a, report)
    assert len(solves) <= 160


def test_falsifier_counts_a_target_reached_within_the_cone_rule(watertanks, counterexample):
    # A residual at most tol_cone (1 + ||v||) is a hit, not a candidate.
    assert polar_falsifier(watertanks, 1, 2) is not None
    assert polar_falsifier(watertanks, 1, 2, tolerances=Tolerances(cone=1.0)) is None
    # On counterexample-23 (2,3) the first target is reached up to rounding;
    # the witness is the second target's own direction.
    targets = _pair_targets(pair_difference(counterexample.q, 2, 3), counterexample.n)
    eta = polar_falsifier(counterexample, 2, 3)
    np.testing.assert_allclose(eta, targets[1] / np.linalg.norm(targets[1]), atol=1e-12)


def test_falsifier_slack_follows_its_tolerances_on_a_shared_stack(watertanks, monkeypatch):
    # The stack is built under the defaults; the falsifier handed it
    # under a tighter cone tolerance must scan with that tolerance's
    # slack, and under a looser one with the default slack.
    stack = _response_stack(watertanks, None, DEFAULT_TOLERANCES)
    slacks = []
    witness_check = relctrl.oracles._stays_nonpositive

    def spy(stack, eta, slack):
        slacks.append(slack)
        return witness_check(stack, eta, slack)

    monkeypatch.setattr(relctrl.oracles, "_stays_nonpositive", spy)
    for cone, scale in ((1e-9, 1e-9), (DEFAULT_TOLERANCES.cone, 1e-8), (1e-6, 1e-8)):
        slacks.clear()
        assert polar_falsifier(watertanks, 1, 2, stack, Tolerances(cone=cone)) is not None
        assert slacks == [DECADE * scale * (1.0 + stack.peak)], cone


def test_falsifier_is_deterministic(oscillators_b):
    first = polar_falsifier(oscillators_b, 2, 1)
    second = polar_falsifier(oscillators_b, 2, 1)
    assert first is not None
    assert first.tobytes() == second.tobytes()


def _chain_stack(response):
    """A nilpotent chain's stack, q = 2 and p = 1 on its last state, and the
    eta whose response is a t^2 + b t + c, for response = (a, b, c).

    e^{A t} e_3 = (t^2 / 2, t, 1), and the input is e_3 on system 1 and
    -e_3 on system 2, so eta = ((2 a, b, c), 0) has that response.
    """
    spec = ArraySpec(n=3, q=2, p=1, A=np.eye(3, k=1), B=[[[0.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]]])
    a, b, c = response
    return _response_stack(spec, None, DEFAULT_TOLERANCES), np.array([2.0 * a, b, c, 0.0, 0.0, 0.0])


def _peaked(t0, top, width):
    """(a, b, c) of top - width (t - t0)^2."""
    return -width, 2.0 * width * t0, top - width * t0**2


def test_the_witness_check_passes_fails_at_an_end_or_splits(monkeypatch):
    # ||A||_1 = 1, so the anchor intervals of [0, 4] are [k, k + 1].
    stack, eta = _chain_stack(_peaked(1.5, -1.0, 1.0))
    assert stack.grid[-1] == 4.0
    assert _stays_nonpositive(stack, eta, 1e-7)            # bounded below 0 unsplit
    stack, eta = _chain_stack(_peaked(5.0, 1.0, 0.01))
    assert not _stays_nonpositive(stack, eta, 1e-7)        # f(4) = 0.99, an end value
    stack, eta = _chain_stack((0.0, 0.0, 1e-3))
    assert not _stays_nonpositive(stack, eta, 1e-7)        # positive everywhere
    assert _stays_nonpositive(stack, eta, 1e-2)
    # A narrow peak below the slack: the unsplit Bernstein bound of its
    # interval is far above it, so the interval is halved until it is
    # decided; with no halving allowed the candidate fails safe.
    stack, eta = _chain_stack(_peaked(2.3, -1e-4, 1e3))
    assert _stays_nonpositive(stack, eta, 1e-7)
    monkeypatch.setattr(relctrl.oracles, "_SPLIT_DEPTH", 0)
    assert not _stays_nonpositive(stack, eta, 1e-7)
    # A = 0 is one constant interval.
    spec = ArraySpec(n=1, q=2, p=1, A=[[0.0]], B=[[[1.0]], [[-1.0]]])
    zero = _response_stack(spec, None, DEFAULT_TOLERANCES)
    assert _stays_nonpositive(zero, np.array([-1.0, 0.0]), 1e-7)
    assert not _stays_nonpositive(zero, np.array([1.0, 0.0]), 1e-7)


def test_the_witness_check_rejects_a_response_positive_only_between_dense_points():
    # The response 1e-3 - 1e3 (t - t0)^2 peaks at t0, midway between two
    # points of the ten times denser grid a sampled check once read, just
    # past t = 2.  At every dense point it is below -0.02, so a sampled
    # check accepts it; on the whole horizon it is not a witness.
    stack, _ = _chain_stack((0.0, 0.0, 0.0))
    dense = _chebyshev_grid(stack.grid[-1], 10 * stack.grid.size)
    above = np.flatnonzero(dense > 2.0)[0]
    t0 = 0.5 * (dense[above] + dense[above + 1])
    stack, eta = _chain_stack(_peaked(t0, 1e-3, 1e3))
    sampled = _kron_responses(stack.spec, dense) @ eta
    assert sampled.max() < -0.02
    assert not _stays_nonpositive(stack, eta, 1e-7)


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_exponentials_are_bitwise_the_same_at_any_batch_size(n, monkeypatch):
    # Each time's exponential is computed on its own, so the batch rule
    # (2**13 entries), the old fixed 128 times and one time per batch give
    # the same bits, on a grid whose length is a multiple of neither batch.
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    times = np.concatenate([[0.0], rng.uniform(0.0, 12.0, 2 * _batch(n) + 129)])
    stacks = []
    for entries in (relctrl.oracles._BATCH_ENTRIES, 128 * n * n, 7 * n * n, n * n):
        monkeypatch.setattr(relctrl.oracles, "_BATCH_ENTRIES", entries)
        stacks.append(_exponentials(A, times))
    assert all(np.array_equal(stacks[0], other) for other in stacks[1:])


def test_polar_horizon_rule():
    # One period of the slowest rotation, 8 / gap between real parts, a
    # cap of 16 base horizons, and 64 points per base horizon.
    def rotation(w):
        return ArraySpec(n=2, q=2, p=1, A=[[0.0, w], [-w, 0.0]],
                         B=[[[1.0, 0.0]], [[-1.0, 0.0]]])

    assert polar_horizon(rotation(0.5)) == pytest.approx((4.0 * np.pi, 4.0))
    assert polar_horizon(rotation(0.05)) == pytest.approx((64.0, 4.0))
    assert default_polar_grid(rotation(0.05)).size == 1024
    real = ArraySpec(n=2, q=2, p=1, A=np.diag([-2.0, -2.5]), B=[[[1.0, 1.0]], [[-1.0, -1.0]]])
    assert polar_horizon(real) == pytest.approx((16.0, 1.6))
    assert default_polar_grid(real).size == 640


def test_falsifier_horizon_covers_slowest_oscillation(oscillators_a):
    # The bundled oscillators' slowest mode has period ~12.1; on the base
    # horizon 4 a functional that turns positive later passes as a witness
    # against the (true) positive verdict.
    omega = np.abs(np.linalg.eigvals(oscillators_a.A).imag).min()
    assert default_polar_grid(oscillators_a)[-1] >= 2.0 * np.pi / omega
    report = analyze(oscillators_a, pairs=[(1, 2), (1, 3)])
    for pair in ((1, 2), (1, 3)):
        assert report.positive_pairwise[pair].yes
        assert polar_falsifier(oscillators_a, *pair) is None
    assert polar_falsifier(oscillators_a, 1, 3, grid=_chebyshev_grid(4.0, 64)) is not None


def test_falsifier_horizon_covers_real_mode_beat():
    # Array 101 of scripts/oracle_agreement.py's draw at its default seed:
    # real eigenvalues 0.854, -0.650 and -1.552, every pair positively
    # steerable.  Horizons below 8 / gap (gap 0.855 between -0.650 and
    # -1.552), such as the base 4 / 1.552 = 2.58, yield spurious witnesses.
    rng = np.random.default_rng(20260809)
    for _ in range(101):
        random_array_spec(rng)
    spec = random_array_spec(rng)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(spec.A).real), [-1.552, -0.650, 0.854], atol=1e-3
    )
    pairs = all_pairs(spec.q)
    report = analyze(spec, pairs=pairs)
    assert any(
        polar_falsifier(spec, *pair, grid=_chebyshev_grid(horizon, 64)) is not None
        for horizon in (2.0, 2.75, 3.25)
        for pair in pairs
    )
    for pair in pairs:
        assert report.positive_pairwise[pair].yes
        assert polar_falsifier(spec, *pair) is None, pair


def test_falsifier_never_refutes_positive_verdicts():
    rng = np.random.default_rng(20261018)
    positive = 0
    for _ in range(40):
        spec = random_array_spec(rng)
        pairs = all_pairs(spec.q)
        report = analyze(spec, pairs=pairs)
        for pair in pairs:
            if report.positive_pairwise[pair].yes:
                positive += 1
                assert polar_falsifier(spec, *pair) is None, (spec.A, spec.B, pair)
    assert positive >= 20


def test_reach_ring_hits_targets(watertanks_ring):
    results = reach_simulator(watertanks_ring, 1, 2)
    assert len(results) == 2
    assert all(r.hit for r in results)
    assert max(r.residual for r in results) <= 1e-6


def test_reach_two_pump_target_unreachable(watertanks):
    # e_2 - e_1 lies outside the input cone and the tank dynamics are
    # time-invariant, so no grid helps.
    for grid in (None, _chebyshev_grid(2.0, 2), _chebyshev_grid(2.0, 25),
                 _chebyshev_grid(2.0, 100)):
        results = reach_simulator(watertanks, 1, 2, grid)
        target_back = next(r for r in results if r.target[1] > 0)
        assert target_back.residual >= 0.1 and not target_back.hit


def test_reach_hits_follow_the_cone_rule(watertanks):
    # A hit is a residual at most tol_cone (1 + ||v||), the rule by which
    # the falsifier calls a target reached: ||v|| = sqrt(2) here.
    back = next(r for r in reach_simulator(watertanks, 1, 2) if r.target[1] > 0)
    assert back.residual == pytest.approx(np.sqrt(1.5))
    rule = back.residual / (1.0 + np.sqrt(2.0))
    assert not reach_simulator(watertanks, 1, 2, tolerances=Tolerances(cone=0.99 * rule))[1].hit
    assert reach_simulator(watertanks, 1, 2, tolerances=Tolerances(cone=1.01 * rule))[1].hit


def test_reach_oscillators_completes_at_cli_defaults(oscillators_a, oscillators_b):
    # Degenerate programs: an active-set loop that cycles on them hits its
    # iteration cap and raises instead of returning residuals.  On the
    # grid relctrl oracle uses, which covers one period of the slowest
    # rotation, every target of oscillators-b (2,3) is hit.
    results = reach_simulator(oscillators_a, 1, 2)
    assert len(results) == 2 * oscillators_a.n
    assert all(np.isfinite(r.residual) for r in results)
    assert all(r.hit for r in reach_simulator(oscillators_b, 2, 3))


def test_reach_accepts_noise_within_tol_zero(watertanks_ring):
    B = np.array(watertanks_ring.B)
    B[0, 0, 0] += 1e-7                  # column-sum error of 1e-7
    spec = ArraySpec(n=1, q=3, p=3, A=watertanks_ring.A, B=B)
    with pytest.raises(InvalidArrayError):
        reach_simulator(spec, 1, 2)
    assert all(r.hit for r in reach_simulator(spec, 1, 2, tolerances=Tolerances(zero=1e-6)))


class _SharedStep(Exception):
    """Raised by an analysis step that an oracle called."""


# The analysis steps an oracle must not call: every graph builder and
# predicate of gengraph (nnls is the shared cone solver, not a step) and
# every stage of the analysis pipeline.
_ANALYSIS_STEPS = {
    "gengraph": [
        "make_graph", "_edge_components", "_edge_labels", "_range_complement",
        "lineality_generators", "blocks_in_range", "kl_connected_pairs",
        "range_contains", "is_connected", "cone_member", "column_graph",
    ],
    "controllability": [
        "analyze", "w_graphs", "v_graphs", "q_graphs_and_index_sets",
        "controllability_matrix",
    ],
}


@pytest.mark.parametrize(
    "spectrum_too",
    [
        False,
        # ROADMAP item 2: brammer_positive reads the analysis' spectrum.
        pytest.param(True, marks=pytest.mark.xfail(raises=_SharedStep, strict=True)),
    ],
    ids=["graphs", "graphs-and-spectrum"],
)
def test_the_oracles_do_not_call_the_analysis(spectrum_too, monkeypatch):
    cases = []
    for name in example_names():
        spec = build_example(name)
        cases.append((spec, analyze(spec, all_pairs(spec.q))))

    def shared(*args, **kwargs):
        raise _SharedStep

    steps = [(f"relctrl.{module}", name) for module, names in _ANALYSIS_STEPS.items()
             for name in names]
    if spectrum_too:
        steps.append(("relctrl.spectral", "distinct_eigenvalues"))
    # Every binding of a step, in every relctrl module that imported it.
    originals = {id(getattr(sys.modules[module], name)) for module, name in steps}
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "relctrl"]:
        for name, value in list(vars(module).items()):
            if id(value) in originals:
                monkeypatch.setattr(module, name, shared)
    rows = [row for spec, report in cases for row in cross_check(spec, report)]
    assert len(rows) == 108


def test_the_falsifier_skips_a_residual_that_is_not_polar_within_its_slack(monkeypatch):
    # Draw 241 of the Jordan-block family (n = 4, q = 3): for pair (2,3)
    # an unreached target leaves a residual whose P eta breaks the slack,
    # before the target that gives the witness.  The falsifier must pass
    # over it without the witness check.
    rng = np.random.default_rng(20261018)
    for _ in range(242):
        spec = _jordan_beside_rotation(rng)
    stack = _response_stack(spec, None, DEFAULT_TOLERANCES)
    slack = DECADE * DEFAULT_TOLERANCES.cone * (1.0 + stack.peak)
    breaks = []
    for target in _pair_targets(pair_difference(spec.q, 2, 3), spec.n):
        x, residual = stack.projection(target)
        if not _reached(residual, target, DEFAULT_TOLERANCES.cone):
            eta = (target - stack.P.T @ x) / residual
            breaks.append(float(np.max(stack.P @ eta)) > slack)
    assert breaks[0] and not all(breaks)
    checked = []
    witness_check = relctrl.oracles._stays_nonpositive

    def spy(stack, eta, slack):
        checked.append(float(np.max(stack.P @ eta)))
        return witness_check(stack, eta, slack)

    monkeypatch.setattr(relctrl.oracles, "_stays_nonpositive", spy)
    witness = polar_falsifier(spec, 2, 3, stack)
    assert witness is not None
    assert checked and max(checked) <= slack
