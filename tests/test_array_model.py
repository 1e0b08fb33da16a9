import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relctrl import DEFAULT_TOLERANCES, ArraySpec, analyze, kalman_reduced
from relctrl.array_model import (
    build_big,
    disagreement_basis,
    validate_array,
    zero_sum_projection,
)
from relctrl.errors import DimensionError, InvalidArrayError

from conftest import random_array_spec


@pytest.mark.parametrize(
    "n, q, p, A, B, where",
    [
        (0, 2, 1, np.zeros((0, 0)), np.zeros((2, 1, 0)), "n=0 must be positive"),
        (1, 2, 0, [[0.0]], np.zeros((2, 0, 1)), "p=0 must be positive"),
        (1, 2, 1, np.zeros((2, 2)), [[[1.0]], [[-1.0]]], "A has shape (2, 2)"),
        (1, 2, 1, [[0.0]], np.zeros((2, 2, 1)), "B has shape (2, 2, 1)"),
    ],
    ids=["n", "p", "A-shape", "B-shape"],
)
def test_analyze_rejects_a_hand_built_spec_of_inconsistent_dimensions(n, q, p, A, B, where):
    spec = ArraySpec(n=n, q=q, p=p, A=A, B=B)
    with pytest.raises(InvalidArrayError, match=re.escape(f"first: dimension at {where}")):
        analyze(spec)


def test_watertanks_spec_validates(watertanks):
    report = validate_array(watertanks)
    assert report.ok
    assert report.violations == ()


def test_nonzero_column_sum_reported():
    spec = ArraySpec.from_incidence([[0.0]], [[1.0], [0.0], [0.0]])
    report = validate_array(spec)
    assert not report.ok
    (violation,) = report.violations
    assert violation.kind == "column-sum"
    assert violation.location == "sigma=1"
    assert violation.magnitude == pytest.approx(1.0)


def test_counterexample_spec_validates(counterexample):
    assert validate_array(counterexample).ok


def test_single_system_rejected():
    spec = ArraySpec(n=1, q=1, p=1, A=[[0.0]], B=np.zeros((1, 1, 1)))
    report = validate_array(spec)
    assert not report.ok
    assert any(v.kind == "dimension" for v in report.violations)


def test_disagreement_basis_q2_column():
    D = disagreement_basis(2)
    assert D.shape == (2, 1)
    np.testing.assert_allclose(D[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_disagreement_basis_q3():
    D = disagreement_basis(3)
    np.testing.assert_allclose(D.T @ D, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.ones(3) @ D, 0.0, atol=1e-12)


def test_disagreement_basis_rejects_small_q():
    with pytest.raises(DimensionError):
        disagreement_basis(1)


@given(q=st.integers(min_value=2, max_value=16))
def test_disagreement_basis_completes_identity(q):
    D = disagreement_basis(q)
    S = np.full((q, 1), 1 / np.sqrt(q))
    np.testing.assert_allclose(D @ D.T + S @ S.T, np.eye(q), atol=1e-12)
    np.testing.assert_allclose(D.T @ D, np.eye(q - 1), atol=1e-12)
    # Deterministic: rebuilding gives the same matrix bit for bit.
    assert np.array_equal(D, disagreement_basis(q))


def _stacked(blocks):
    # (r, p, n) blocks as the stacked (r n) x p matrix.
    r, p, n = blocks.shape
    return blocks.transpose(0, 2, 1).reshape(r * n, p)


def test_build_big_watertanks(watertanks):
    big = build_big(watertanks)
    incidence = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    np.testing.assert_array_equal(watertanks.incidence, incidence)
    assert big.Bred.shape == (2, 2, 1)
    np.testing.assert_allclose(_stacked(big.Bred), big.D.T @ incidence, atol=1e-15)


def test_build_big_two_systems_reduced_column():
    spec = ArraySpec.from_incidence([[0.0]], [[1.0], [-1.0]])
    big = build_big(spec)
    # D for q=2 is (1,-1)/sqrt(2), so the reduced input is sqrt(2).
    np.testing.assert_allclose(big.Bred, [[[np.sqrt(2.0)]]], atol=1e-14)


def test_build_big_refuses_invalid():
    spec = ArraySpec.from_incidence([[0.0]], [[1.0], [1.0]])
    with pytest.raises(InvalidArrayError):
        build_big(spec)


def test_blocks_and_incidence_agree():
    blocks = [
        [[1.0, 0.0], [0.0, 0.5]],
        [[-1.0, 0.0], [0.0, -0.5]],
    ]
    by_blocks = ArraySpec.from_blocks(np.eye(2), blocks)
    by_inc = ArraySpec.from_incidence(np.eye(2), by_blocks.incidence)
    np.testing.assert_array_equal(by_blocks.B, by_inc.B)


def test_spec_arrays_frozen(watertanks):
    with pytest.raises(ValueError):
        watertanks.A[0, 0] = 1.0


def test_average_direction_annihilated():
    rng = np.random.default_rng(7)
    for _ in range(100):
        spec = random_array_spec(rng)
        big = build_big(spec)
        S_n = np.kron(np.full((spec.q, 1), 1.0 / np.sqrt(spec.q)), np.eye(spec.n))
        assert np.abs(S_n.T @ spec.incidence).max() <= 1e-12
        # D D* + S S* = I, so the reduced blocks keep all of B.
        Dn = np.kron(big.D, np.eye(spec.n))
        np.testing.assert_allclose(Dn @ _stacked(big.Bred), spec.incidence, atol=1e-12)


def test_reduction_commutes_with_dynamics():
    # Dense stacked and reduced operators, built here as references only.
    rng = np.random.default_rng(8)
    for _ in range(100):
        spec = random_array_spec(rng)
        big = build_big(spec)
        Dn = np.kron(big.D.T, np.eye(spec.n))
        left = Dn @ np.kron(np.eye(spec.q), spec.A) @ spec.incidence
        right = np.kron(np.eye(spec.q - 1), spec.A) @ _stacked(big.Bred)
        np.testing.assert_allclose(left, right, atol=1e-10)
        np.testing.assert_allclose(_stacked(big.Bred @ spec.A.T), right, atol=1e-10)


def _with_sum_error(spec, eps=1e-7):
    B = spec.B.copy()
    B[0, 0, 0] += eps
    return ArraySpec(n=spec.n, q=spec.q, p=spec.p, A=spec.A, B=B, name=spec.name)


def test_zero_sum_projection_leaves_exact_specs_alone(watertanks):
    assert zero_sum_projection(watertanks) is watertanks


def test_zero_sum_projection_removes_accepted_sum_error(watertanks):
    noisy = _with_sum_error(watertanks)
    projected = zero_sum_projection(noisy)
    assert np.abs(projected.B.sum(axis=0)).max() <= 1e-15
    assert np.abs(projected.B - watertanks.B).max() <= 1e-7
    big = build_big(noisy, tol_zero=1e-6)
    restored = np.einsum("qr,rpn->qpn", big.D, big.Bred)
    np.testing.assert_allclose(restored, projected.B, rtol=0, atol=1e-15)


def test_verdicts_ignore_accepted_sum_error(watertanks, oscillators_a):
    # A column-sum error the validator accepts must not flip a verdict.
    tol = DEFAULT_TOLERANCES.override(zero=1e-6)
    for spec in (watertanks, oscillators_a):
        pairs = [(1, 2), (2, 3)]
        exact = analyze(spec, pairs=pairs, tolerances=tol)
        noisy = analyze(_with_sum_error(spec), pairs=pairs, tolerances=tol)
        assert noisy.controllable == exact.controllable
        assert noisy.positively_controllable == exact.positively_controllable
        assert noisy.pairwise == exact.pairwise
        assert noisy.positive_pairwise == exact.positive_pairwise
        assert kalman_reduced(_with_sum_error(spec), tol_zero=1e-6) == exact.controllable
