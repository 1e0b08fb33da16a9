import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag, expm

from relctrl import ArraySpec, Tolerances, analyze, build_example
from relctrl.config import DEFAULT_TOLERANCES
from relctrl.corpus import TRIANGLE
from relctrl.spectral import _component, distinct_eigenvalues, restriction
from relctrl.errors import IllConditionedSpectrumError, InconsistentSpectrumError

from conftest import random_array_spec
from test_controllability import _exact_rank

OSC_FREQS = sorted(
    [
        math.sqrt(math.tan(5 * math.pi / 12)),
        1.0,
        math.sqrt(1 / 2),
        math.sqrt(1 / 3),
        math.sqrt(math.tan(math.pi / 12)),
    ]
)


def test_scalar_zero_matrix():
    spectrum = distinct_eigenvalues(np.array([[0.0]]))
    (comp,) = spectrum.components
    assert comp.mu == 0.0
    assert comp.alg_mult == comp.geo_mult == 1
    assert comp.is_real
    np.testing.assert_allclose(np.abs(comp.V), [[1.0]])


def test_oscillator_eigenvalues(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    assert len(spectrum.components) == 10
    assert all(c.alg_mult == 1 and c.geo_mult == 1 for c in spectrum.components)
    positive = sorted(c.mu.imag for c in spectrum.components if c.mu.imag > 0)
    np.testing.assert_allclose(positive, OSC_FREQS, atol=1e-9)
    assert all(c.mu.real == 0.0 for c in spectrum.components)


def test_ordering_real_before_coincident_pair():
    # Eigenvalues {0, -1, +j, -j}: the real 0 precedes the pair with the
    # same real part, conjugates stay adjacent with +Im first, -1 last.
    A = block_diag([[0.0]], [[-1.0]], [[0.0, 1.0], [-1.0, 0.0]])
    spectrum = distinct_eigenvalues(A)
    mus = [c.mu for c in spectrum.components]
    assert mus == [0.0, 1j, -1j, -1.0]


def test_conjugate_components_are_conjugated(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    for kappa, comp in enumerate(spectrum.components):
        if comp.is_real:
            continue
        partner = spectrum.components[kappa + 1 if comp.mu.imag > 0 else kappa - 1]
        assert partner.mu == np.conj(comp.mu)
        np.testing.assert_array_equal(partner.V, comp.V.conj())
        np.testing.assert_array_equal(partner.U, comp.U.conj())
        np.testing.assert_array_equal(partner.Lambda, comp.Lambda.conj())


def _bases(A, mu, n_k):
    """V and U of ``_component`` at the tolerances ``distinct_eigenvalues`` hands it."""
    A = np.asarray(A, dtype=float)
    norm_A = float(np.linalg.norm(A, 2))
    radius = float(np.abs(np.linalg.eigvals(A)).max())
    tol_rank = DEFAULT_TOLERANCES.eig * (1.0 + radius) / (1.0 + norm_A)
    floor = tol_rank * (1.0 + norm_A + abs(mu))
    comp = _component(A, mu, n_k, np.imag(mu) == 0.0, floor, DEFAULT_TOLERANCES.eig)
    return comp.V, comp.U


def test_eigenvector_basis_counterexample(counterexample):
    V, _ = _bases(counterexample.A, 0.0, 4)
    assert V.shape == (4, 2)
    target = np.zeros((4, 2))
    target[0, 0] = target[2, 1] = 1.0
    np.testing.assert_allclose(V @ V.T, target @ target.T, atol=1e-10)


def test_eigenvector_basis_oscillator_residual(oscillators_a):
    V, U = _bases(oscillators_a.A, 1j, 1)
    assert V.shape[1] == 1
    assert U is V
    assert np.linalg.norm(oscillators_a.A.T @ V - 1j * V) <= 1e-9


def test_eigenvector_basis_rejects_non_eigenvalue():
    with pytest.raises(InconsistentSpectrumError):
        _bases(np.eye(2), 0.5, 1)


def test_generalized_basis_jordan_chain():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    V, U = _bases(A, 0.0, 2)
    assert V.shape == (2, 1)
    assert U.shape == (2, 2)
    np.testing.assert_allclose(U @ U.T, np.eye(2), atol=1e-12)


def test_generalized_basis_counterexample_full_space(counterexample):
    _, U = _bases(counterexample.A, 0.0, 4)
    np.testing.assert_allclose(U @ U.T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("chains", [(3, 1), (2, 2), (2, 1, 1), (4, 2), (3, 2)])
@pytest.mark.parametrize("mu", [2.0, -1.0])
def test_several_jordan_chains_at_one_eigenvalue(chains, mu):
    # Integer Jordan chains at mu beside a damped rotation, as they stand
    # and under a permutation similarity: one cluster at mu whose
    # multiplicities are the exact dimensions of null(A* - mu I) and
    # null((A* - mu I)^n), and U spans the generalized eigenspace.
    J = block_diag(*[mu * np.eye(m) + np.eye(m, k=1) for m in chains], [[-1.0, 2.0], [-2.0, -1.0]])
    n = J.shape[0]
    perm = np.random.default_rng(sum(chains)).permutation(n)
    for A in (J, J[np.ix_(perm, perm)]):
        M = A.T - mu * np.eye(n)
        geo = n - _exact_rank(M)
        alg = n - _exact_rank(np.linalg.matrix_power(M, n))
        assert (geo, alg) == (len(chains), sum(chains))
        (comp,) = [c for c in distinct_eigenvalues(A).components if c.is_real]
        assert comp.mu == mu
        assert (comp.geo_mult, comp.alg_mult) == (geo, alg)
        assert np.linalg.norm(np.linalg.matrix_power(M, alg) @ comp.U) <= 1e-12


def test_a_defective_eigenvalue_split_by_rounding_names_the_cause():
    # J_3(0.5) + J_1(0.5) under an orthogonal similarity: rounding splits
    # the eigenvalue, so a cluster's generalized eigenspace may exceed its
    # size.  The message says so; a coarser tolerance merges the cluster.
    J = block_diag(0.5 * np.eye(3) + np.eye(3, k=1), [[0.5]])
    for seed in range(6):
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
        spec = ArraySpec.from_incidence(Q @ J @ Q.T, np.kron(TRIANGLE, Q[:, [2]]))
        try:
            analyze(spec)
        except InconsistentSpectrumError as exc:
            assert "defective and split by rounding" in str(exc), seed
            assert "coarser eigenvalue tolerance" in str(exc), seed
        analyze(spec, tolerances=Tolerances(eig=1e-4))
        (comp,) = distinct_eigenvalues(spec.A, tol_eig=1e-4).components
        assert abs(comp.mu - 0.5) <= 1e-4
        assert (comp.alg_mult, comp.geo_mult) == (4, 2), seed


def test_generalized_equals_eigenvector_basis_for_simple_eigs(oscillators_a):
    spectrum = distinct_eigenvalues(oscillators_a.A)
    for comp in spectrum.components:
        # Multiplicity one: U is V, not a second factorization of its line.
        np.testing.assert_array_equal(comp.U, comp.V)


def test_one_svd_per_computed_eigenvalue(monkeypatch):
    # ||A||_2 once per array, then one SVD of A* - mu I per eigenvalue whose
    # multiplicities are equal, and one more per deflation step of a
    # defective one (counterexample-23 and integrator-chain-ring: one
    # eigenvalue 0 with Jordan chains of length 2); a conjugate partner is
    # not factored.  norm reaches the SVD through its own module, so both
    # bindings are spied.
    calls = []
    original = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", spy)
    counts = {}
    for name in (
        "oscillators-a", "oscillators-b", "watertanks", "counterexample-23",
        "integrator-chain-ring",
    ):
        calls.clear()
        distinct_eigenvalues(build_example(name).A)
        counts[name] = len(calls)
    assert counts == {
        "oscillators-a": 6, "oscillators-b": 6, "watertanks": 2, "counterexample-23": 3,
        "integrator-chain-ring": 3,
    }


def test_restriction_scalar_component(oscillators_a):
    # A* U = U A_k* pins the scalar restriction A_k = Lambda + conj(mu) to
    # conj(mu), which is what makes the nilpotent part vanish.
    spectrum = distinct_eigenvalues(oscillators_a.A)
    comp = spectrum.components[0]
    np.testing.assert_allclose(comp.Lambda + np.conj(comp.mu), [[np.conj(comp.mu)]], atol=1e-12)
    np.testing.assert_allclose(comp.Lambda, [[0.0]], atol=1e-12)


def test_restriction_scalar_component_real():
    Lam = restriction(np.array([[3.0]]), np.eye(1), 3.0)
    assert not np.iscomplexobj(Lam)
    np.testing.assert_allclose(Lam, [[0.0]], atol=1e-14)


def test_restriction_nilpotent_part():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    Lam = restriction(A, np.eye(2), 0.0)
    np.testing.assert_allclose(Lam, A, atol=1e-14)
    np.testing.assert_allclose(np.linalg.matrix_power(Lam, 2), np.zeros((2, 2)), atol=1e-14)


def test_restriction_counterexample_nilpotent(counterexample):
    spectrum = distinct_eigenvalues(counterexample.A)
    (comp,) = spectrum.components
    assert comp.Lambda.shape == (4, 4)
    assert np.linalg.norm(np.linalg.matrix_power(comp.Lambda, 2)) <= 1e-12
    assert np.linalg.norm(comp.Lambda) > 0.5


def test_multiplicities_sum_to_dimension():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = random_array_spec(rng)
        spectrum = distinct_eigenvalues(spec.A)
        assert sum(c.alg_mult for c in spectrum.components) == spec.n


def test_component_exponential_identity():
    # exp(A_k* t) must factor as exp(mu t) exp(Lambda* t), A_k = Lambda + conj(mu) I.
    rng = np.random.default_rng(12)
    mats = [random_array_spec(rng).A for _ in range(20)]
    mats.append(np.array([[0.0, 0.0], [1.0, 0.0]]))
    for A in mats:
        spectrum = distinct_eigenvalues(A)
        for comp in spectrum.components:
            for t in (0.1, 1.0):
                A_k = comp.Lambda + np.conj(comp.mu) * np.eye(comp.alg_mult)
                lhs = expm(A_k.conj().T * t)
                rhs = np.exp(comp.mu * t) * expm(comp.Lambda.conj().T * t)
                assert np.linalg.norm(lhs - rhs) <= 1e-8


@given(perm=st.permutations(range(6)), data=st.integers(0, 2**31 - 1))
def test_eigenvalue_list_invariant_under_state_relabeling(perm, data):
    rng = np.random.default_rng(data)
    A = rng.standard_normal((6, 6))
    P = np.eye(6)[list(perm)]
    base = distinct_eigenvalues(A)
    permuted = distinct_eigenvalues(P @ A @ P.T)
    assert len(base.components) == len(permuted.components)
    mus = np.array([c.mu for c in base.components])
    mus_p = np.array([c.mu for c in permuted.components])
    np.testing.assert_allclose(mus, mus_p, atol=1e-9)


# Real parts from one small grid, so that real eigenvalues and rotation
# pairs coincide in real part; every block is diagonalizable.
GRID_BLOCK = st.tuples(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5]), st.sampled_from([0.0, 0.5, 1.0, 2.0])
)


@given(blocks=st.lists(GRID_BLOCK, min_size=1, max_size=5), seed=st.integers(0, 2**31 - 1))
def test_spectrum_is_paired_and_ordered(blocks, seed):
    A = block_diag(*[[[re]] if w == 0 else [[re, w], [-w, re]] for re, w in blocks])
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    comps = distinct_eigenvalues(S @ A @ np.linalg.inv(S)).components
    assert len(comps) == len({(re, sign * w) for re, w in blocks for sign in (1, -1)})
    assert sum(c.alg_mult for c in comps) == n
    kappa = 0
    while kappa < len(comps):
        comp = comps[kappa]
        if comp.is_real:
            assert comp.mu.imag == 0.0
            kappa += 1
            continue
        assert comp.mu.imag > 0
        partner = comps[kappa + 1]
        assert not partner.is_real and partner.mu == np.conj(comp.mu)
        assert (partner.alg_mult, partner.geo_mult) == (comp.alg_mult, comp.geo_mult)
        for name in ("V", "U", "Lambda"):
            np.testing.assert_array_equal(getattr(partner, name), getattr(comp, name).conj())
        kappa += 2
    re = [c.mu.real for c in comps]
    assert all(after <= before + 1e-8 for before, after in zip(re, re[1:]))
    for i, comp in enumerate(comps):
        if comp.is_real:
            assert all(
                j > i for j, other in enumerate(comps)
                if not other.is_real and abs(other.mu.real - comp.mu.real) <= 1e-8
            )


def test_chained_cluster_is_measured_from_every_member():
    # At tol_eig 1e-8, 0, 0.9e-8 and 1.8e-8 chain into one cluster: 3.5e-8
    # lies 1.7e-8 from it, inside twice the tolerance; 4.5e-8 lies outside.
    with pytest.raises(IllConditionedSpectrumError, match="1.700e-08 with tolerance 1.000e-08"):
        distinct_eigenvalues(np.diag([0.0, 0.9e-8, 1.8e-8, 3.5e-8]), tol_eig=1e-8)
    spectrum = distinct_eigenvalues(np.diag([0.0, 0.9e-8, 1.8e-8, 4.5e-8]), tol_eig=1e-8)
    assert [c.alg_mult for c in spectrum.components] == [1, 3]


def test_ambiguous_clusters_rejected():
    A = np.diag([0.0, 1.5e-8])
    with pytest.raises(IllConditionedSpectrumError):
        distinct_eigenvalues(A, tol_eig=1e-8)


def test_nearby_eigenvalues_merge_at_coarse_tolerance():
    A = np.diag([0.0, 1.5e-8])
    spectrum = distinct_eigenvalues(A, tol_eig=1e-6)
    (comp,) = spectrum.components
    assert comp.alg_mult == 2
    assert comp.geo_mult == 2
    assert abs(comp.mu) <= 1e-6


def test_restriction_rejects_non_invariant_subspace():
    from relctrl.errors import InvarianceViolationError

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    U = np.array([[1.0], [0.0]])    # A.T maps e1 to e2, not invariant
    with pytest.raises(InvarianceViolationError):
        restriction(A, U, 0.0)


def test_generalized_basis_dimension_errors():
    with pytest.raises(InconsistentSpectrumError, match="exceeds"):
        _bases(np.eye(2), 1.0, 1)     # eigenspace is 2-dim, exceeds 1
    with pytest.raises(InconsistentSpectrumError, match="never reached"):
        _bases(np.diag([1.0, 2.0]), 1.0, 2)   # never reaches 2
