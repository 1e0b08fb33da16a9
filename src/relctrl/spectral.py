"""Distinct eigenstructure of the transposed system matrix.

For each distinct eigenvalue mu of A* the analysis needs four pieces of
data: an orthonormal eigenvector basis V, an orthonormal basis U of the
generalized eigenspace, the restriction A_k of the dynamics to that
invariant subspace (A* U = U A_k*), and the nilpotent part
Lambda = A_k - conj(mu) I.  Components are listed in a fixed total order:
real parts descending, a real eigenvalue ahead of non-real ones sharing
its real part, then |Im| ascending with the positive-imaginary member of
each conjugate pair first.

Each matrix is factored once: ||A||_2 once per array, and A* - mu I
once per computed eigenvalue (``_component``); a conjugate partner is
not factored at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    IllConditionedSpectrumError,
    InconsistentSpectrumError,
    InvarianceViolationError,
)
from .numutil import component_labels, null_basis


@dataclass(frozen=True, eq=False)
class EigComponent:
    """All invariant-subspace data attached to one distinct eigenvalue."""

    mu: complex
    alg_mult: int
    geo_mult: int
    V: np.ndarray        # n x geo_mult, orthonormal columns
    U: np.ndarray        # n x alg_mult, orthonormal columns
    A_k: np.ndarray      # alg_mult x alg_mult restriction
    Lambda: np.ndarray   # nilpotent part of A_k
    is_real: bool


@dataclass(frozen=True)
class Spectrum:
    components: tuple[EigComponent, ...]

    @property
    def m(self) -> int:
        return len(self.components)

    def conjugate_partner(self, kappa: int) -> int | None:
        """0-based index of the conjugate component, None for real ones.

        Conjugate pairs are adjacent with the positive-imaginary member
        first, so the partner is a neighbor.
        """
        comp = self.components[kappa]
        if comp.is_real:
            return None
        return kappa + 1 if comp.mu.imag > 0 else kappa - 1


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    # Components of |v_i - v_j| <= tol; the transitive closure keeps
    # clusters stable under member ordering.
    values = np.asarray(values)
    close = np.triu(np.abs(values[:, None] - values[None, :]) <= tol, 1)
    rows, cols = np.nonzero(close)
    labels = component_labels(len(values), zip(rows.tolist(), cols.tolist()))
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(labels.tolist()):
        groups.setdefault(root, []).append(i)
    return [groups[r] for r in sorted(groups)]


def _cluster_gap(values, ca, cb) -> float:
    return min(abs(values[i] - values[j]) for i in ca for j in cb)


def _shifted(A: np.ndarray, mu: complex) -> np.ndarray:
    n = A.shape[0]
    if np.imag(mu) == 0.0:
        return A.T - float(np.real(mu)) * np.eye(n)
    return A.T.astype(complex) - complex(mu) * np.eye(n)


def restriction(A: np.ndarray, U: np.ndarray, mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """Restriction A_k of the dynamics to range(U) and its nilpotent part.

    U must have orthonormal columns spanning an A*-invariant subspace, so
    A_k* = U* A* U and A* U = U A_k* up to a residual of
    1e-7 (1 + ||A||_F).
    """
    A = np.asarray(A, dtype=float)
    tol_res = 1e-7 * (1.0 + float(np.linalg.norm(A)))
    n_k = U.shape[1]
    Ak_star = U.conj().T @ A.T @ U
    resid = float(np.linalg.norm(A.T @ U - U @ Ak_star))
    if resid > tol_res:
        raise InvarianceViolationError(
            f"range(U) is not invariant at mu={mu}: residual {resid:.3e} > {tol_res:.3e}"
        )
    A_k = Ak_star.conj().T
    Lambda = A_k - np.conj(mu) * np.eye(n_k, dtype=A_k.dtype)
    nilp = np.linalg.matrix_power(Lambda, n_k)
    if float(np.linalg.norm(nilp)) > tol_res:
        raise InvarianceViolationError(
            f"nilpotent part at mu={mu} fails Lambda^{n_k} = 0: "
            f"residual {np.linalg.norm(nilp):.3e}"
        )
    if np.imag(mu) == 0.0 and not np.iscomplexobj(U):
        A_k = A_k.real if np.iscomplexobj(A_k) else A_k
        Lambda = Lambda.real if np.iscomplexobj(Lambda) else Lambda
    return A_k, Lambda


def _component(A, mu, n_k, is_real, tol_rank, norm_A) -> EigComponent:
    """The component of A* at mu, from one SVD of M = A* - mu I.

    V holds the right singular vectors at or below the absolute floor
    tol_rank (1 + ||A||_2 + |mu|): a clustered eigenvalue, and with it
    every singular value of M that should vanish, carries an error of
    about that size, which a relative cutoff would miss whenever A is
    close to mu I.  U = V when the geometric multiplicity is n_k, the
    algebraic one; otherwise U is the null space of M^r for the least
    r <= n_k where its dimension reaches n_k.  Powers are renormalized
    between products, and the floor follows the eigenvalue error through
    r - 1 further factors of M, rescaled by the accumulated normalization.
    """
    M = _shifted(A, mu)
    _, s, vh = np.linalg.svd(M)
    floor = tol_rank * (1.0 + norm_A + abs(mu))
    V = vh[int(np.sum(s > floor)) :].conj().T
    if V.shape[1] == 0:
        raise InconsistentSpectrumError(
            f"numerically empty eigenspace at mu={mu}; not an eigenvalue at this tolerance"
        )
    U = V
    if V.shape[1] < n_k:
        growth = max(1.0, float(s[0]))
        # M is nonzero here: M = 0 would leave V the whole space.
        accumulated = float(np.linalg.norm(M))
        P = M / accumulated
        for r in range(2, n_k + 1):
            P = P @ M
            scale = float(np.linalg.norm(P))
            if scale > 0:
                P = P / scale
                accumulated *= scale
            U = null_basis(P, tol_rank, abs_floor=floor * growth ** (r - 1) / accumulated)
            if U.shape[1] >= n_k:
                break
    if U.shape[1] != n_k:
        kind = "exceeds algebraic multiplicity" if U.shape[1] > n_k else "never reached dimension"
        raise InconsistentSpectrumError(f"generalized eigenspace at mu={mu} {kind} {n_k}")
    A_k, Lambda = restriction(A, U, mu)
    return EigComponent(
        mu=complex(mu),
        alg_mult=n_k,
        geo_mult=V.shape[1],
        V=V,
        U=U,
        A_k=A_k,
        Lambda=Lambda,
        is_real=is_real,
    )


def _conjugate_component(comp: EigComponent) -> EigComponent:
    return EigComponent(
        mu=np.conj(comp.mu),
        alg_mult=comp.alg_mult,
        geo_mult=comp.geo_mult,
        V=comp.V.conj(),
        U=comp.U.conj(),
        A_k=comp.A_k.conj(),
        Lambda=comp.Lambda.conj(),
        is_real=False,
    )


def distinct_eigenvalues(A: np.ndarray, tol_eig: float = DEFAULT_TOLERANCES.eig) -> Spectrum:
    """Cluster the eigenvalues of A* and assemble the ordered spectrum.

    Eigenvalues are clustered at the tolerance tol_eig (1 + radius), the
    radius being the largest modulus among them.  Clusters whose
    imaginary part is below the tolerance are snapped to the real axis;
    the rest are symmetrized into exact conjugate pairs.
    Raises IllConditionedSpectrumError when two clusters are separated by
    less than twice the clustering tolerance, since the grouping would
    then hinge on the tolerance choice.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InconsistentSpectrumError(f"A must be square, got shape {A.shape}")
    n = A.shape[0]
    evals = np.linalg.eigvals(A.T)
    tol = float(tol_eig) * (1.0 + float(np.abs(evals).max(initial=0.0)))
    # Clustered eigenvalues carry an error up to the clustering tolerance,
    # so eigenspace extraction must not use a cutoff finer than that: a
    # null direction of A* - mu I leaves a residual of the order of the
    # eigenvalue error.
    smax = float(np.linalg.norm(A, 2)) if A.size else 0.0
    tol_rank = tol / (1.0 + smax)

    clusters = _cluster(evals, tol)
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            gap = _cluster_gap(evals, clusters[i], clusters[j])
            if gap < 2.0 * tol:
                raise IllConditionedSpectrumError(
                    f"eigenvalue clusters separated by {gap:.3e} with tolerance {tol:.3e}; "
                    "choose a different eigenvalue tolerance"
                )

    means = [complex(np.mean(evals[c])) for c in clusters]
    sizes = [len(c) for c in clusters]

    # Snap near-real clusters, then pair the remaining ones into exact
    # conjugates (A is real, so the pairing must exist).
    entries: list[dict] = []
    used = [False] * len(clusters)
    for i, mu in enumerate(means):
        if used[i]:
            continue
        if abs(mu.imag) <= tol:
            entries.append({"mu": complex(mu.real), "n_k": sizes[i], "real": True})
            used[i] = True
            continue
        partner = None
        for j in range(len(clusters)):
            if j != i and not used[j] and abs(np.conj(mu) - means[j]) <= 2.0 * tol:
                partner = j
                break
        if partner is None or sizes[partner] != sizes[i]:
            raise InconsistentSpectrumError(
                f"no conjugate partner for eigenvalue cluster at {mu}"
            )
        plus = mu if mu.imag > 0 else means[partner]
        minus = means[partner] if mu.imag > 0 else mu
        sym = 0.5 * (plus + np.conj(minus))
        if abs(sym.real) <= tol:
            sym = complex(0.0, sym.imag)
        entries.append({"mu": sym, "n_k": sizes[i], "real": False})
        entries.append({"mu": np.conj(sym), "n_k": sizes[i], "real": False})
        used[i] = used[partner] = True

    # Real parts that agree up to the tolerance must compare equal, or
    # float noise could place a non-real pair ahead of a coincident real
    # eigenvalue.  Group them first, then sort on the group.
    res = [e["mu"].real for e in entries]
    regroups = _cluster(np.asarray(res, dtype=complex), tol)
    group_of = {}
    group_re = {}
    for g, members in enumerate(regroups):
        rep = float(np.mean([res[i] for i in members]))
        for i in members:
            group_of[i] = g
            group_re[g] = rep

    def order_key(item):
        idx, e = item
        mu = e["mu"]
        return (
            -group_re[group_of[idx]],
            0 if e["real"] else 1,
            abs(mu.imag),
            0 if mu.imag >= 0 else 1,
        )

    entries = [e for _, e in sorted(enumerate(entries), key=order_key)]

    components: list[EigComponent] = []
    for e in entries:
        if not e["real"] and e["mu"].imag < 0:
            components.append(_conjugate_component(components[-1]))
        else:
            components.append(_component(A, e["mu"], e["n_k"], e["real"], tol_rank, smax))

    total = sum(c.alg_mult for c in components)
    if total != n:
        raise InconsistentSpectrumError(
            f"algebraic multiplicities sum to {total}, expected {n}"
        )
    return Spectrum(components=tuple(components))
