"""Distinct eigenstructure of the transposed system matrix.

For each distinct eigenvalue mu of A* the analysis needs an orthonormal
eigenvector basis V, an orthonormal basis U of the generalized
eigenspace, and the nilpotent part Lambda* = U* (A* - mu I) U of the
restriction A_k = Lambda + conj(mu) I (A* U = U A_k*).  Components are
listed in a fixed total order: real parts descending, a real eigenvalue
ahead of non-real ones sharing its real part, then |Im| ascending with
the positive-imaginary member of each conjugate pair first.

The components come from one matrix of distances between the computed
eigenvalues: its connected components at the clustering tolerance are
the clusters, its entries between clusters are the conditioning test,
and the conjugate pairing needs no search.  LAPACK returns the
eigenvalues of a real matrix in exact conjugate pairs and conjugation
keeps every distance, so the non-real clusters come in exact mirror
pairs of equal size, and the sizes partition n.

Each matrix is factored once: ||A||_2 once per array, and A* - mu I once
per computed eigenvalue, and a deflated copy once per further link of its
Jordan chains (``_component``); a conjugate partner is not factored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import CLUSTER_GAP, DECADE, DEFAULT_TOLERANCES
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
    Lambda: np.ndarray   # alg_mult x alg_mult nilpotent part of the restriction
    is_real: bool


@dataclass(frozen=True)
class Spectrum:
    components: tuple[EigComponent, ...]   # ordered, each +Im one before its conjugate
    tol: float                              # absolute tolerance of the clustering


def _shifted(A: np.ndarray, mu: complex) -> np.ndarray:
    if np.imag(mu) == 0.0:
        return A.T - float(np.real(mu)) * np.eye(len(A))
    return A.T.astype(complex) - complex(mu) * np.eye(len(A))


def restriction(
    A: np.ndarray, U: np.ndarray, mu: complex, tol_eig: float = DEFAULT_TOLERANCES.eig
) -> np.ndarray:
    """The nilpotent part Lambda of the dynamics on range(U).

    U must have orthonormal columns spanning an A*-invariant subspace on
    which M = A* - mu I is nilpotent, so Lambda* = U* M U, and both
    M U = U Lambda* and Lambda^dim = 0 hold up to DECADE tol_eig
    (1 + ||A||_F).  Real at a real mu and a real U.
    """
    A = np.asarray(A, dtype=float)
    tol_res = DECADE * tol_eig * (1.0 + float(np.linalg.norm(A)))
    MU = _shifted(A, mu) @ U
    Lambda_star = U.conj().T @ MU
    resid = float(np.linalg.norm(MU - U @ Lambda_star))
    if resid > tol_res:
        raise InvarianceViolationError(
            f"range(U) is not invariant at mu={mu}: residual {resid:.3e} > {tol_res:.3e}"
        )
    Lambda = Lambda_star.conj().T
    nilp = float(np.linalg.norm(np.linalg.matrix_power(Lambda, U.shape[1])))
    if nilp > tol_res:
        raise InvarianceViolationError(
            f"nilpotent part at mu={mu} fails Lambda^{U.shape[1]} = 0: residual {nilp:.3e}"
        )
    return Lambda


def _component(A, mu, n_k, is_real, floor, tol_eig) -> EigComponent:
    """The component of A* at mu, from M = A* - mu I alone.

    Every null space is cut at the absolute floor: a clustered eigenvalue,
    and with it every singular value of M that should vanish, carries an
    error of about that size, which a relative cutoff would miss whenever
    A is close to mu I.  V = null(M).  U starts at V and grows by
    deflation: when range(U) = null(M^j), null(M - U U* M) = null(M^(j+1)),
    the vectors M maps into range(U), so each step adds the next link of
    every Jordan chain, and its dimension is the next term of the rank
    sequence.  U stops at n_k, the algebraic multiplicity, or when a step
    adds nothing; U = V when the multiplicities agree.
    """
    M = _shifted(A, mu)
    V = U = null_basis(M, floor)
    if V.shape[1] == 0:
        raise InconsistentSpectrumError(
            f"numerically empty eigenspace at mu={mu}; not an eigenvalue at this tolerance"
        )
    while U.shape[1] < n_k:
        grown = null_basis(M - U @ (U.conj().T @ M), floor)
        if grown.shape[1] <= U.shape[1]:
            break
        U = grown
    if U.shape[1] > n_k:
        raise InconsistentSpectrumError(
            f"generalized eigenspace at mu={mu} exceeds algebraic multiplicity {n_k}: the "
            "eigenvalue looks defective and split by rounding; try a coarser eigenvalue tolerance"
        )
    if U.shape[1] < n_k:
        raise InconsistentSpectrumError(
            f"generalized eigenspace at mu={mu} never reached dimension {n_k}"
        )
    return EigComponent(
        mu=complex(mu), alg_mult=n_k, geo_mult=V.shape[1], V=V, U=U,
        Lambda=restriction(A, U, mu, tol_eig), is_real=is_real,
    )


def distinct_eigenvalues(A: np.ndarray, tol_eig: float = DEFAULT_TOLERANCES.eig) -> Spectrum:
    """Cluster the eigenvalues of A* and assemble the ordered spectrum.

    One pass over the matrix of pairwise distances between the computed
    eigenvalues: clusters are the connected components of |mu_i - mu_j|
    <= tol, where tol = tol_eig (1 + radius) and the radius is the
    largest modulus among them, each cluster labelled by its smallest
    member and represented by its mean.  A cluster whose mean lies within
    tol of the real axis is snapped onto it; every other cluster is
    symmetrized with its mirror cluster into an exact conjugate pair.
    LAPACK lists the eigenvalues of a real matrix in exact conjugate
    pairs, the positive-imaginary member first, and conjugation keeps
    every distance, so the mirror of a cluster is a cluster of the same
    size.  Raises IllConditionedSpectrumError, quoting the smallest gap
    between clusters and the tolerance, when two eigenvalues in different
    clusters lie closer than 2 tol, since the grouping would then hinge
    on the tolerance choice.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InconsistentSpectrumError(f"A must be square, got shape {A.shape}")
    evals = np.linalg.eigvals(A.T)
    tol = float(tol_eig) * (1.0 + float(np.abs(evals).max(initial=0.0)))
    smax = float(np.linalg.norm(A, 2)) if A.size else 0.0
    tol_rank = tol / (1.0 + smax)   # the clustering tolerance as ``_component``'s floor

    dist = np.abs(evals[:, None] - evals[None, :])
    rows, cols = np.nonzero(np.triu(dist <= tol, 1))
    labels = component_labels(len(evals), zip(rows.tolist(), cols.tolist()))
    gap = dist[labels[:, None] != labels[None, :]].min(initial=np.inf)
    if gap < CLUSTER_GAP * tol:
        raise IllConditionedSpectrumError(
            f"eigenvalue clusters separated by {gap:.3e} with tolerance {tol:.3e}; "
            "choose a different eigenvalue tolerance"
        )

    # (mu, size, is_real) per real cluster and per member of a conjugate
    # pair, +Im first; the mirror of a cluster whose smallest member is r
    # holds r + 1, the conjugate LAPACK lists next.
    entries = []
    for r in np.flatnonzero(labels == np.arange(len(labels))).tolist():
        members = evals[labels == r]
        mu = complex(np.mean(members))
        if abs(mu.imag) <= tol:
            entries.append((complex(mu.real), len(members), True))
        elif mu.imag > 0:
            minus = complex(np.mean(evals[labels == labels[r + 1]]))
            sym = 0.5 * (mu + np.conj(minus))
            if abs(sym.real) <= tol:
                sym = complex(0.0, sym.imag)
            entries += [(sym, len(members), False), (np.conj(sym), len(members), False)]

    # Real parts that agree up to the tolerance must compare equal, or
    # float noise could place a non-real pair ahead of a coincident real
    # eigenvalue: rank the chains of real parts within tol of each other.
    re = np.array([mu.real for mu, _, _ in entries])
    desc = np.argsort(-re, kind="stable")
    rank = np.empty(len(re), dtype=int)
    rank[desc] = np.cumsum(np.diff(re[desc], prepend=re[desc[:1]]) < -tol)

    def order_key(i):
        mu, _, is_real = entries[i]
        return (rank[i], not is_real, abs(mu.imag), mu.imag < 0)

    components: list[EigComponent] = []
    for mu, n_k, is_real in (entries[i] for i in sorted(range(len(entries)), key=order_key)):
        if not is_real and mu.imag < 0:
            c = components[-1]
            components.append(replace(
                c, mu=np.conj(c.mu), V=c.V.conj(), U=c.U.conj(), Lambda=c.Lambda.conj()
            ))
        else:
            floor = tol_rank * (1.0 + smax + abs(mu))
            components.append(_component(A, mu, n_k, is_real, floor, tol_eig))
    return Spectrum(components=tuple(components), tol=tol)
