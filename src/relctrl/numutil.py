"""Dense linear-algebra helpers shared by the analysis modules."""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def _cutoff(shape, smax: float, rel_tol: float | None) -> float:
    if smax == 0.0:
        return 0.0
    if rel_tol is None:
        return max(shape) * EPS * smax
    return rel_tol * smax


def null_basis(
    M: np.ndarray, rel_tol: float | None = None, abs_floor: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (as columns) of null(M); real for real input.

    abs_floor raises the singular-value cutoff to an absolute level, for
    callers whose matrices are only accurate to a known absolute error.
    """
    M = np.atleast_2d(M)
    m, c = M.shape
    if c == 0:
        return M[:0, :0].copy()
    if m == 0:
        return np.eye(c, dtype=M.dtype)
    u, s, vh = np.linalg.svd(M, full_matrices=True)
    smax = float(s[0]) if s.size else 0.0
    cutoff = max(_cutoff(M.shape, smax, rel_tol), abs_floor)
    r = int(np.sum(s > cutoff))
    return vh[r:].conj().T


def range_basis(M: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of range(M)."""
    M = np.atleast_2d(M)
    if M.shape[1] == 0 or M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=M.dtype)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    r = int(np.sum(s > _cutoff(M.shape, smax, rel_tol)))
    return u[:, :r]


def equilibrated(M: np.ndarray, drop_rel: float = 0.0) -> np.ndarray:
    """Columns rescaled to unit norm, for scale-robust rank and cone tests.

    Positive column scaling changes neither the range nor the cone of a
    matrix.  Columns smaller than drop_rel times the largest column norm
    are removed first; they sit below the corresponding rank cutoff and
    must not be inflated into noise directions.
    """
    M = np.atleast_2d(M)
    if M.shape[1] == 0 or M.size == 0:
        return M
    norms = np.linalg.norm(M, axis=0)
    top = float(norms.max())
    if top == 0.0:
        return M[:, :0]
    keep = norms > drop_rel * top
    return M[:, keep] / norms[keep]


def pair_difference(q: int, k: int, l: int) -> np.ndarray:
    """The vector e_k - e_l in R^q, 1-based indices."""
    e = np.zeros(q)
    e[k - 1] += 1.0
    e[l - 1] -= 1.0
    return e
