"""Dense linear-algebra helpers shared by the analysis modules."""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def null_basis(
    M: np.ndarray, rel_tol: float | None = None, abs_floor: float = 0.0
) -> np.ndarray:
    """Orthonormal basis (as columns) of null(M); real for real input.

    The singular-value cutoff is rel_tol times the largest singular value,
    by default max(shape) eps times it.  abs_floor raises the cutoff to an
    absolute level, for callers whose matrices are only accurate to a
    known absolute error.
    """
    M = np.atleast_2d(M)
    m, c = M.shape
    if c == 0:
        return M[:0, :0].copy()
    if m == 0:
        return np.eye(c, dtype=M.dtype)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    cutoff = max((max(m, c) * EPS if rel_tol is None else rel_tol) * float(s[0]), abs_floor)
    r = int(np.sum(s > cutoff))
    return vh[r:].conj().T


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
