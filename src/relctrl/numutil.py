"""Dense linear-algebra kernels shared by the analysis and the oracles.

Both sides build their power stacks with ``krylov`` and answer range
questions by the one rule of ``range_complement``, ``within_bound`` and
``pairs_within``, each on matrices it builds and factors itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

EPS = float(np.finfo(float).eps)


def null_basis(M: np.ndarray, floor: float | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of null(M); real for real input.

    The singular values at or below the cutoff span it: floor when given,
    for callers whose matrices are only accurate to a known absolute
    error, else max(shape) eps times the largest singular value.
    """
    M = np.atleast_2d(M)
    m, c = M.shape
    if c == 0:
        return M[:0, :0].copy()
    if m == 0:
        return np.eye(c, dtype=M.dtype)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    cutoff = max(m, c) * EPS * float(s[0]) if floor is None else floor
    return vh[int(np.sum(s > cutoff)) :].conj().T


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


def edge_ends(
    M: np.ndarray, blocksize: int, tol_zero: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Which columns of a (q*blocksize) x c matrix are edges (e_i - e_j) ⊗ w.

    Returns (i, j, edge, zero): i <= j are the first and last of the q row
    blocks in which the column is nonzero, edge says whether the column is
    nonzero in exactly those two blocks and they are negatives of each
    other, and zero whether it has no nonzero block.

    At tol_zero = 0 both tests are exact, which the edge-bundle rule
    needs: its proof (``relctrl.gengraph._edge_components``) holds for
    exact edge columns only.  A positive tol_zero serves the drawing of
    computed graphs, whose two blocks may be negatives only to
    rounding: a block is zero when its norm, and two
    blocks are negatives when the norm of their sum, is at most
    tol_zero * max(1, ||column||).
    """
    c = M.shape[1]
    blocks = M.reshape(M.shape[0] // blocksize, blocksize, c)
    cols = np.arange(c)
    if tol_zero == 0.0:
        nz = np.any(blocks != 0, axis=1)                 # (q, c)
    else:
        cut = tol_zero * np.maximum(1.0, np.linalg.norm(M, axis=0))
        nz = np.linalg.norm(blocks, axis=1) > cut
    i = nz.argmax(axis=0)
    j = nz.shape[0] - 1 - nz[::-1].argmax(axis=0)
    gap = blocks[i, :, cols] + blocks[j, :, cols]        # (c, blocksize)
    if tol_zero == 0.0:
        negated = ~np.any(gap, axis=1)
    else:
        negated = np.linalg.norm(gap, axis=1) <= cut
    count = nz.sum(axis=0)
    return i, j, (count == 2) & negated, count == 0


def component_labels(size: int, edges) -> np.ndarray:
    """Connected-component labels of a graph on vertices 0..size-1.

    Union–find with path halving over the (i, j) pairs of edges.  Every
    vertex is labelled by the smallest vertex of its component, so the
    labels do not depend on the order of the edges, and a root is the one
    vertex of its component labelled by itself.  A root is linked below
    the smaller root, so no vertex has a parent above it, and one pass in
    increasing order then resolves every vertex to its root.
    """
    parent = list(range(size))
    for i, j in edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for a in range(size):
        parent[a] = parent[parent[a]]
    return np.array(parent, dtype=np.intp)


def krylov(A: np.ndarray, X: np.ndarray, count: int) -> np.ndarray:
    """The stack [X, A X, ..., A^(count-1) X], A applied along X's last axis.

    One einsum per power on the blocks, so I_q ⊗ A is never formed and a
    block -b maps to exactly the negative of b's image.
    """
    powers = [X]
    for _ in range(count - 1):
        powers.append(np.einsum("mn,...n->...m", A, powers[-1]))
    return np.stack(powers)


def range_complement(M: np.ndarray, tol_rank: float) -> tuple[np.ndarray, float]:
    """(N*, bound): the complement of M's numerical range and the range rule's bound.

    M, equilibrated by the drop rule of ``equilibrated``, is factored by
    one SVD (full U when tall, to include the directions beyond its column
    count).  N spans the left singular vectors at or below tol_rank smax.
    An equilibrated target lies in the range when its residual N* t has
    spectral norm at most bound = tol_rank max(smax, 1) (``within_bound``).
    """
    Mn = equilibrated(M, tol_rank)
    m, c = Mn.shape
    if c == 0:
        return np.eye(m), tol_rank
    U, s, _ = np.linalg.svd(Mn, full_matrices=m > c)
    smax = float(s[0])
    return U[:, int(np.sum(s > tol_rank * smax)) :].conj().T, tol_rank * max(smax, 1.0)


def within_bound(X: np.ndarray, bound: float) -> np.ndarray:
    """Which residuals of a (P, r, b) stack have spectral norm <= bound."""
    # ||X||_2 <= ||X||_F <= sqrt(min(r, b)) ||X||_2 settles all but
    # near-threshold residuals without a factorization.
    fro = np.sqrt(np.einsum("prb,prb->p", X.conj(), X).real)
    ok = fro <= bound
    mid = ~ok & (fro <= bound * np.sqrt(min(X.shape[1:])))
    if mid.any():
        ok[mid] = np.linalg.norm(X[mid], 2, axis=(1, 2)) <= bound
    return ok


def pairs_within(blocks: np.ndarray, k: np.ndarray, l: np.ndarray, bound: float) -> list[bool]:
    """Which 0-based pairs (k, l) have (e_k - e_l) ⊗ I_b in range, by ``within_bound``.

    blocks is a complement N* cut into its q column blocks, (rows, q, b).
    Equilibrated, the target is (e_k - e_l) ⊗ I_b / sqrt(2), so its
    residual is (blocks_k - blocks_l) / sqrt(2).
    """
    # Pairs per stack, so that one stack holds at most 2**18 entries.
    step = max(1, 2**18 // max(1, blocks.shape[0] * blocks.shape[2]))
    ok: list[bool] = []
    for i in range(0, len(k), step):
        X = (blocks[:, k[i : i + step]] - blocks[:, l[i : i + step]]) / np.sqrt(2.0)
        ok += within_bound(X.transpose(1, 0, 2), bound).tolist()
    return ok


def pair_indices(q: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """0-based (k, l) arrays of 1-based pairs of distinct vertices 1..q.

    DimensionError names the first pair that is not one, an index beyond
    int64 included (the pairs are read without a dtype, so none overflows).
    """
    kl = np.array(list(pairs)).reshape(-1, 2)
    k, l = kl.T
    bad = (k < 1) | (k > q) | (l < 1) | (l > q) | (k == l)
    if bad.any():
        a, b = kl[bad.argmax()].tolist()
        raise DimensionError(f"pair ({a},{b}) invalid for q={q} (1-based, distinct)")
    return (k - 1).astype(np.intp), (l - 1).astype(np.intp)


def pair_difference(q: int, k: int, l: int) -> np.ndarray:
    """The vector e_k - e_l in R^q, 1-based indices.

    One pair is checked by scalar comparisons, with the DimensionError
    of ``pair_indices``.
    """
    if not (1 <= k <= q and 1 <= l <= q and k != l):
        raise DimensionError(f"pair ({k},{l}) invalid for q={q} (1-based, distinct)")
    e = np.zeros(q)
    e[int(k) - 1], e[int(l) - 1] = 1.0, -1.0
    return e
