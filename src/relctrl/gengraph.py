"""Generalized graphs: block-structured matrices treated as edge sets.

A matrix with q row blocks of size n belongs to the generalized-graph
class when every column is orthogonal to the synchronization directions
(the range of ones ⊗ identity); each column then acts as an edge between
the q vertices.  Connectivity notions reduce to range inclusions, their
strong (one-way) counterparts to cone inclusions:

    connected              range(M) contains all disagreement directions
    (k,l)-connected        range(M) contains range((e_k - e_l) ⊗ I_n)
    strongly connected     cone(M) contains all disagreement directions
    strongly (k,l)-conn.   cone(M) contains range((e_k - e_l) ⊗ I_n)

Range questions are decided by projection: the first range query on a
graph factors its column-equilibrated matrix once and keeps an
orthonormal basis N of the complement of its numerical range (the left
singular vectors beyond the cutoff ``tol_rank * smax``).  Every later
query, at the same tolerance, only projects the equilibrated target onto
N, so a graph asked about many vertex pairs pays for one factorization.
The oracles in ``relctrl.oracles`` keep their own rank-of-``[W, T]``
comparison on purpose: an oracle must not share the step it checks.

Cone questions are decided by nonnegative least squares; the strong
predicates split a subspace query into +/- membership tests over an
orthonormal basis, which is exact because cones are closed under positive
combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from .array_model import disagreement_basis
from .config import DEFAULT_TOLERANCES
from .errors import (
    DimensionError,
    GraphDomainError,
    NumericalFailureError,
    UnsupportedRenderError,
)
from .numutil import equilibrated, pair_difference, range_basis


@dataclass(frozen=True, eq=False)
class GenGraph:
    """A (q*blocksize) x c matrix whose columns are generalized edges.

    The matrix is never modified after construction, which lets
    range_contains keep its range complement per tolerance.
    """

    q: int
    blocksize: int
    M: np.ndarray
    is_real: bool
    _complements: dict[float, tuple[np.ndarray, float]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def n_columns(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True, eq=False)
class Feasibility:
    """Outcome of one cone-membership program.

    certificate holds the nonnegative combination weights on membership;
    residual is the distance to the cone otherwise.  marginal flags a
    non-member whose residual lies within a decade of the threshold.
    """

    member: bool
    certificate: np.ndarray | None
    residual: float
    marginal: bool = False


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    columns: np.ndarray

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def make_graph(
    q: int,
    blocksize: int,
    M: np.ndarray,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> GenGraph:
    """Wrap a matrix as a generalized graph, checking the class membership.

    Every column must have (numerically) zero block sum; otherwise it is
    not orthogonal to the synchronization directions and the connectivity
    predicates below would be meaningless.
    """
    M = np.atleast_2d(np.asarray(M))
    if M.shape[0] != q * blocksize:
        raise DimensionError(
            f"graph matrix has {M.shape[0]} rows, expected q*n = {q * blocksize}"
        )
    if np.iscomplexobj(M) and not np.any(M.imag):
        M = M.real.copy()
    if M.shape[1] > 0:
        blocksums = M.reshape(q, blocksize, -1).sum(axis=0)   # (blocksize, c)
        sums = np.linalg.norm(blocksums, axis=0)
        colnorms = np.linalg.norm(M, axis=0)
        worst = np.argmax(sums - tol_zero * (1.0 + colnorms))
        if sums[worst] > tol_zero * (1.0 + colnorms[worst]):
            raise GraphDomainError(
                f"column {worst + 1} has block sum {sums[worst]:.3e}; "
                "not a generalized-graph matrix"
            )
    M = M.view()
    M.setflags(write=False)
    return GenGraph(q=q, blocksize=blocksize, M=M, is_real=not np.iscomplexobj(M))


def nnls(M: np.ndarray, v: np.ndarray, max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Nonnegative least squares by the compiled Lawson–Hanson method.

    Minimizes ``||M a - v||`` over ``a >= 0`` and returns ``(a, residual)``
    using ``scipy.optimize.nnls``, the classical active-set algorithm of
    Lawson and Hanson (*Solving Least Squares Problems*, 1974/1995).  The
    program runs on unit-norm columns, which leaves the cone unchanged and
    keeps columns of very different magnitude (powers of the dynamics)
    from skewing the active-set choices; the weights are mapped back at
    the end and zero columns keep weight zero.  The residual is recomputed
    as ``||v - M a||`` from the returned weights and the original columns,
    so it is the distance the certificate actually achieves; the solver's
    own norm belongs to the scaled problem and is not relied on (it has
    been stale on duplicate-column instances).

    Raises NumericalFailureError past ``max_iter`` iterations, by default
    ``50 * n_columns``.
    """
    M = np.asarray(M, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    m, c = M.shape
    if v.shape[0] != m:
        raise DimensionError(f"target has length {v.shape[0]}, expected {m}")
    # With no rows the compiled solver returns uninitialised weights.
    if c == 0 or m == 0:
        return np.zeros(c), float(np.linalg.norm(v))
    if max_iter is None:
        max_iter = 50 * c
    colnorms = np.linalg.norm(M, axis=0)
    scaling = np.where(colnorms > 0.0, colnorms, 1.0)
    try:
        x, _ = scipy_nnls(M / scaling, v, maxiter=max_iter)
    except RuntimeError as exc:
        raise NumericalFailureError(
            f"nonnegative least squares exceeded {max_iter} iterations"
        ) from exc
    x = x / scaling
    return x, float(np.linalg.norm(v - M @ x))


def cone_member(
    G: GenGraph, v: np.ndarray, tol_cone: float = DEFAULT_TOLERANCES.cone
) -> Feasibility:
    """Decide membership of v in the cone spanned by the graph columns."""
    if not G.is_real:
        raise GraphDomainError("cone membership is defined for real graphs only")
    v = np.asarray(v, dtype=float).ravel()
    alpha, residual = nnls(G.M, v)
    bound = tol_cone * (1.0 + float(np.linalg.norm(v)))
    member = residual <= bound
    return Feasibility(
        member=member,
        certificate=alpha if member else None,
        residual=residual,
        marginal=(not member) and residual <= 10.0 * bound,
    )


def _range_complement(G: GenGraph, tol_rank: float) -> tuple[np.ndarray, float]:
    """(N*, smax) for the numerical range of G, computed once per tolerance.

    The columns are equilibrated with the drop rule of ``equilibrated``
    and factored by one SVD (full U when the matrix is tall, so that the
    directions beyond its column count are included).  N is the
    orthonormal basis of left singular vectors whose singular values do
    not exceed ``tol_rank * smax``; its adjoint is kept, ready to project.
    """
    memo = G._complements.get(tol_rank)
    if memo is None:
        Gn = equilibrated(G.M, tol_rank)
        m, c = Gn.shape
        if c == 0:
            memo = (np.eye(m), 0.0)
        else:
            U, s, _ = np.linalg.svd(Gn, full_matrices=m > c)
            smax = float(s[0])
            N = U[:, int(np.sum(s > tol_rank * smax)):]
            memo = (N.conj().T, smax)
        G._complements[tol_rank] = memo
    return memo


def range_contains(
    G: GenGraph, T: np.ndarray, tol_rank: float = DEFAULT_TOLERANCES.rank
) -> bool:
    """True when range(G) contains range(T); complex-aware projection test.

    Both sides are column-equilibrated first so that matrices whose
    columns span many magnitudes (powers of the dynamics) do not drown
    their small directions under a global singular-value cutoff.  The
    graph side is factored once per tolerance (see ``_range_complement``);
    T is contained when its equilibrated columns leave a spectral-norm
    residual of at most ``tol_rank * max(smax, 1)`` outside the numerical
    range, smax being the largest singular value of the equilibrated graph.
    The oracles keep their own rank-of-``[W, T]`` comparison instead, so
    that a cross-check does not share the step it checks.
    """
    T = np.atleast_2d(np.asarray(T))
    if T.ndim != 2 or T.shape[0] != G.M.shape[0]:
        raise DimensionError(
            f"target has {T.shape[0]} rows, expected {G.M.shape[0]}"
        )
    Tn = equilibrated(T, tol_rank)
    if Tn.shape[1] == 0:
        return True
    Nh, smax = _range_complement(G, tol_rank)
    X = Nh @ Tn
    bound = tol_rank * max(smax, 1.0)
    # ||X||_2 <= ||X||_F <= sqrt(rank) ||X||_2 settles all but near-threshold
    # residuals without a factorization.
    fro = float(np.linalg.norm(X))
    if fro <= bound:
        return True
    if fro > bound * np.sqrt(min(X.shape)):
        return False
    return float(np.linalg.norm(X, 2)) <= bound


def _check_pair(q: int, k: int, l: int) -> None:
    if not (1 <= k <= q and 1 <= l <= q) or k == l:
        raise DimensionError(f"vertex pair ({k},{l}) invalid for q={q} (1-based, distinct)")


def _pair_subspace(q: int, blocksize: int, k: int, l: int) -> np.ndarray:
    """(e_k - e_l) ⊗ I, written blockwise."""
    T = np.zeros((q, blocksize, blocksize))
    T[k - 1] = np.eye(blocksize)
    T[l - 1] = -np.eye(blocksize)
    return T.reshape(q * blocksize, blocksize)


def cone_contains_subspace(
    G: GenGraph, T: np.ndarray, tol_cone: float = DEFAULT_TOLERANCES.cone
) -> tuple[bool, bool]:
    """Test cone(G) ⊇ range(T) by +/- membership over the columns of T.

    Returns (verdict, marginal); marginal reports any near-threshold
    rejection among the individual programs.
    """
    ok = True
    marginal = False
    for col in np.atleast_2d(T).T:
        for sign in (1.0, -1.0):
            feas = cone_member(G, sign * col, tol_cone)
            ok &= feas.member
            marginal |= feas.marginal
    return ok, marginal


def is_connected(G: GenGraph, tol_rank: float = DEFAULT_TOLERANCES.rank) -> bool:
    """range(G) contains every disagreement direction."""
    D = disagreement_basis(G.q)
    return range_contains(G, np.kron(D, np.eye(G.blocksize)), tol_rank)


def is_kl_connected(
    G: GenGraph, k: int, l: int, tol_rank: float = DEFAULT_TOLERANCES.rank
) -> bool:
    """range(G) contains range((e_k - e_l) ⊗ I); 1-based vertices."""
    _check_pair(G.q, k, l)
    return range_contains(G, _pair_subspace(G.q, G.blocksize, k, l), tol_rank)


def is_strongly_connected(G: GenGraph, tol_cone: float = DEFAULT_TOLERANCES.cone) -> bool:
    """cone(G) contains every disagreement direction (real graphs only)."""
    if not G.is_real:
        raise GraphDomainError("strong connectivity is defined for real graphs only")
    D = disagreement_basis(G.q)
    ok, _ = cone_contains_subspace(G, np.kron(D, np.eye(G.blocksize)), tol_cone)
    return ok


def is_strongly_kl_connected(
    G: GenGraph, k: int, l: int, tol_cone: float = DEFAULT_TOLERANCES.cone
) -> bool:
    """cone(G) contains range((e_k - e_l) ⊗ I); 1-based vertices."""
    if not G.is_real:
        raise GraphDomainError("strong connectivity is defined for real graphs only")
    _check_pair(G.q, k, l)
    ok, _ = cone_contains_subspace(G, _pair_subspace(G.q, G.blocksize, k, l), tol_cone)
    return ok


def lineality_space(
    G: GenGraph,
    tol_cone: float = DEFAULT_TOLERANCES.cone,
    tol_rank: float = DEFAULT_TOLERANCES.rank,
) -> SubspaceBasis:
    """Largest subspace contained in cone(G), as an orthonormal basis.

    For a finitely generated cone this is the span of the generators whose
    negation is itself a member, so one membership program per column
    decides it.
    """
    if not G.is_real:
        raise GraphDomainError("lineality space is defined for real graphs only")
    keep = []
    for i in range(G.n_columns):
        col = G.M[:, i]
        if float(np.linalg.norm(col)) == 0.0:
            continue
        if cone_member(G, -col, tol_cone).member:
            keep.append(i)
    if not keep:
        return SubspaceBasis(np.zeros((G.M.shape[0], 0)))
    return SubspaceBasis(range_basis(G.M[:, keep], tol_rank))


def detect_scalar_edges(
    G: GenGraph, tol_zero: float = DEFAULT_TOLERANCES.zero
) -> list[tuple[int, int, np.ndarray]] | None:
    """Factor every nonzero column as (e_i - e_j) ⊗ w and list (i, j, w).

    Vertices are 1-based.  Zero columns carry no edge and are skipped so
    that graphs missing an edge (a disconnected cell of a verdict table)
    still render.  Returns None as soon as some nonzero column touches
    more than two vertices or its two blocks are not exact negatives;
    such a column is a hyperedge and the graph has no drawing here.
    """
    q, b = G.q, G.blocksize
    edges: list[tuple[int, int, np.ndarray]] = []
    for col in G.M.T:
        scale = max(1.0, float(np.linalg.norm(col)))
        cut = tol_zero * scale
        blocks = col.reshape(q, b)
        norms = np.linalg.norm(blocks, axis=1)
        nz = np.flatnonzero(norms > cut)
        if nz.size == 0:
            continue
        if nz.size != 2:
            return None
        i, j = int(nz[0]), int(nz[1])
        w = blocks[i].copy()
        if float(np.linalg.norm(blocks[j] + w)) > cut:
            return None
        if b == 1 and G.is_real and w[0] < 0.0:
            i, j, w = j, i, -w
        edges.append((i + 1, j + 1, w))
    return edges


def _fmt_weight(w: np.ndarray) -> str:
    def one(x) -> str:
        if np.iscomplexobj(np.asarray(x)):
            x = complex(x)
            # A component twelve orders below the other is invisible at
            # four significant digits; drop the float noise.
            scale = max(abs(x.real), abs(x.imag))
            re = 0.0 if abs(x.real) <= 1e-12 * scale else x.real
            im = 0.0 if abs(x.imag) <= 1e-12 * scale else x.imag
            if im == 0.0:
                return f"{re:.4g}"
            return f"{re:.4g}{im:+.4g}j"
        return f"{float(x):.4g}"

    if w.shape[0] == 1:
        return one(w[0])
    return "(" + ", ".join(one(x) for x in w) + ")"


def to_dot(G: GenGraph, labels: list[str] | None = None) -> str:
    """Render a scalar-edge graph as Graphviz digraph text.

    One arc per detected edge, weights annotated to 4 significant digits;
    output is byte-stable for identical inputs.
    """
    edges = detect_scalar_edges(G)
    if edges is None:
        raise UnsupportedRenderError(
            "graph has a hyperedge column; only scalar-edge graphs can be drawn"
        )
    if labels is None:
        labels = [str(i + 1) for i in range(G.q)]
    if len(labels) != G.q:
        raise DimensionError(f"{len(labels)} labels for {G.q} vertices")
    lines = ["digraph {"]
    for name in labels:
        lines.append(f'  "{name}";')
    for i, j, w in edges:
        lines.append(f'  "{labels[i - 1]}" -> "{labels[j - 1]}" [label="{_fmt_weight(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def effective_conductance(
    G: GenGraph, k: int, l: int, tol_rank: float = DEFAULT_TOLERANCES.rank
) -> float:
    """Two-point effective conductance of the graph Laplacian G G*.

    Zero exactly when the graph is not (k,l)-connected (range(G G*) is
    range(G)); otherwise the reciprocal of the pseudo-inverse quadratic
    form, as for a resistive network.
    """
    if G.blocksize != 1:
        raise GraphDomainError("effective conductance needs scalar vertex blocks")
    if not G.is_real:
        raise GraphDomainError("effective conductance is defined for real graphs only")
    if not is_kl_connected(G, k, l, tol_rank):
        return 0.0
    e = pair_difference(G.q, k, l)
    return float(1.0 / (e @ np.linalg.pinv(G.M @ G.M.T) @ e))
