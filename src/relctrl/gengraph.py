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

A graph carries the ``Tolerances`` it was built under (``G.tol``), and
every predicate below judges it by them.  Every range question has one
rule, ``blocks_in_range``.  The first range query on a graph factors its
matrix once (``numutil.range_complement``) and keeps the adjoint N* of an
orthonormal basis of the complement of its numerical range, and the
bound ``tol.rank * max(smax, 1)``.  A target, cut into column blocks, is
equilibrated block by block and projected onto N; a block lies in the
range when its residual has spectral norm at most the bound.
``range_contains`` is the one-block case and always takes this SVD
route.  A vertex pair needs not even the product: its residual is the
difference of column blocks k and l of N*, so ``kl_connected_pairs``
answers every requested pair of a graph with one array operation on
those blocks (``numutil.pairs_within``).

Most graphs are edge graphs, and for them the rule is a component lookup
(the edge route).  A graph qualifies when every column above the drop
cut of ``equilibrated`` is exactly (e_i - e_j) ⊗ w, at any blocksize,
and the columns of each vertex pair pass the one edge-bundle rule,
``_edge_components``, which carries the proof that the SVD rule then
gives the component verdicts.  The components come from one union–find
per graph (``_edge_labels``).  Connectivity is then one
component, (k,l)-connectivity a shared label, a block of edge columns
lies in the range when the ends of each kept column share a label, and
the range has dimension blocksize times (q minus the number of
components); off the route it is the rows less those of N*
(``_range_dim``).  Every other graph, and every general target, takes
the SVD route.  The oracles in ``relctrl.oracles``, which
``cross_check`` sets against a report, build their own matrices from the
input blocks and factor them on purpose: an oracle must not share the
step it checks; they share the kernels of ``relctrl.numutil``, never
a graph or a predicate of this module.

Cone questions about a subspace are range questions in disguise.  A
cone contains a subspace L exactly when its lineality space (the largest
subspace inside it) contains L, because L = -L.  The lineality space of
cone(M) is spanned by its generators, the columns g_i with -g_i in
cone(M).  ``lineality_generators`` finds them for a real graph with a few
nonnegative least-squares programs (a peel, described there) and keeps
them on the graph, as a graph of their own; strong
connectivity, every strongly (k,l)-connected pair, the inputs the
index recursion keeps and the lineality space then reduce to range
questions against that generator graph, whose range complement is in
turn factored once.  Single vector memberships go through
``cone_member``.

Every cone program of the package runs one certified working-set loop,
``_lawson_hanson``, on unit-norm columns: ``nnls`` calls it once per
program, and the oracles' ``ResponseStack`` calls it for each program
on its one matrix of sampled input responses, starting each from the
columns its earlier answers used.  The loop solves a wide program (more
than twice as many columns as rows, as the oracles' sampled input
responses are) on a small working set of columns that grows by the most
violating ones, and returns only answers that pass a first-order
optimality certificate over every column, falling back to
bounded-variable least squares when the compiled active-set solver
stops short.  Since the projection onto a convex cone is unique, the
residual does not depend on the route or on the set it starts from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DECADE, DEFAULT_TOLERANCES, KKT, Tolerances
from .errors import (
    DimensionError,
    GraphDomainError,
    NumericalFailureError,
    UnsupportedRenderError,
)
from .numutil import component_labels, edge_ends, null_basis, pair_indices, pairs_within
from .numutil import range_complement, within_bound


@dataclass(frozen=True, eq=False)
class GenGraph:
    """A (q*blocksize) x c matrix whose columns are generalized edges.

    tol holds the tolerances every predicate judges the graph by.  Neither
    the matrix nor tol changes after construction, which lets the graph
    keep, once per graph, its range complement (``_range_complement``),
    its edge-route component labels (``_edge_labels``) and its lineality
    generators (``lineality_generators``) in _memo, keyed by those names.
    """

    q: int
    blocksize: int
    M: np.ndarray
    is_real: bool
    tol: Tolerances
    _memo: dict[str, object] = field(default_factory=dict, init=False, repr=False)

    @property
    def n_columns(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True, eq=False)
class Feasibility:
    """Outcome of one cone-membership program.

    weights are the nonnegative combination weights the program found,
    the certificate of membership when member is true.  residual is the
    distance ||v - M weights|| those weights achieve, the distance to the
    cone.  marginal flags a non-member whose residual lies within a decade
    of the threshold.
    """

    member: bool
    residual: float
    marginal: bool
    weights: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Lineality:
    """Lineality generators of a real graph's cone, as found by the peel.

    columns are the indices of the generators in G.M, the columns g_i with
    -g_i in cone(G); graph holds those columns as a graph of its own, so
    that range questions against their span reuse one factorization.
    marginal reports a rejection during the peel that lay within a decade
    of its threshold.
    """

    columns: tuple[int, ...]
    graph: GenGraph
    marginal: bool


def make_graph(
    q: int,
    blocksize: int,
    M: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> GenGraph:
    """Wrap a matrix as a generalized graph, judged under tol.

    Every column must have zero block sum, within tol.zero; otherwise it
    is not orthogonal to the synchronization directions and the
    connectivity predicates below would be meaningless.
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
        worst = np.argmax(sums - tol.zero * (1.0 + colnorms))
        if sums[worst] > tol.zero * (1.0 + colnorms[worst]):
            raise GraphDomainError(
                f"column {worst + 1} has block sum {sums[worst]:.3e}; "
                "not a generalized-graph matrix"
            )
    M = M.view()
    M.setflags(write=False)
    return GenGraph(q=q, blocksize=blocksize, M=M, is_real=not np.iscomplexobj(M), tol=tol)


def nnls(M: np.ndarray, v: np.ndarray, max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, solved on a working set and certified.

    Minimizes ``||M a - v||`` over ``a >= 0`` and returns ``(a, residual)``.
    The program runs on the unit-norm columns U = M / ||M||
    (``_unit_columns``), which leaves the cone unchanged and keeps columns
    of very different magnitude (powers of the dynamics) from skewing the
    active-set choices; the weights y of ``_lawson_hanson`` are mapped
    back at the end and zero columns keep weight zero.  The residual is
    recomputed as ``||v - M a||`` from the returned weights and the
    original columns, so it is the distance they achieve.  Each call
    starts afresh; the oracles' ``ResponseStack``, which poses many
    programs on one matrix, calls ``_lawson_hanson`` itself with the
    columns its earlier answers used.

    ``max_iter`` caps every solve, by default ``50 * n_columns``; the
    compiled solver raises NumericalFailureError past it.
    """
    M = np.asarray(M, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != M.shape[0]:
        raise DimensionError(f"target has length {v.shape[0]}, expected {M.shape[0]}")
    U, scaling = _unit_columns(M)
    x = _lawson_hanson(U, v, max_iter) / scaling
    return x, float(np.linalg.norm(v - M @ x))


def _unit_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, scaling): U = M / scaling, the columns of M at unit norm; a zero column keeps scale 1."""
    colnorms = np.linalg.norm(M, axis=0)
    scaling = np.where(colnorms > 0.0, colnorms, 1.0)
    return M / scaling, scaling


def _lawson_hanson(
    U: np.ndarray, v: np.ndarray, max_iter: int | None = None, used: np.ndarray | None = None
) -> np.ndarray:
    """Certified weights y >= 0 of min ||U y - v|| on unit-norm columns U.

    Every answer carries the first-order certificate of optimality, over
    all columns: with r = v - U y and g = U* r,

        g_j <= kappa for every j,  |g_j| <= kappa wherever y_j > 0,

    kappa = ``KKT`` (1 + ||v||), with ``config.KKT`` fixed: the loop takes
    no tolerance.  The program is convex, so at kappa = 0 these (KKT)
    conditions characterize its optimum, and as the projection onto a
    cone is unique, every route to it gives the same residual: the
    distance to the cone.

    Each solve is the compiled Lawson–Hanson active-set method
    (``scipy.optimize.nnls``; Lawson and Hanson, *Solving Least Squares
    Problems*, 1974/1995), whose cost grows with the columns it is given.
    A program with c <= 2m columns (m rows; every peel program) is solved
    on all of them at once: one solve and one gradient product.  A wider
    program (the oracles' sampled input responses) starts from the 2m
    columns with the largest U* v, together with the columns of the
    boolean mask ``used`` when one is given (the supports of the earlier
    programs of a ``ResponseStack``); each round solves on the working
    set, forms g over every column and stops when the certificate holds.
    Otherwise the next set is the round's support plus at most m of the
    most violating columns outside the set.  Each round must lower the
    residual strictly, so no set repeats.  When a round does not, or
    every violating column is already in the set (the compiled solver
    stopped short of its optimum, as it can on exactly opposite
    columns), the whole program is solved once more by bounded-variable
    least squares (``scipy.optimize.lsq_linear(method="bvls")``).  An
    answer that still fails the certificate raises NumericalFailureError
    naming its gradient: no unchecked answer is returned.

    ``scipy.optimize`` is imported here, at the first program, and not
    when the package loads: the import takes about 0.45 s and 40 MB,
    most of a cold ``import relctrl``, and an array without a real
    eigenvalue is decided by rank tests alone.
    """
    from scipy.optimize import nnls as scipy_nnls

    m, c = U.shape
    # With no rows the compiled solver returns uninitialised weights.
    if c == 0 or m == 0:
        return np.zeros(c)
    if max_iter is None:
        max_iter = 50 * c
    kappa = KKT * (1.0 + float(np.linalg.norm(v)))
    whole = c <= 2 * m
    if whole:
        S = np.arange(c)
    else:
        first = np.zeros(c, dtype=bool) if used is None else used.copy()
        first[np.argpartition(U.T @ v, c - 2 * m)[c - 2 * m :]] = True
        S = np.flatnonzero(first)
    best = math.inf
    while True:
        US = U if whole else U[:, S]
        try:
            y, _ = scipy_nnls(US, v, maxiter=max_iter)
        except RuntimeError as exc:
            raise NumericalFailureError(
                f"nonnegative least squares exceeded {max_iter} iterations"
            ) from exc
        r = v - US @ y
        g = U.T @ r
        support = S[y > 0.0]
        if _breach(g, support) <= kappa:
            x = np.zeros(c)
            x[S] = y
            return x
        outside = np.ones(c, dtype=bool)
        outside[S] = False
        violators = np.flatnonzero(outside & (g > kappa))
        residual = float(np.linalg.norm(r))
        if violators.size == 0 or not residual < best:
            return _bvls(U, v, kappa, max_iter)
        best = residual
        if violators.size > m:
            violators = violators[np.argpartition(-g[violators], m)[:m]]
        chosen = np.zeros(c, dtype=bool)
        chosen[support] = True
        chosen[violators] = True
        S = np.flatnonzero(chosen)


def _breach(g: np.ndarray, support: np.ndarray) -> float:
    """How far gradient g breaks the certificate: max of g, and of -g on the support."""
    return max(float(g.max()), float(-g[support].min(initial=0.0)))


def _bvls(U: np.ndarray, v: np.ndarray, kappa: float, max_iter: int) -> np.ndarray:
    """The certified weights of one bounded-variable least-squares solve."""
    from scipy.optimize import lsq_linear

    x = lsq_linear(U, v, bounds=(0.0, np.inf), method="bvls", max_iter=max_iter).x
    worst = _breach(U.T @ (v - U @ x), np.flatnonzero(x > 0.0))
    if worst > kappa:
        raise NumericalFailureError(
            f"nonnegative least squares found no optimum: gradient {worst:.3e} "
            f"exceeds {kappa:.3e}"
        )
    return x


def cone_member(G: GenGraph, v: np.ndarray) -> Feasibility:
    """Decide membership of v in the cone of the graph columns, within G.tol.cone (1 + ||v||)."""
    if not G.is_real:
        raise GraphDomainError("cone membership is defined for real graphs only")
    v = np.asarray(v, dtype=float).ravel()
    alpha, residual = nnls(G.M, v)
    bound = G.tol.cone * (1.0 + float(np.linalg.norm(v)))
    member = residual <= bound
    return Feasibility(
        member=member,
        residual=residual,
        marginal=(not member) and residual <= DECADE * bound,
        weights=alpha,
    )


def _range_complement(G: GenGraph) -> tuple[np.ndarray, float]:
    """``range_complement`` of G.M under G.tol.rank, computed once per graph."""
    if "complement" not in G._memo:
        G._memo["complement"] = range_complement(G.M, G.tol.rank)
    return G._memo["complement"]


def _edge_components(
    q: int, i: np.ndarray, j: np.ndarray, K: np.ndarray, tol_rank: float
) -> np.ndarray | None:
    """Component labels of a graph given as edge bundles, or None.

    Bundle g holds the columns (e_i - e_j) ⊗ K[g, :, c] of a matrix M with
    q row blocks of size b = K.shape[1], i = i[g] and j = j[g]; zero
    columns pad the bundles.  A bundle with i = j holds columns that are
    not edges, weighted by their norms over sqrt(2); they must fall below
    the drop cut.  Only the weights' directions and the ratios of their
    norms matter.  The labels (``component_labels`` over the bundles that
    keep a column) give the verdicts of the SVD rule of
    ``blocks_in_range`` on M, by this proof.

    The drop cut of ``equilibrated`` keeps the columns above tol_rank
    times the largest norm, and none may lie within a decade of it.  Let
    U_g be bundle g's kept columns at unit norm (c_g of them), sigma the
    least of 1 and every sigma_b(U_g), and d the largest number of kept
    columns at a vertex.  The equilibrated M M* is the sum over bundles
    of (e_i - e_j)(e_i - e_j)^T/2 ⊗ U_g U_g*, with sigma^2 I <= U_g U_g*
    <= c_g I, so smax <= sqrt(d); when sigma > 0 the range is the x whose
    blocks sum to zero on every component, of dimension b (q - #comps);
    and as the Laplacian's nonzero eigenvalues are >= 4/q^2 (Mohar 1991),
    every nonzero singular value is >= sqrt(2) sigma / q.  The guard

        sqrt(2) sigma / q > 10 tol_rank sqrt(max(1, d))

    puts all of them above ten times the cutoff tol_rank smax.  A unit
    target column (e_k - e_l) ⊗ u / sqrt(2) then leaves no residual when k
    and l share a component and one of norm >= sqrt(2/q) otherwise, far
    above the bound tol_rank max(1, smax).  At b = 1 every sigma_1(U_g) =
    sqrt(c_g) >= 1, so no factorization is needed.
    """
    norms = np.linalg.norm(K, axis=1)                    # (bundles, width)
    cut = tol_rank * norms.max(initial=0.0)
    if not math.isfinite(cut) or ((norms > cut / DECADE) & (norms < DECADE * cut)).any():
        return None
    kept = norms > cut
    live = kept.any(axis=1)
    if (live & (i == j)).any():
        return None
    count = kept.sum(axis=1)
    d = (np.bincount(i, count, q) + np.bincount(j, count, q)).max(initial=0)
    sigma, b = 1.0, K.shape[1]
    if b > 1 and live.any():
        U = np.where(kept[:, None], K / np.where(kept, norms, 1.0)[:, None], 0.0)[live]
        s = np.linalg.svd(U, compute_uv=False)
        sigma = s[:, b - 1].min() if s.shape[1] == b else 0.0
    if not np.sqrt(2.0) * min(1.0, sigma) / q > DECADE * tol_rank * np.sqrt(max(1.0, d)):
        return None
    return component_labels(q, zip(i[live].tolist(), j[live].tolist()))


def _edge_labels(G: GenGraph) -> np.ndarray | None:
    """``_edge_components`` of G's columns, or None; once per graph.

    A column that is not an exact edge (``edge_ends``) is a loop.  At
    blocksize 1 each column is a bundle weighted by its norm, as a scalar
    weight's phase leaves the range alone; otherwise the columns are
    grouped by vertex pair, weighted by their block at i.
    """
    if "edges" in G._memo:
        return G._memo["edges"]
    q, b = G.q, G.blocksize
    i, j, edge, _ = edge_ends(G.M, b)
    j = np.where(edge, j, i)
    norms = np.linalg.norm(G.M, axis=0)
    if b == 1:
        K = norms[:, None, None]
    else:
        pairs, bundle = np.unique(i * q + j, return_inverse=True)
        order = np.argsort(bundle, kind="stable")
        sizes = np.bincount(bundle)
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        W = G.M.reshape(q, b, -1)[i, :, np.arange(i.size)]          # (c, b)
        W[~edge] = 0.0
        W[~edge, 0] = norms[~edge] / np.sqrt(2.0)
        K = np.zeros((pairs.size, b, sizes.max(initial=0)), dtype=G.M.dtype)
        K[bundle, :, slot] = W
        i, j = np.divmod(pairs, q)
    labels = G._memo["edges"] = _edge_components(q, i, j, K, G.tol.rank)
    return labels


def _block_cut(G: GenGraph, T: np.ndarray, width: int):
    """Column norms of T, one row per block, and the drop cut of each block."""
    if T.ndim != 2 or T.shape[0] != G.M.shape[0]:
        raise DimensionError(f"target has {T.shape[0]} rows, expected {G.M.shape[0]}")
    c = T.shape[1]
    if width < 1 or c % width:
        raise DimensionError(f"{c} target columns do not split into blocks of {width}")
    norms = np.linalg.norm(T, axis=0).reshape(c // width, width)
    return norms, norms > G.tol.rank * norms.max(axis=1, initial=0.0)[:, None]


def blocks_in_range(G: GenGraph, T: np.ndarray, width: int) -> list[bool]:
    """Which consecutive width-column blocks of T lie in range(G).

    Block j is T[:, j*width : (j+1)*width].  Each block is equilibrated on
    its own, by the drop rule of ``equilibrated``: its columns are scaled
    to unit norm and those below ``G.tol.rank`` times its largest column
    norm are zeroed, so that columns spanning many magnitudes (powers of
    the dynamics) do not drown small directions, and noise is not
    inflated into them.  A block lies in the range when its equilibrated
    columns leave a residual within the bound of the graph's one
    factorization (``_range_complement``).  All blocks are judged in one
    stack.

    On an edge graph (``_edge_labels``), a target whose columns are each
    exactly an edge or zero takes the edge route: a block lies in the
    range when every column its drop cut keeps has its ends in one
    component (see ``_edge_components``).
    """
    T = np.atleast_2d(np.asarray(T))
    _, keep = _block_cut(G, T, width)
    labels = _edge_labels(G)
    if labels is not None:
        i, j, edge, zero = edge_ends(T, G.blocksize)
        if np.all(edge | zero):
            return np.all(~keep | (labels[i] == labels[j]).reshape(keep.shape), axis=1).tolist()
    return _blocks_by_svd(G, T, width)


def _blocks_by_svd(G: GenGraph, T: np.ndarray, width: int) -> list[bool]:
    """The SVD route of ``blocks_in_range``, on a target already 2-d."""
    norms, keep = _block_cut(G, T, width)
    m, c = T.shape
    count = c // width
    Tn = np.where(keep, T.reshape(m, count, width) / np.where(keep, norms, 1.0), 0.0)
    Nh, bound = _range_complement(G)
    X = (Nh @ Tn.reshape(m, c)).reshape(Nh.shape[0], count, width).transpose(1, 0, 2)
    return within_bound(X, bound).tolist()


def range_contains(G: GenGraph, T: np.ndarray) -> bool:
    """True when range(G) contains range(T): ``blocks_in_range`` on one block.

    It always takes the SVD route, on edge graphs too, so it is the
    reference the edge route is checked against.
    """
    T = np.atleast_2d(np.asarray(T))
    return all(_blocks_by_svd(G, T, max(1, T.shape[1])))


def kl_connected_pairs(G: GenGraph, pairs) -> list[bool]:
    """``kl_connected_indices`` of 1-based vertex pairs, checked by ``pair_indices``."""
    return kl_connected_indices(G, *pair_indices(G.q, pairs))


def kl_connected_indices(G: GenGraph, k: np.ndarray, l: np.ndarray) -> list[bool]:
    """(k,l)-connectivity of the valid 0-based vertex pairs (k[i], l[i]), in one batch.

    Each verdict equals ``range_contains(G, (e_k - e_l) ⊗ I)``: the
    residual of the equilibrated target is (N*_k - N*_l)/sqrt(2), where
    N*_k is column block k of the memoized complement, and
    ``numutil.pairs_within`` judges all of them in a few stacks.  On an
    edge graph a pair is connected exactly when its ends share a
    component label.
    """
    if not k.size:
        return []
    labels = _edge_labels(G)
    if labels is not None:
        return (labels[k] == labels[l]).tolist()
    Nh, bound = _range_complement(G)
    return pairs_within(Nh.reshape(-1, G.q, G.blocksize), k, l, bound)


def column_graph(G: GenGraph, columns) -> GenGraph:
    """G's columns at the given indices under G.tol; G itself, memos and all, if every column."""
    if np.array_equal(columns, np.arange(G.n_columns)):
        return G
    M = G.M[:, columns]
    M.setflags(write=False)
    return GenGraph(q=G.q, blocksize=G.blocksize, M=M, is_real=G.is_real, tol=G.tol)


def lineality_generators(G: GenGraph) -> Lineality:
    """The generators of the lineality space of cone(G), once per graph.

    Column g_i is a generator when -g_i lies in cone(G), by the rule of
    ``cone_member``: its distance to the cone is at most
    tol.cone (1 + ||g_i||).  Distances to a cone scale with the vector, so
    for the unit-norm column u_i = g_i / ||g_i|| this reads
    dist(-u_i, cone) <= tau_i = tol.cone (1 + ||g_i||) / ||g_i||, and
    every step of the peel applies the rule in that form.

    The peel keeps a set S of candidate columns, at first the nonzero
    ones, and runs one ``cone_member`` program on v = -sum_{i in S} u_i.
    Since -u_i = v + sum_{j != i} u_j, dist(-u_i, cone) <= dist(v, cone),
    so a residual at most min_S tau_i makes every column of S a
    generator.  Otherwise the residual r = v - U x lies in the polar cone
    (Moreau): U* r <= 0, and the pushes -u_i* r sum to ||r||^2.  A
    generator's push is at most tau_i ||r||, since -u_i lies within tau_i
    of the cone, so every column that pushes harder is dropped and the
    peel repeats; dropping non-generators leaves the generators unchanged.
    When no column clears its cut, or some push is below minus its cut
    (r is polar only up to the certificate of ``nnls``), one
    ``cone_member(-g_i)`` program per remaining column decides.  Every
    round drops a column or ends the peel, so at most c rounds run.

    marginal is set when a rejecting program's residual, or a dropped
    column's push, lies within a decade of its threshold.  The result is
    kept on the graph, so its lineality space and every strong
    connectivity question about it share one peel.
    """
    if not G.is_real:
        raise GraphDomainError("lineality generators are defined for real graphs only")
    memo = G._memo.get("lineality")
    if memo is not None:
        return memo
    norms = np.linalg.norm(G.M, axis=0)
    S = np.flatnonzero(norms > 0.0)
    tau = G.tol.cone * (1.0 + norms[S]) / norms[S]
    marginal = False
    while S.size:
        H = column_graph(G, S)
        v = -(H.M / norms[S]).sum(axis=1)
        # The program runs through cone_member, but its verdict is taken
        # against the unit-column bound, not against tol.cone (1 + ||v||).
        feas = cone_member(H, v)
        bound = float(tau.min())
        if feas.residual <= bound:
            break
        marginal |= feas.residual <= DECADE * bound
        r = v - H.M @ feas.weights
        push = -(r @ H.M) / norms[S]
        cut = tau * feas.residual
        drop = push > cut
        # The drop rule needs r in the polar cone.  nnls certifies its
        # answers only up to its own constant, so a push may still sit
        # below minus its cut when the residual is tiny.
        if not drop.any() or np.any(push < -cut):
            rows = [cone_member(H, -g) for g in H.M.T]
            marginal |= any(f.marginal for f in rows)
            S = S[[f.member for f in rows]]
            break
        marginal |= bool(np.any(drop & (push <= DECADE * cut)))
        S, tau = S[~drop], tau[~drop]
    memo = G._memo["lineality"] = Lineality(
        columns=tuple(S.tolist()), graph=column_graph(G, S), marginal=marginal
    )
    return memo


def cone_contains_subspace(G: GenGraph) -> tuple[bool, bool]:
    """Strong connectivity: cone(G) contains the whole disagreement space.

    Returns (verdict, marginal).  A cone contains that space exactly when
    the span of its lineality generators does, so the verdict is
    ``is_connected`` of the generator graph of the memoized peel
    (``lineality_generators``).  marginal is set on a negative verdict
    when the peel met a near-threshold rejection: a generator set decided
    the other way could only have grown, and with it the verdict.
    """
    lin = lineality_generators(G)
    ok = is_connected(lin.graph)
    return ok, (not ok) and lin.marginal


def _range_dim(G: GenGraph) -> int:
    """The dimension of G's numerical range, from its one factorization.

    blocksize (q - #components) on the edge route, else the rows of G.M
    less those of the memoized range complement N*.
    """
    labels = _edge_labels(G)
    if labels is not None:
        return G.blocksize * (G.q - int(np.count_nonzero(labels == np.arange(G.q))))
    return G.M.shape[0] - _range_complement(G)[0].shape[0]


def is_connected(G: GenGraph) -> bool:
    """range(G) contains every disagreement direction.

    G's columns lie in that space, so they span it exactly when their
    range has its dimension (q - 1) blocksize (``_range_dim``).
    """
    return _range_dim(G) >= (G.q - 1) * G.blocksize


def lineality_space(G: GenGraph) -> np.ndarray:
    """Largest subspace contained in cone(G), as orthonormal columns.

    For a finitely generated cone this is the span of the lineality
    generators (``lineality_generators``, one memoized peel per graph):
    the orthogonal complement of the generator graph's
    memoized range complement, so that its dimension is the numerical
    rank by which ``blocks_in_range`` judges that span.
    """
    Nh, _ = _range_complement(lineality_generators(G).graph)
    return null_basis(Nh)


def lineality_dim(G: GenGraph) -> int:
    """The dimension of ``lineality_space``, without forming the basis.

    That basis completes the rows of the generator graph's range
    complement, so its dimension is the generator graph's ``_range_dim``.
    """
    return _range_dim(lineality_generators(G).graph)


def detect_scalar_edges(G: GenGraph) -> list[tuple[int, int, np.ndarray]] | None:
    """Factor every nonzero column as (e_i - e_j) ⊗ w and list (i, j, w).

    Vertices are 1-based.  Zero columns carry no edge and are skipped so
    that graphs missing an edge (a disconnected cell of a verdict table)
    still render.  Returns None when some nonzero column touches more
    than two vertices or its two blocks are not negatives; such a column
    is a hyperedge and the graph has no drawing here.  Blocks are judged
    by ``edge_ends`` at G.tol.zero: a block is zero, and two blocks are
    negatives, within tol.zero * max(1, ||column||).
    """
    i, j, edge, zero = edge_ends(G.M, G.blocksize, G.tol.zero)
    if not np.all(edge | zero):
        return None
    blocks = G.M.reshape(G.q, G.blocksize, -1)
    edges: list[tuple[int, int, np.ndarray]] = []
    for c in np.flatnonzero(edge).tolist():
        a, z = int(i[c]), int(j[c])
        w = blocks[a, :, c].copy()
        if G.blocksize == 1 and G.is_real and w[0] < 0.0:
            a, z, w = z, a, -w
        edges.append((a + 1, z + 1, w))
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


def to_dot(G: GenGraph) -> str:
    """Render a scalar-edge graph as Graphviz digraph text.

    Vertices are 1..q, one arc per edge that ``detect_scalar_edges``
    finds, weights annotated to 4 significant digits; output is
    byte-stable for identical inputs.
    """
    edges = detect_scalar_edges(G)
    if edges is None:
        raise UnsupportedRenderError(
            "graph has a hyperedge column; only scalar-edge graphs can be drawn"
        )
    lines = ["digraph {"]
    for name in range(1, G.q + 1):
        lines.append(f'  "{name}";')
    for i, j, w in edges:
        lines.append(f'  "{i}" -> "{j}" [label="{_fmt_weight(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
