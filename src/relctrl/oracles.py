"""Independent brute-force checks for the graph-based verdicts.

Every analysis in this package has a second route that does not go
through the eigenvalue-indexed graphs:

    kalman_reduced    rank of the reduced controllability matrix
    brammer_positive  reduced-coordinate eigenvector cone test
    pairwise_range    direct range test on the stacked controllability matrix
    path_oracle       breadth-first search over literal graph edges
    polar_falsifier   randomized search for a separating functional
    reach_simulator   discretized nonnegative input programs

The first four decide their question exactly (at desk scale); the last
two only gather evidence.  A falsifier witness refutes positive pairwise
controllability, its absence proves nothing; reach residuals support a
positive verdict but cannot overturn one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .array_model import ArraySpec, build_big, require_valid
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GraphDomainError
from .gengraph import nnls
from .numutil import equilibrated, pair_difference
from .spectral import distinct_eigenvalues


@dataclass(frozen=True, eq=False)
class OracleVerdict:
    name: str
    agrees: bool | None      # None when the oracle is inconclusive
    detail: str
    witness: np.ndarray | None = None


def kalman_reduced(
    spec: ArraySpec,
    tol_rank: float = DEFAULT_TOLERANCES.rank,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> bool:
    """Controllability via the rank of the reduced controllability matrix."""
    big = build_big(spec, tol_zero)
    blocks = []
    P = big.Bred
    for _ in range(spec.n):
        blocks.append(P)
        P = big.Ared @ P
    Wr = equilibrated(np.hstack(blocks), tol_rank)
    if Wr.shape[1] == 0:
        return (spec.q - 1) * spec.n == 0
    s = np.linalg.svd(Wr, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol_rank * smax)) if smax > 0 else 0
    return rank == (spec.q - 1) * spec.n


def brammer_positive(spec: ArraySpec, tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Positive controllability via the classical eigenvector cone test.

    On top of plain controllability, for every real eigenvalue the cone
    of reduced eigenvector components must be the whole space, which is
    checked by +/- membership of each standard basis vector.
    """
    if not kalman_reduced(spec, tolerances.rank, tolerances.zero):
        return False
    big = build_big(spec, tolerances.zero)
    spectrum = distinct_eigenvalues(spec.A)
    for comp in spectrum.components:
        if not comp.is_real:
            continue
        M = np.kron(np.eye(spec.q - 1), comp.V.T.real) @ big.Bred
        dim = M.shape[0]
        for idx in range(dim):
            for sign in (1.0, -1.0):
                target = np.zeros(dim)
                target[idx] = sign
                _, resid = nnls(M, target)
                if resid > tolerances.cone * 2.0:
                    return False
    return True


def pairwise_range(
    spec: ArraySpec,
    k: int,
    l: int,
    tol_rank: float = DEFAULT_TOLERANCES.rank,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> bool:
    """Pairwise controllability via a direct controllability-matrix range test."""
    big = build_big(spec, tol_zero)
    blocks = []
    P = big.Bbig
    for _ in range(spec.n):
        blocks.append(P)
        P = big.Abig @ P
    W = equilibrated(np.hstack(blocks), tol_rank)
    T = equilibrated(
        np.kron(pair_difference(spec.q, k, l)[:, None], np.eye(spec.n)), tol_rank
    )
    s_aug = np.linalg.svd(np.hstack([W, T]) if W.shape[1] else T, compute_uv=False)
    cutoff = tol_rank * float(s_aug[0]) if s_aug.size and s_aug[0] > 0 else 0.0
    s_w = np.linalg.svd(W, compute_uv=False) if W.size else np.zeros(0)
    return int(np.sum(s_aug > cutoff)) == int(np.sum(s_w > cutoff))


# ---------------------------------------------------------------------------
# literal path oracle


def _unit_edges(G: np.ndarray) -> list[tuple[int, int]]:
    G = np.asarray(G)
    if G.ndim != 2:
        raise GraphDomainError("path oracle expects a q x p incidence matrix")
    edges = []
    for col in G.T:
        heads = np.flatnonzero(col == 1.0)
        tails = np.flatnonzero(col == -1.0)
        rest = np.flatnonzero(col)
        if heads.size != 1 or tails.size != 1 or rest.size != 2:
            raise GraphDomainError(
                "path oracle requires every column to be exactly e_i - e_j"
            )
        edges.append((int(heads[0]), int(tails[0])))
    return edges


def _reachable(q: int, arcs: list[tuple[int, int]], start: int) -> set[int]:
    out: dict[int, list[int]] = {}
    for i, j in arcs:
        out.setdefault(i, []).append(j)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in out.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def path_oracle(G: np.ndarray, kind: str, k: int | None = None, l: int | None = None) -> bool:
    """Decide connectivity questions on a literal unit incidence matrix.

    kind is one of 'connected', 'strong', 'kl', 'strong_kl'; the pairwise
    kinds take 1-based vertices k and l.  Directed walks answer the
    strong kinds, edge-direction-blind walks the others.
    """
    G = np.asarray(G, dtype=float)
    q = G.shape[0]
    arcs = _unit_edges(G)
    undirected = arcs + [(j, i) for i, j in arcs]
    if kind in ("kl", "strong_kl"):
        if k is None or l is None or not (1 <= k <= q and 1 <= l <= q) or k == l:
            raise GraphDomainError(f"pairwise query needs distinct 1-based vertices, got {k},{l}")
        a, b = k - 1, l - 1
        if kind == "kl":
            return b in _reachable(q, undirected, a)
        return b in _reachable(q, arcs, a) and a in _reachable(q, arcs, b)
    if kind == "connected":
        return all(len(_reachable(q, undirected, s)) == q for s in range(q))
    if kind == "strong":
        return all(len(_reachable(q, arcs, s)) == q for s in range(q))
    raise GraphDomainError(f"unknown path query kind: {kind!r}")


# ---------------------------------------------------------------------------
# polar falsifier


def _chebyshev_grid(t_max: float, count: int) -> np.ndarray:
    # Lobatto spacing clusters points at both endpoints, where sign
    # changes of the input response are most likely to hide.
    i = np.arange(count)
    return 0.5 * t_max * (1.0 - np.cos(np.pi * i / (count - 1)))


def _response_stack(spec: ArraySpec, grid: np.ndarray, tol_zero: float) -> np.ndarray:
    """Rows of B* exp(A* t) for every grid time, stacked."""
    big = build_big(spec, tol_zero)
    rows = []
    for t in grid:
        E = np.kron(np.eye(spec.q), expm(spec.A.T * t))
        rows.append(big.Bbig.T @ E)
    return np.vstack(rows)


def default_polar_grid(spec: ArraySpec, count: int = 64) -> np.ndarray:
    evals = np.linalg.eigvals(spec.A)
    remax = float(np.max(np.abs(evals.real))) if evals.size else 0.0
    return _chebyshev_grid(4.0 / max(1.0, remax), count)


def polar_falsifier(
    spec: ArraySpec,
    k: int,
    l: int,
    grid: np.ndarray | None = None,
    attempts: int = 50,
    seed: int = 0,
    tol: float = 1e-7,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> np.ndarray | None:
    """Search for a separating functional refuting positive (k,l) steering.

    A witness is a direction eta along which every input's response stays
    nonpositive over time while eta retains a significant component on
    the (k,l) difference subspace.  The search minimizes a penalty
    (positive response energy minus a small multiple of the difference
    component) from seeded random starts; candidates are re-validated on
    a ten times denser grid.  Returns the witness or None; absence of a
    witness proves nothing.
    """
    require_valid(spec, tol_zero)
    if grid is None:
        grid = default_polar_grid(spec)
    grid = np.asarray(grid, dtype=float)
    P = _response_stack(spec, grid, tol_zero)
    P_dense = _response_stack(
        spec, _chebyshev_grid(float(grid.max()), 10 * grid.size), tol_zero
    )
    proj = np.kron(pair_difference(spec.q, k, l)[None, :], np.eye(spec.n))
    dim = spec.q * spec.n
    slack = tol * (1.0 + float(np.abs(P).max(initial=0.0)))

    def objective(eta: np.ndarray) -> float:
        norm = float(np.linalg.norm(eta))
        if norm < 1e-12:
            return 1.0
        unit = eta / norm
        violation = np.clip(P @ unit, 0.0, None)
        gain = float(np.linalg.norm(proj @ unit))
        return float(violation @ violation) - 0.1 * gain * gain

    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        eta0 = rng.standard_normal(dim)
        result = minimize(
            objective,
            eta0,
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-9, "fatol": 1e-12},
        )
        eta = result.x
        norm = float(np.linalg.norm(eta))
        if norm < 1e-12:
            continue
        eta = eta / norm
        if float(np.max(P @ eta, initial=0.0)) > slack:
            continue
        if float(np.linalg.norm(proj @ eta)) < 0.1:
            continue
        if float(np.max(P_dense @ eta, initial=0.0)) <= slack:
            return eta
    return None


# ---------------------------------------------------------------------------
# reach simulator


@dataclass(frozen=True, eq=False)
class ReachProblem:
    """Discretized positive-reachability probe for one vertex pair."""

    spec: ArraySpec
    k: int
    l: int
    horizon: float
    steps: int
    targets: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class TargetResult:
    target: np.ndarray
    residual: float
    hit: bool


def make_reach_problem(
    spec: ArraySpec, k: int, l: int, horizon: float, steps: int
) -> ReachProblem:
    """Probe with targets +/-(e_k - e_l) ⊗ b over the standard basis."""
    if horizon <= 0 or steps < 2:
        raise GraphDomainError("reach problem needs a positive horizon and at least 2 steps")
    d = pair_difference(spec.q, k, l)
    targets = []
    for idx in range(spec.n):
        b = np.zeros(spec.n)
        b[idx] = 1.0
        base = np.kron(d, b)
        targets.append(base)
        targets.append(-base)
    return ReachProblem(
        spec=spec, k=k, l=l, horizon=float(horizon), steps=int(steps), targets=tuple(targets)
    )


def reach_simulator(
    prob: ReachProblem,
    tol_hit: float = 1e-6,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> list[TargetResult]:
    """Distance of each target to the discretized positive reach cone.

    Inputs are piecewise constant and nonnegative on the step grid; each
    target's best approximation is a nonnegative least-squares program
    over all step/input weights.  Small residuals are evidence for
    positive reachability of the target, never proof, and a large
    residual may only reflect the discretization.
    """
    spec = prob.spec
    big = build_big(spec, tol_zero)
    dt = prob.horizon / prob.steps
    cols = []
    for j in range(prob.steps):
        s = prob.horizon - j * dt
        E = np.kron(np.eye(spec.q), expm(spec.A * s))
        cols.append(E @ big.Bbig * dt)
    C = np.hstack(cols)
    out = []
    for target in prob.targets:
        _, residual = nnls(C, target)
        out.append(TargetResult(target=target, residual=residual, hit=residual <= tol_hit))
    return out
