"""The four controllability analyses of a relatively actuated array.

Each analysis reduces to connectivity of eigenvalue-indexed generalized
graphs built from the array:

    V-graph   per-system eigenvector components of the input columns;
              connectivity of all of them decides controllability, strong
              connectivity at real eigenvalues adds one-way (nonnegative
              input) controllability.
    W-graph   generalized-eigenspace components swept by powers of the
              restricted dynamics; pairwise connectivity of all of them
              decides pairwise controllability.
    Q-graph   like the W-graph but swept by the nilpotent part only and
              restricted to a shrinking input index set; strong pairwise
              connectivity at real eigenvalues (plain at non-real ones)
              decides positive pairwise controllability, under two
              assumptions that are checked and reported.

Both controllability and pairwise controllability admit a second, whole
controllability-matrix characterization; the two are computed side by
side and any numerical disagreement raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .array_model import (
    ArraySpec,
    ValidationReport,
    disagreement_basis,
    require_valid,
    validate_array,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionError, InternalConsistencyError
from .gengraph import (
    GenGraph,
    cone_contains_subspace,
    is_connected,
    is_kl_connected,
    lineality_space,
    make_graph,
)
from .numutil import pair_difference, subspace_contains
from .spectral import EigComponent, Spectrum, default_eig_tol, distinct_eigenvalues


# ---------------------------------------------------------------------------
# graph construction


def controllability_matrix(spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero) -> GenGraph:
    """Stacked controllability matrix [B, AB, ..., A^(n-1) B] as a graph.

    The stacked dynamics are I_q ⊗ A, so each power is applied to the
    (q, p, n) input blocks directly.  They satisfy the degree-n
    characteristic polynomial of the node matrix, so n powers already
    span the controllable subspace.
    """
    powers = [spec.B]
    for _ in range(spec.n - 1):
        powers.append(np.einsum("mn,qpn->qpm", spec.A, powers[-1]))
    # (power, q, p, n) -> rows (system, state), columns (power, input)
    W = np.stack(powers).transpose(1, 3, 0, 2).reshape(spec.q * spec.n, spec.n * spec.p)
    return make_graph(spec.q, spec.n, W, tol_zero)


def _component_blocks(spec: ArraySpec, comp: EigComponent) -> np.ndarray:
    # (q, d, p) array of per-system input components U* B[i, s].
    return np.einsum("dn,qpn->qdp", comp.U.conj().T, spec.B)


def v_graphs(
    spec: ArraySpec, spectrum: Spectrum, tol_zero: float = DEFAULT_TOLERANCES.zero
) -> list[GenGraph]:
    """One eigenvector-component graph per distinct eigenvalue."""
    graphs = []
    for comp in spectrum.components:
        blocks = np.einsum("dn,qpn->qdp", comp.V.conj().T, spec.B)
        M = blocks.reshape(spec.q * comp.geo_mult, spec.p)
        graphs.append(make_graph(spec.q, comp.geo_mult, M, tol_zero))
    return graphs


def _power_swept_graph(
    spec: ArraySpec,
    comp: EigComponent,
    sweep: np.ndarray,
    sigmas: list[int],
    tol_zero: float,
) -> GenGraph:
    """Graph with columns [I_q ⊗ sweep^r] b_sigma, sigma-major then power."""
    nk = comp.alg_mult
    blocks = _component_blocks(spec, comp)          # (q, nk, p)
    powers = [np.eye(nk, dtype=sweep.dtype)]
    for _ in range(nk - 1):
        powers.append(powers[-1] @ sweep)
    cols = []
    for s in sigmas:
        bs = blocks[:, :, s]                        # (q, nk)
        for P in powers:
            cols.append((bs @ P.T).reshape(spec.q * nk))
    M = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((spec.q * nk, 0), dtype=blocks.dtype)
    )
    return make_graph(spec.q, nk, M, tol_zero)


def w_graphs(
    spec: ArraySpec, spectrum: Spectrum, tol_zero: float = DEFAULT_TOLERANCES.zero
) -> list[GenGraph]:
    """Per-eigenvalue controllability graphs swept by the restriction."""
    return [
        _power_swept_graph(spec, comp, comp.A_k, list(range(spec.p)), tol_zero)
        for comp in spectrum.components
    ]


@dataclass(frozen=True)
class IndexStep:
    """One step of the input index recursion (all indices 1-based)."""

    kappa: int
    mu: complex
    index_set: tuple[int, ...]
    removed: tuple[int, ...]
    lineality_dim: int | None      # populated at real eigenvalues only


@dataclass(frozen=True)
class IndexRecursionTrace:
    steps: tuple[IndexStep, ...]


def q_graphs_and_index_sets(
    spec: ArraySpec,
    spectrum: Spectrum,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[list[GenGraph], IndexRecursionTrace]:
    """Nilpotent-swept graphs over the shrinking input index sets.

    Starting from all inputs, each real eigenvalue discards the inputs
    whose swept columns leave the lineality space of the current graph
    cone; non-real eigenvalues discard nothing.  The graphs returned are
    restricted to the index set active at their eigenvalue.
    """
    graphs: list[GenGraph] = []
    steps: list[IndexStep] = []
    active = list(range(spec.p))
    for kappa, comp in enumerate(spectrum.components):
        G = _power_swept_graph(spec, comp, comp.Lambda, active, tolerances.zero)
        graphs.append(G)
        if comp.is_real:
            lin = lineality_space(G, tolerances.cone, tolerances.rank)
            removed = []
            nk = comp.alg_mult
            for pos, s in enumerate(active):
                cols = G.M[:, pos * nk : (pos + 1) * nk]
                inside = all(
                    subspace_contains(lin.columns, cols[:, r], tolerances.rank)
                    for r in range(nk)
                )
                if not inside:
                    removed.append(s)
            steps.append(
                IndexStep(
                    kappa=kappa + 1,
                    mu=comp.mu,
                    index_set=tuple(s + 1 for s in active),
                    removed=tuple(s + 1 for s in removed),
                    lineality_dim=lin.dim,
                )
            )
            active = [s for s in active if s not in removed]
        else:
            steps.append(
                IndexStep(
                    kappa=kappa + 1,
                    mu=comp.mu,
                    index_set=tuple(s + 1 for s in active),
                    removed=(),
                    lineality_dim=None,
                )
            )
    return graphs, IndexRecursionTrace(steps=tuple(steps))


# ---------------------------------------------------------------------------
# assumption checks


@dataclass(frozen=True)
class EigenOverlapCheck:
    """Nilpotency at non-real eigenvalues whose real part is itself an eigenvalue."""

    holds: bool
    violated_at: tuple[int, ...] = ()   # 1-based component indices


def check_assumption_eigen(
    spectrum: Spectrum,
    tol_eig: float = DEFAULT_TOLERANCES.eig,
    tol_res: float | None = None,
) -> EigenOverlapCheck:
    """Every non-real eigenvalue overlapping a real one must have zero nilpotent part."""
    reals = [c.mu.real for c in spectrum.components if c.is_real]
    violated = []
    for kappa, comp in enumerate(spectrum.components):
        if comp.is_real:
            continue
        if not any(abs(comp.mu.real - r) <= tol_eig * (1.0 + abs(r)) for r in reals):
            continue
        scale = tol_res if tol_res is not None else 1e-8 * (1.0 + float(np.abs(comp.A_k).max()))
        if float(np.linalg.norm(comp.Lambda)) > scale:
            violated.append(kappa + 1)
    return EigenOverlapCheck(holds=not violated, violated_at=tuple(violated))


def _shift_chain_terminal(A: np.ndarray, tol: float) -> int | None:
    """Terminal state index (0-based) when A is a permuted single shift chain.

    The chain pattern is a 0/1 matrix whose ones form one directed path
    covering every state; the terminal is the state with no outgoing one.
    Returns None when A does not match.
    """
    n = A.shape[0]
    R = np.rint(A)
    if float(np.abs(A - R).max(initial=0.0)) > tol:
        return None
    if not np.all((R == 0.0) | (R == 1.0)):
        return None
    if np.any(np.diag(R) != 0.0):
        return None
    rows, cols = np.nonzero(R)
    if rows.size != n - 1:
        return None
    if n == 1:
        return 0
    succ = {}
    indeg = np.zeros(n, dtype=int)
    for i, j in zip(rows, cols):
        if i in succ:
            return None
        succ[i] = j
        indeg[j] += 1
    if np.any(indeg > 1):
        return None
    sources = [i for i in range(n) if indeg[i] == 0 and i in succ]
    if len(sources) != 1:
        return None
    node, seen = sources[0], 1
    while node in succ:
        node = succ[node]
        seen += 1
        if seen > n:
            return None
    return node if seen == n else None


def check_assumption_closed_structural(
    spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero
) -> bool:
    """Detect the integrator-chain pattern that guarantees a closed reach set.

    True when A is permutation-similar to a single shift chain and every
    input drives only the terminal state of that chain with +/-1 weights
    forming a unit incidence matrix.  False means unverified, not false.
    """
    terminal = _shift_chain_terminal(spec.A, tol_zero)
    if terminal is None:
        return False
    R = np.rint(spec.B)
    if float(np.abs(spec.B - R).max(initial=0.0)) > tol_zero:
        return False
    mask = np.ones(spec.n, dtype=bool)
    mask[terminal] = False
    if np.any(R[:, :, mask] != 0.0):
        return False
    G = R[:, :, terminal]                          # (q, p)
    for s in range(spec.p):
        col = G[:, s]
        if not (
            np.sum(col == 1.0) == 1
            and np.sum(col == -1.0) == 1
            and np.sum(col == 0.0) == spec.q - 2
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class EigGraphVerdict:
    """Connectivity flags of one eigenvalue-indexed graph.

    Strong flags are populated only at real eigenvalues; the pairwise
    dictionaries are keyed by the requested 1-based vertex pairs.
    """

    kappa: int
    mu: complex
    graph_kind: str                # "V" | "W" | "Q"
    connected: bool | None = None
    strongly_connected: bool | None = None
    kl_connected: dict[tuple[int, int], bool] | None = None
    strongly_kl_connected: dict[tuple[int, int], bool] | None = None
    marginal: bool = False


@dataclass(frozen=True)
class PositivePairVerdict:
    yes: bool
    conditional: bool


@dataclass(frozen=True)
class WMatrixVerdict:
    connected: bool
    kl_connected: dict[tuple[int, int], bool]


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the front end renders, in one immutable bundle."""

    name: str
    n: int
    q: int
    p: int
    tolerances: Tolerances
    validation: ValidationReport
    spectrum: Spectrum
    graph_verdicts: tuple[EigGraphVerdict, ...]
    w_matrix: WMatrixVerdict
    index_trace: IndexRecursionTrace
    controllable: bool
    positively_controllable: bool
    pairwise: dict[tuple[int, int], bool]
    positive_pairwise: dict[tuple[int, int], PositivePairVerdict]
    assumption_eigen: EigenOverlapCheck
    assumption_closed: bool
    caveats: tuple[str, ...] = field(default_factory=tuple)


def _normalize_pairs(spec: ArraySpec, pairs) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for k, l in pairs:
        k, l = int(k), int(l)
        if not (1 <= k <= spec.q and 1 <= l <= spec.q) or k == l:
            raise DimensionError(
                f"pair ({k},{l}) invalid for q={spec.q} (1-based, distinct)"
            )
        if (k, l) not in out:
            out.append((k, l))
    return out


def _dedup_enumerate(spectrum: Spectrum):
    """Yield (kappa, component, source) where source is the conjugate index
    whose verdicts can be copied, or None when fresh work is needed."""
    for kappa, comp in enumerate(spectrum.components):
        if not comp.is_real and comp.mu.imag < 0:
            yield kappa, comp, spectrum.conjugate_partner(kappa)
        else:
            yield kappa, comp, None


def _copied(verdict: EigGraphVerdict, kappa: int, mu: complex) -> EigGraphVerdict:
    return EigGraphVerdict(
        kappa=kappa + 1,
        mu=mu,
        graph_kind=verdict.graph_kind,
        connected=verdict.connected,
        strongly_connected=verdict.strongly_connected,
        kl_connected=None if verdict.kl_connected is None else dict(verdict.kl_connected),
        strongly_kl_connected=(
            None
            if verdict.strongly_kl_connected is None
            else dict(verdict.strongly_kl_connected)
        ),
        marginal=verdict.marginal,
    )


def _v_verdicts(
    spec, spectrum, graphs, pairs, tol, with_strong=False
) -> list[EigGraphVerdict]:
    verdicts: list[EigGraphVerdict] = []
    for kappa, comp, source in _dedup_enumerate(spectrum):
        if source is not None:
            verdicts.append(_copied(verdicts[source], kappa, comp.mu))
            continue
        G = graphs[kappa]
        row = EigGraphVerdict(kappa=kappa + 1, mu=comp.mu, graph_kind="V")
        row.connected = is_connected(G, tol.rank)
        if comp.is_real and with_strong:
            D = np.kron(disagreement_basis(spec.q), np.eye(G.blocksize))
            ok, marginal = cone_contains_subspace(G, D, tol.cone)
            row.strongly_connected = ok
            row.marginal = marginal
        row.kl_connected = {
            pair: is_kl_connected(G, pair[0], pair[1], tol.rank) for pair in pairs
        }
        verdicts.append(row)
    return verdicts


def _w_verdicts(spectrum, graphs, pairs, tol) -> list[EigGraphVerdict]:
    verdicts: list[EigGraphVerdict] = []
    for kappa, comp, source in _dedup_enumerate(spectrum):
        if source is not None:
            verdicts.append(_copied(verdicts[source], kappa, comp.mu))
            continue
        G = graphs[kappa]
        row = EigGraphVerdict(kappa=kappa + 1, mu=comp.mu, graph_kind="W")
        row.kl_connected = {
            pair: is_kl_connected(G, pair[0], pair[1], tol.rank) for pair in pairs
        }
        verdicts.append(row)
    return verdicts


def _q_verdicts(spectrum, graphs, pairs, tol) -> list[EigGraphVerdict]:
    verdicts: list[EigGraphVerdict] = []
    for kappa, comp, source in _dedup_enumerate(spectrum):
        if source is not None:
            verdicts.append(_copied(verdicts[source], kappa, comp.mu))
            continue
        G = graphs[kappa]
        row = EigGraphVerdict(kappa=kappa + 1, mu=comp.mu, graph_kind="Q")
        if comp.is_real:
            strong = {}
            marginal = False
            for pair in pairs:
                T = np.kron(
                    pair_difference(G.q, pair[0], pair[1])[:, None], np.eye(G.blocksize)
                )
                ok, marg = cone_contains_subspace(G, T, tol.cone)
                strong[pair] = ok
                marginal |= marg
            row.strongly_kl_connected = strong
            row.marginal = marginal
        else:
            row.kl_connected = {
                pair: is_kl_connected(G, pair[0], pair[1], tol.rank) for pair in pairs
            }
        verdicts.append(row)
    return verdicts


def _prepare(spec, tolerances, spectrum=None):
    tol = tolerances or DEFAULT_TOLERANCES
    require_valid(spec, tol.zero)
    spectrum = spectrum or distinct_eigenvalues(
        spec.A, tol_eig=default_eig_tol(spec.A, tol.eig)
    )
    return tol, spectrum


def _v_pass(spec, spectrum, tol, with_strong) -> tuple[bool, list[EigGraphVerdict]]:
    """V-graph verdicts and controllability, cross-checked against the matrix."""
    graphs = v_graphs(spec, spectrum, tol.zero)
    verdicts = _v_verdicts(spec, spectrum, graphs, [], tol, with_strong)
    by_graphs = all(v.connected for v in verdicts)
    by_matrix = is_connected(controllability_matrix(spec, tol.zero), tol.rank)
    if by_graphs != by_matrix:
        raise InternalConsistencyError(
            "per-eigenvalue connectivity and controllability-matrix connectivity disagree"
        )
    return by_graphs, verdicts


def is_controllable(
    spec: ArraySpec,
    tolerances: Tolerances | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[bool, list[EigGraphVerdict]]:
    """Array controllability: every eigenvector graph connected.

    Also evaluates connectivity of the whole controllability matrix; the
    two characterizations are provably equivalent, so disagreement raises
    InternalConsistencyError instead of returning either answer.
    """
    tol, spectrum = _prepare(spec, tolerances, spectrum)
    return _v_pass(spec, spectrum, tol, with_strong=False)


def is_positively_controllable(
    spec: ArraySpec,
    tolerances: Tolerances | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[bool, list[EigGraphVerdict]]:
    """Controllable and strongly connected at every real eigenvalue."""
    tol, spectrum = _prepare(spec, tolerances, spectrum)
    controllable, verdicts = _v_pass(spec, spectrum, tol, with_strong=True)
    ok = controllable and all(
        row.strongly_connected
        for row, comp in zip(verdicts, spectrum.components)
        if comp.is_real
    )
    return ok, verdicts


def is_pairwise_controllable(
    spec: ArraySpec,
    k: int,
    l: int,
    tolerances: Tolerances | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[bool, list[EigGraphVerdict]]:
    """Pairwise controllability of (k, l): every swept graph (k,l)-connected.

    Cross-checked against the direct controllability-matrix range test;
    disagreement raises InternalConsistencyError.
    """
    tol, spectrum = _prepare(spec, tolerances, spectrum)
    pairs = _normalize_pairs(spec, [(k, l)])
    graphs = w_graphs(spec, spectrum, tol.zero)
    verdicts = _w_verdicts(spectrum, graphs, pairs, tol)
    by_graphs = all(v.kl_connected[pairs[0]] for v in verdicts)
    W = controllability_matrix(spec, tol.zero)
    by_matrix = is_kl_connected(W, k, l, tol.rank)
    if by_graphs != by_matrix:
        raise InternalConsistencyError(
            f"per-eigenvalue and controllability-matrix ({k},{l})-connectivity disagree"
        )
    return by_graphs, verdicts


def is_positive_pairwise_controllable(
    spec: ArraySpec,
    k: int,
    l: int,
    tolerances: Tolerances | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[bool, bool, list[EigGraphVerdict]]:
    """Positive pairwise controllability of (k, l).

    Returns (verdict, conditional, per-eigenvalue rows).  The verdict
    follows the graph conditions alone; conditional is True unless both
    soundness assumptions are settled (eigen overlap holds and the closed
    reach set is structurally verified), in which case the caller must
    present the verdict as provisional.
    """
    tol, spectrum = _prepare(spec, tolerances, spectrum)
    pairs = _normalize_pairs(spec, [(k, l)])
    graphs, _ = q_graphs_and_index_sets(spec, spectrum, tol)
    verdicts = _q_verdicts(spectrum, graphs, pairs, tol)
    yes = True
    for row, comp in zip(verdicts, spectrum.components):
        flag = (
            row.strongly_kl_connected[pairs[0]]
            if comp.is_real
            else row.kl_connected[pairs[0]]
        )
        yes = yes and flag
    eigen = check_assumption_eigen(spectrum, tol.eig)
    closed = check_assumption_closed_structural(spec, tol.zero)
    conditional = not (eigen.holds and closed)
    return yes, conditional, verdicts


BASIS_CAVEAT = (
    "graph edge weights depend on the computed eigenbasis; all verdicts are "
    "basis-invariant"
)
CLOSURE_CAVEAT = (
    "closed-reach assumption not structurally verified: positive pairwise "
    "verdicts are conditional"
)
EIGEN_CAVEAT = (
    "eigen-overlap assumption violated: positive pairwise verdicts are conditional"
)
MARGINAL_CAVEAT = (
    "some cone membership residual fell within a decade of the threshold; "
    "marginal rows are flagged"
)


def analyze(
    spec: ArraySpec,
    pairs=(),
    tolerances: Tolerances | None = None,
) -> AnalysisReport:
    """Run validation, spectral analysis and all four verdicts.

    Pairwise and positive pairwise verdicts are computed for the requested
    1-based vertex pairs only.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    validation = validate_array(spec, tol.zero)
    if not validation.ok:
        require_valid(spec, tol.zero)   # raises with a summary message
    spectrum = distinct_eigenvalues(spec.A, tol_eig=default_eig_tol(spec.A, tol.eig))
    pairlist = _normalize_pairs(spec, pairs)

    vgs = v_graphs(spec, spectrum, tol.zero)
    v_rows = _v_verdicts(spec, spectrum, vgs, pairlist, tol, with_strong=True)

    W = controllability_matrix(spec, tol.zero)
    w_matrix = WMatrixVerdict(
        connected=is_connected(W, tol.rank),
        kl_connected={
            pair: is_kl_connected(W, pair[0], pair[1], tol.rank) for pair in pairlist
        },
    )

    controllable = all(row.connected for row in v_rows)
    if controllable != w_matrix.connected:
        raise InternalConsistencyError(
            "per-eigenvalue connectivity and controllability-matrix connectivity disagree"
        )
    positively = controllable and all(
        row.strongly_connected
        for row, comp in zip(v_rows, spectrum.components)
        if comp.is_real
    )

    wgs = w_graphs(spec, spectrum, tol.zero)
    w_rows = _w_verdicts(spectrum, wgs, pairlist, tol)
    pairwise = {}
    for pair in pairlist:
        by_graphs = all(row.kl_connected[pair] for row in w_rows)
        if by_graphs != w_matrix.kl_connected[pair]:
            raise InternalConsistencyError(
                f"per-eigenvalue and controllability-matrix {pair}-connectivity disagree"
            )
        pairwise[pair] = by_graphs

    qgs, trace = q_graphs_and_index_sets(spec, spectrum, tol)
    q_rows = _q_verdicts(spectrum, qgs, pairlist, tol)
    eigen = check_assumption_eigen(spectrum, tol.eig)
    closed = check_assumption_closed_structural(spec, tol.zero)
    conditional = not (eigen.holds and closed)
    positive_pairwise = {}
    for pair in pairlist:
        yes = True
        for row, comp in zip(q_rows, spectrum.components):
            flag = (
                row.strongly_kl_connected[pair]
                if comp.is_real
                else row.kl_connected[pair]
            )
            yes = yes and flag
        positive_pairwise[pair] = PositivePairVerdict(yes=yes, conditional=conditional)

    caveats = [BASIS_CAVEAT]
    if not eigen.holds:
        caveats.append(EIGEN_CAVEAT)
    if pairlist and not closed:
        caveats.append(CLOSURE_CAVEAT)
    if any(row.marginal for row in v_rows + w_rows + q_rows):
        caveats.append(MARGINAL_CAVEAT)

    return AnalysisReport(
        name=spec.name,
        n=spec.n,
        q=spec.q,
        p=spec.p,
        tolerances=tol,
        validation=validation,
        spectrum=spectrum,
        graph_verdicts=tuple(v_rows + w_rows + q_rows),
        w_matrix=w_matrix,
        index_trace=trace,
        controllable=controllable,
        positively_controllable=positively,
        pairwise=pairwise,
        positive_pairwise=positive_pairwise,
        assumption_eigen=eigen,
        assumption_closed=closed,
        caveats=tuple(caveats),
    )
