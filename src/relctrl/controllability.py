"""The four controllability analyses of a relatively actuated array.

Each analysis reduces to connectivity of eigenvalue-indexed generalized
graphs, all cut from one swept graph per eigenvalue (``w_graphs``):

    W-graph   the swept graph; pairwise connectivity of all of them
              decides pairwise controllability.
    V-graph   eigenvector components of the inputs (the swept graph at a
              simple eigenvalue); connectivity of all of them decides
              controllability, strong connectivity at real eigenvalues
              adds one-way (nonnegative input) controllability.
    Q-graph   the swept graph's columns for a shrinking input index set;
              strong pairwise connectivity at real eigenvalues (plain at
              non-real ones) decides positive pairwise controllability,
              under two assumptions that are checked and reported.

``analyze`` is the one pipeline: it validates the array, computes the
spectrum, builds each graph once and reads all four verdicts off them;
``analyze_with_graphs`` also hands back the graphs, for drawing.  Every
power stack comes from ``numutil.krylov``, which the oracles also use;
they share such kernels, never a step of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .array_model import ArraySpec, require_valid
from .config import DEFAULT_TOLERANCES, Tolerances
from .gengraph import (
    GenGraph,
    blocks_in_range,
    column_graph,
    cone_contains_subspace,
    is_connected,
    kl_connected_indices,
    lineality_dim,
    lineality_generators,
    make_graph,
)
from .numutil import krylov, pair_indices
from .spectral import Spectrum, distinct_eigenvalues


# ---------------------------------------------------------------------------
# graph construction


def controllability_matrix(spec: ArraySpec, tol: Tolerances = DEFAULT_TOLERANCES) -> GenGraph:
    """Stacked controllability matrix [B, AB, ..., A^(n-1) B] as a graph under tol.

    The stacked dynamics are I_q ⊗ A, so each power is applied to the
    (q, p, n) input blocks directly.  They satisfy the degree-n
    characteristic polynomial of the node matrix, so n powers already
    span the controllable subspace.  ``analyze`` does not call it; the
    Kalman test lives in ``relctrl.oracles``.
    """
    # (power, q, p, n) -> rows (system, state), columns (power, input)
    W = krylov(spec.A, spec.B, spec.n).transpose(1, 3, 0, 2).reshape(spec.q * spec.n, -1)
    return make_graph(spec.q, spec.n, W, tol)


def _component_blocks(spec: ArraySpec, basis: np.ndarray) -> np.ndarray:
    # (q, d, p) array of per-system input components basis* B[i, s].
    return np.einsum("dn,qpn->qdp", basis.conj().T, spec.B)


def w_graphs(
    spec: ArraySpec, spectrum: Spectrum, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[GenGraph]:
    """One swept graph per distinct eigenvalue: columns (I_q ⊗ Lambda^r) U* b_s.

    Input-major, r < alg_mult, each graph under tol.  As
    A_k = Lambda + conj(mu) I, a sweep by A_k spans the same Krylov
    subspaces, and the W rows ask range questions only.
    """
    graphs = []
    for comp in spectrum.components:
        nk = comp.alg_mult
        X = _component_blocks(spec, comp.U).transpose(0, 2, 1)
        # Entry (system i, row a), column (input s, power r): (Lambda^r U* b_s,i)_a.
        M = krylov(comp.Lambda, X, nk).transpose(1, 3, 2, 0)
        graphs.append(make_graph(spec.q, nk, M.reshape(spec.q * nk, -1), tol))
    return graphs


def v_graphs(spec: ArraySpec, spectrum: Spectrum, swept: list[GenGraph]) -> list[GenGraph]:
    """One eigenvector-component graph per distinct eigenvalue, under swept's tolerances.

    At a simple eigenvalue U is V and there is one power: the graph is the swept one.
    """
    graphs = []
    for comp, G in zip(spectrum.components, swept):
        if comp.alg_mult > 1:
            M = _component_blocks(spec, comp.V).reshape(spec.q * comp.geo_mult, spec.p)
            G = make_graph(spec.q, comp.geo_mult, M, G.tol)
        graphs.append(G)
    return graphs


@dataclass(frozen=True)
class IndexStep:
    """One step of the input index recursion (all indices 1-based)."""

    kappa: int
    mu: complex
    index_set: tuple[int, ...]
    removed: tuple[int, ...]
    lineality_dim: int | None      # populated at real eigenvalues only


def q_graphs_and_index_sets(
    swept: list[GenGraph], spectrum: Spectrum
) -> tuple[list[GenGraph], tuple[IndexStep, ...]]:
    """The swept graphs over the shrinking input index sets.

    Starting from all inputs, each real eigenvalue discards the inputs
    whose swept columns leave the lineality space of the current graph
    cone; non-real eigenvalues discard nothing.  An input stays when its
    block of swept columns lies in the range of the cone's lineality
    generators, by the rule of ``blocks_in_range``.  Each graph is the
    swept graph's columns for the inputs active at its eigenvalue, under
    its tolerances.
    """
    graphs: list[GenGraph] = []
    steps: list[IndexStep] = []
    active = list(range(swept[0].n_columns // spectrum.components[0].alg_mult))
    for kappa, (comp, W) in enumerate(zip(spectrum.components, swept)):
        nk = comp.alg_mult
        G = column_graph(W, [s * nk + r for s in active for r in range(nk)])
        graphs.append(G)
        removed, dim = [], None
        if comp.is_real:
            # In exact arithmetic a column lies in the lineality space
            # exactly when it is a generator.  The range rule also keeps
            # zero columns, which the peel never lists, and columns within
            # tol.rank of the space that tol.cone rejects.
            kept = blocks_in_range(lineality_generators(G).graph, G.M, nk)
            removed = [s for s, ok in zip(active, kept) if not ok]
            dim = lineality_dim(G)
        steps.append(
            IndexStep(
                kappa=kappa + 1,
                mu=comp.mu,
                index_set=tuple(s + 1 for s in active),
                removed=tuple(s + 1 for s in removed),
                lineality_dim=dim,
            )
        )
        active = [s for s in active if s not in removed]
    return graphs, tuple(steps)


# ---------------------------------------------------------------------------
# assumption checks


@dataclass(frozen=True)
class EigenOverlapCheck:
    """Nilpotency at non-real eigenvalues whose real part is itself an eigenvalue."""

    holds: bool
    violated_at: tuple[int, ...] = ()   # 1-based component indices


def check_assumption_eigen(spectrum: Spectrum) -> EigenOverlapCheck:
    """Every non-real eigenvalue overlapping a real one must carry no Jordan chain.

    Both are the spectrum's own decisions: a real part within spectrum.tol
    of a real eigenvalue's overlaps, and geo_mult < alg_mult is a chain.
    """
    reals = np.array([c.mu.real for c in spectrum.components if c.is_real])
    violated = tuple(
        kappa + 1
        for kappa, c in enumerate(spectrum.components)
        if not c.is_real and c.geo_mult < c.alg_mult
        and np.any(np.abs(reals - c.mu.real) <= spectrum.tol)
    )
    return EigenOverlapCheck(holds=not violated, violated_at=violated)


def check_assumption_closed_structural(
    spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero
) -> bool:
    """Detect the integrator-chain pattern that guarantees a closed reach set.

    True when A rounds (within tol_zero) to a 0/1 matrix R with zero
    diagonal and exactly n - 1 ones, at most one per row and per column,
    with R^n = 0, which makes R a permuted single shift chain; and every
    input drives only the chain's terminal state, R's zero row, with one
    +1 and one -1.  False means unverified, not false.
    """
    n = spec.n
    R = np.rint(spec.A)
    Bi = np.rint(spec.B)
    if (
        float(np.abs(spec.A - R).max(initial=0.0)) > tol_zero
        or float(np.abs(spec.B - Bi).max(initial=0.0)) > tol_zero
        or not np.all((R == 0.0) | (R == 1.0))
        or np.any(np.diag(R))
        or R.sum() != n - 1
        or R.sum(axis=0).max() > 1
        or R.sum(axis=1).max() > 1
        or np.any(np.linalg.matrix_power(R, n))
    ):
        return False
    terminal = ~R.any(axis=1)                      # exactly one zero row
    G = Bi[:, :, terminal][:, :, 0]                # (q, p)
    return bool(
        not np.any(Bi[:, :, ~terminal])
        and np.all((G == 1.0).sum(axis=0) == 1)
        and np.all((G == -1.0).sum(axis=0) == 1)
        and np.all((G == 0.0).sum(axis=0) == spec.q - 2)
    )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the front end renders, in one immutable bundle."""

    name: str
    n: int
    q: int
    p: int
    tolerances: Tolerances
    spectrum: Spectrum
    graph_verdicts: tuple[EigGraphVerdict, ...]
    index_trace: tuple[IndexStep, ...]
    controllable: bool
    positively_controllable: bool
    pairwise: dict[tuple[int, int], bool]
    positive_pairwise: dict[tuple[int, int], PositivePairVerdict]
    assumption_eigen: EigenOverlapCheck
    assumption_closed: bool
    caveats: tuple[str, ...] = field(default_factory=tuple)

    def rows(self, kind: str) -> list[EigGraphVerdict]:
        """The per-eigenvalue verdict rows of one graph kind ("V", "W" or "Q")."""
        return [row for row in self.graph_verdicts if row.graph_kind == kind]


def _rows(kind: str, spectrum: Spectrum, graphs: list[GenGraph], fill) -> list[EigGraphVerdict]:
    """One verdict row per eigenvalue, its flags given by ``fill(G, comp)``.

    The graph at a conjugate eigenvalue has the conjugate columns and so
    the same connectivity; its row copies the partner's row, the one just
    before it, instead of filling in again.
    """
    rows: list[EigGraphVerdict] = []
    for kappa, (comp, G) in enumerate(zip(spectrum.components, graphs)):
        if not comp.is_real and comp.mu.imag < 0:
            rows.append(replace(rows[-1], kappa=kappa + 1, mu=comp.mu))
        else:
            rows.append(EigGraphVerdict(kappa + 1, comp.mu, kind, **fill(G, comp)))
    return rows


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
    1-based vertex pairs only.  The verdicts are computed on the spec that
    ``require_valid`` returns, whose inputs are projected onto the
    zero-sum subspace, so a column-sum error the validator accepts does
    not reach them.
    """
    return analyze_with_graphs(spec, pairs, tolerances)[0]


def analyze_with_graphs(
    spec: ArraySpec,
    pairs=(),
    tolerances: Tolerances | None = None,
) -> tuple[AnalysisReport, dict[str, list[GenGraph]]]:
    """``analyze``, also returning the graphs the verdicts were read from.

    The graphs are keyed by kind ("V", "W", "Q"), one per eigenvalue.
    They are not kept on the report, so that holding many reports does
    not hold their graphs too; ``relctrl analyze --dot`` draws them.
    """
    tol = tolerances or DEFAULT_TOLERANCES
    spec = require_valid(spec, tol.zero)
    spectrum = distinct_eigenvalues(spec.A, tol.eig)
    pairlist = list(dict.fromkeys((int(k), int(l)) for k, l in pairs))
    k, l = pair_indices(spec.q, pairlist)

    def kl_flags(G):
        return dict(zip(pairlist, kl_connected_indices(G, k, l)))

    def v_fill(G, comp):
        flags = {"connected": is_connected(G), "kl_connected": kl_flags(G)}
        if comp.is_real:
            ok, marginal = cone_contains_subspace(G)
            flags.update(strongly_connected=ok, marginal=marginal)
        return flags

    def q_fill(G, comp):
        if not comp.is_real:
            return {"kl_connected": kl_flags(G)}
        # The rule of cone_contains_subspace, for every pair at once.
        lin = lineality_generators(G)
        strong = kl_flags(lin.graph)
        return {
            "strongly_kl_connected": strong,
            "marginal": lin.marginal and not all(strong.values()),
        }

    wgs = w_graphs(spec, spectrum, tol)
    vgs = v_graphs(spec, spectrum, wgs)
    v_rows = _rows("V", spectrum, vgs, v_fill)
    w_rows = _rows("W", spectrum, wgs, lambda G, comp: {"kl_connected": kl_flags(G)})

    controllable = all(row.connected for row in v_rows)
    pairwise = {pair: all(row.kl_connected[pair] for row in w_rows) for pair in pairlist}
    positively = controllable and all(
        row.strongly_connected
        for row, comp in zip(v_rows, spectrum.components)
        if comp.is_real
    )

    qgs, trace = q_graphs_and_index_sets(wgs, spectrum)
    q_rows = _rows("Q", spectrum, qgs, q_fill)
    eigen = check_assumption_eigen(spectrum)
    closed = check_assumption_closed_structural(spec, tol.zero)
    conditional = not (eigen.holds and closed)
    positive_pairwise = {
        pair: PositivePairVerdict(
            yes=all(
                row.strongly_kl_connected[pair] if comp.is_real else row.kl_connected[pair]
                for row, comp in zip(q_rows, spectrum.components)
            ),
            conditional=conditional,
        )
        for pair in pairlist
    }

    caveats = [BASIS_CAVEAT]
    if not eigen.holds:
        caveats.append(EIGEN_CAVEAT)
    if pairlist and not closed:
        caveats.append(CLOSURE_CAVEAT)
    if any(row.marginal for row in v_rows + w_rows + q_rows):
        caveats.append(MARGINAL_CAVEAT)

    report = AnalysisReport(
        name=spec.name,
        n=spec.n,
        q=spec.q,
        p=spec.p,
        tolerances=tol,
        spectrum=spectrum,
        graph_verdicts=tuple(v_rows + w_rows + q_rows),
        index_trace=trace,
        controllable=controllable,
        positively_controllable=positively,
        pairwise=pairwise,
        positive_pairwise=positive_pairwise,
        assumption_eigen=eigen,
        assumption_closed=closed,
        caveats=tuple(caveats),
    )
    return report, {"V": vgs, "W": wgs, "Q": qgs}

