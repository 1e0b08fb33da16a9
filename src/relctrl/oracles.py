"""Independent brute-force checks for the graph-based verdicts.

Every analysis in this package has a second route that does not go
through the eigenvalue-indexed graphs:

    kalman_reduced    rank of the reduced controllability matrix
    brammer_positive  reduced-coordinate eigenvector cone test
    pairwise_range    projection onto the complement of the stacked
                      controllability matrix's range
    path_oracle       breadth-first search over literal graph edges
    polar_falsifier   one nonnegative least-squares program per target,
                      whose residual is a separating functional
    reach_simulator   the same programs' residuals, read as distances
                      to the sampled reach cone

``cross_check`` is the one pipeline that runs them: it takes a spec and
the report ``analyze`` made of it and returns one ``OracleVerdict`` per
oracle that applies, so that ``relctrl oracle`` and the agreement study
read the same list.  It takes the report as an argument, so this module
does not import the analysis.

The first four decide their question exactly (at desk scale); the last
two only gather evidence.  Every matrix here is built from the (q, p, n)
input blocks, applying A blockwise; no I_q ⊗ A is formed.  The rank
oracles read one factorization: ``_krylov_complement`` builds the
reduced Krylov matrix and factors it by one SVD, which answers the
Kalman test, the rank half of the Brammer test and every pair's range
test.  The analysis forms no controllability matrix: its verdicts come
from the eigenvalue graphs alone, and an oracle must not share the step
it checks.  The oracles share the kernels of ``relctrl.numutil``
(``krylov``, ``range_complement``, ``pairs_within``), as they share the
certified cone-program loop of ``relctrl.gengraph`` (``nnls`` and its
kernel ``_lawson_hanson``), but no graph builder, predicate or stage of
the analysis.

The two evidence tools ask one question: how far is each target
+/-(e_k - e_l) ⊗ e_i from the cone of input responses e^{A t} b_s
sampled on the grid ``default_polar_grid``?  One ``ResponseStack`` per
array holds the responses and solves each target's nonnegative
least-squares program once, each starting its working set from the
columns the stack's earlier answers used.  By the Moreau decomposition
the residual of a projection is the separating functional with the
largest component along its target.  A candidate is a witness only if
every input's response to it stays within the slack on the whole
horizon [0, T], not only at the grid's times: a validated witness
refutes positive pairwise controllability on that finite horizon, and
its absence proves nothing.  The reach simulator reads the same
residuals as distances to the sampled reach cone: they support a
positive verdict but cannot overturn one.

One approximant serves both, the Taylor polynomial S(r) of degree 18 of
e^{r h A}, h = 1 / ||A||_1 (Al-Mohy and Higham 2011): ``_exponentials``
forms e^{A t}, t = k h + r h, as the anchor e^{A k h} = S(+/-1)^|k|,
a power of one Taylor step, times S(r), the same to the bit at any batch
size; on each anchor interval a response is one polynomial in r, which
the witness check ``_stays_nonpositive`` bounds by its Bernstein
coefficients (Farouki and Rajan 1987).  The stack keeps its anchors for
every candidate and pair of one array.  ``cross_check`` validates the
spec once, hands the one stack to both tools and factors the reduced
Krylov matrix once, on reduced blocks that the Brammer cone test reuses.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .array_model import ArraySpec, _reduced, build_big, require_valid
from .config import DECADE, DEFAULT_TOLERANCES, WITNESS_GAIN, Tolerances
from .errors import GraphDomainError
from .gengraph import _lawson_hanson, _unit_columns, nnls
from .numutil import krylov, pair_difference, pair_indices, pairs_within, range_complement
from .spectral import distinct_eigenvalues

@dataclass(frozen=True, eq=False)
class OracleVerdict:
    name: str
    agrees: bool | None      # None when the oracle is inconclusive
    detail: str
    witness: np.ndarray | None = None


def _krylov_complement(A: np.ndarray, Bred: np.ndarray, tol_rank: float) -> tuple:
    """(N*, bound): ``range_complement`` of the reduced Krylov matrix.

    The matrix [X, (I ⊗ A) X, ..., (I ⊗ A)^(n-1) X] of the reduced input
    blocks X = D* B has rows (block, state) and columns (power, input);
    A acts on the blocks.  The array is controllable when N is empty.
    """
    r, p, n = Bred.shape
    K = krylov(A, Bred, n).transpose(1, 3, 0, 2).reshape(r * n, n * p)
    return range_complement(K, tol_rank)


def _pairs_in_range(complement: tuple, D: np.ndarray, pairs, n: int) -> list[bool]:
    """Which 1-based pairs (k, l) have (e_k - e_l) ⊗ I_n in the Krylov range.

    The target is D*(e_k - e_l) ⊗ I_n in reduced coordinates, so the
    reduced complement N* is mapped back to the q system blocks,
    N* (D* ⊗ I_n), and read by the pair test ``pairs_within``.
    """
    Nh, bound = complement
    k, l = pair_indices(D.shape[0], pairs)
    blocks = np.einsum("acm,jc->ajm", Nh.reshape(-1, D.shape[1], n), D)
    return pairs_within(blocks, k, l, bound)


def kalman_reduced(
    spec: ArraySpec,
    tol_rank: float = DEFAULT_TOLERANCES.rank,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> bool:
    """Controllability via the rank of the reduced controllability matrix.

    The Krylov matrix of the reduced blocks D* B must have full rank
    (q - 1) n: its range complement is empty.
    """
    return _krylov_complement(spec.A, build_big(spec, tol_zero).Bred, tol_rank)[0].shape[0] == 0


def _eigenvector_cones_whole(spec: ArraySpec, Bred: np.ndarray, tolerances: Tolerances) -> bool:
    """The cone half of the Brammer test, on reduced input blocks."""
    spectrum = distinct_eigenvalues(spec.A, tolerances.eig)
    for comp in spectrum.components:
        if not comp.is_real:
            continue
        M = np.einsum("md,rpm->rdp", comp.V.real, Bred).reshape(-1, spec.p)
        dim = M.shape[0]
        for idx in range(dim):
            for sign in (1.0, -1.0):
                target = np.zeros(dim)
                target[idx] = sign
                _, resid = nnls(M, target)
                if not _reached(resid, target, tolerances.cone):
                    return False
    return True


def brammer_positive(spec: ArraySpec, tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Positive controllability via the classical eigenvector cone test.

    On top of plain controllability (the Kalman test), for every real
    eigenvalue the cone of reduced eigenvector components V* (D* B) must
    be the whole space, which is checked by +/- membership of each
    standard basis vector.
    """
    Bred = build_big(spec, tolerances.zero).Bred
    return _krylov_complement(spec.A, Bred, tolerances.rank)[0].shape[0] == 0 and (
        _eigenvector_cones_whole(spec, Bred, tolerances)
    )


def pairwise_range(
    spec: ArraySpec,
    k: int,
    l: int,
    tol_rank: float = DEFAULT_TOLERANCES.rank,
    tol_zero: float = DEFAULT_TOLERANCES.zero,
) -> bool:
    """Pairwise controllability via a direct controllability-matrix range test.

    The stacked W = [B, (I ⊗ A) B, ...] is the reduced Krylov matrix in
    the coordinates D, with the same equilibrated columns and singular
    values, so the target (e_k - e_l) ⊗ I_n is tested on the latter's
    range complement (``_pairs_in_range``).  It is built and factored
    here, not through the analysis' graphs: a check must not share the
    step it checks.
    """
    big = build_big(spec, tol_zero)
    complement = _krylov_complement(spec.A, big.Bred, tol_rank)
    return _pairs_in_range(complement, big.D, [(k, l)], spec.n)[0]


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

    On a unit incidence array the undirected walk answers the question
    that the edge route of ``relctrl.gengraph`` answers by union–find, so
    there it is not an independent check of plain or pairwise
    connectivity; the directed walks still check the cone peel.
    """
    G = np.asarray(G, dtype=float)
    q = G.shape[0]
    arcs = _unit_edges(G)
    undirected = arcs + [(j, i) for i, j in arcs]
    if kind in ("kl", "strong_kl"):
        if k is None or l is None:
            raise GraphDomainError(f"pairwise query {kind!r} needs vertices k and l")
        pair_indices(q, [(k, l)])
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
# input responses


def _pair_targets(d: np.ndarray, n: int) -> list[np.ndarray]:
    """+(d ⊗ e_i) and -(d ⊗ e_i) for i = 1..n, in that order."""
    targets = []
    for b in np.eye(n):
        base = np.outer(d, b).ravel()
        targets += [base, -base]
    return targets


# Matrix entries per batch of the exponential kernel: a batch of
# 2**13 // n^2 times keeps its temporaries (a dozen arrays of that many
# entries) in cache, while small matrices still come in batches large
# enough to amortize numpy's per-call cost.
_BATCH_ENTRIES = 2**13


def _batch(n: int) -> int:
    """Times per batch for n x n matrices: 2048 at n = 2, 128 at n = 8."""
    return max(1, _BATCH_ENTRIES // (n * n))


# The anchor step and the Taylor degree of ``_exponentials``.  Anchors lie
# h = _ANCHOR_NORM / ||A||_1 apart, so that N = h A has 1-norm 1: no power
# N^j can overflow at any ||A||, and for r in [0, 1] the remainder of the
# Taylor polynomial of e^{r N} of degree d is at most sum_{j > d} 1 / j!.
# A longer step would need a higher degree, a shorter one more anchors.
_ANCHOR_NORM = 1.0
# The least degree whose remainder is below the unit roundoff 2**-53 =
# 1.1e-16: sum_{j > 18} 1 / j! = 8.7e-18, while sum_{j > 17} 1 / j! = 1.6e-16.
_TAYLOR_DEGREE = 18
_DEGREES = range(_TAYLOR_DEGREE + 1)
# That remainder; the terms past j = 2 d cannot move its last digit.
_TAYLOR_TAIL = math.fsum(1 / math.factorial(_TAYLOR_DEGREE + j) for j in _DEGREES[1:])
# Columns c of coefficients of sum_j c_j r^j have on [0, 1] the Bernstein
# coefficients _TO_BERNSTEIN @ c, [i, j] = C(i, j) / C(d, j), which bound it
# there, the first and last its values at 0 and 1 (Farouki and Rajan 1987);
# those of its halves are _HALVES[0] @ b and _HALVES[1] @ b (de Casteljau).
_COMB = np.array([[math.comb(i, j) for j in _DEGREES] for i in _DEGREES])
_TO_BERNSTEIN = _COMB / _COMB[-1]
_HALVES = np.array([_COMB / 2 ** np.array(_DEGREES)[:, None]] * 2)
_HALVES[1] = _HALVES[0][::-1, ::-1]
# The witness check halves an undecided interval at most this often: a bound
# above the slack on 1/4096 of an interval is within rounding of it, and a
# refused candidate costs a "?", not a false witness (the corpora needed 8).
_SPLIT_DEPTH = 12


class _Anchors:
    """What ``_exponentials`` shares across calls for one matrix A.

    The step h = _ANCHOR_NORM / ||A||_1 (infinite at A = 0: one interval),
    the terms (h A)^j / j!, and per sign the anchors e^{A k h} = S(sign)^|k|,
    S(x) = sum_j x^j (h A)^j / j!: powers[sign][|k|] where formed[sign][|k|]
    is set, and the squares S(sign)^(2^i) in squares[sign].
    """

    def __init__(self, A: np.ndarray):
        norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
        self.step = _ANCHOR_NORM / norm if norm else np.inf
        self.terms = _taylor_terms(A * self.step if norm else A)
        self.powers = {sign: np.eye(A.shape[0])[None] for sign in (1, -1)}
        self.formed = {sign: np.ones(1, bool) for sign in (1, -1)}
        self.squares: dict = {}

    def at(self, keys: Iterable[float]) -> np.ndarray:
        """The anchors e^{A k h} for the integers k in keys, shape (len(keys), n, n).

        Anchor k is formed once, from anchor k - sign 2^i with 2^i the top
        bit of |k|, so asking for it forms at most log2 |k| anchors more.
        """
        keys = np.asarray(keys).astype(np.int64)
        out = np.empty((keys.size, *self.terms.shape[:-1]))
        for sign in (1, -1):
            chosen = np.flatnonzero(sign * keys >= 0)
            exponents = np.abs(keys[chosen])
            if (grow := int(exponents.max(initial=0)) + 1 - self.formed[sign].size) > 0:
                self.formed[sign] = np.pad(self.formed[sign], (0, grow))
                self.powers[sign] = np.pad(self.powers[sign], ((0, grow), (0, 0), (0, 0)))
            wanted, frontier = np.zeros(self.formed[sign].size, bool), exponents
            while (frontier := np.unique(frontier[~(wanted | self.formed[sign])[frontier]])).size:
                wanted[frontier] = True
                frontier = frontier - (1 << (np.frexp(frontier)[1] - 1))
            if wanted.any():
                _taylor_powers(self, sign * np.flatnonzero(wanted))
            out[chosen] = self.powers[sign][exponents]
        return out


def _taylor_terms(N: np.ndarray) -> np.ndarray:
    """N^j / j! for j = 0, ..., _TAYLOR_DEGREE along the last axis, shape (n, n, degree + 1)."""
    terms = [np.eye(N.shape[0])]
    for j in _DEGREES[1:]:
        terms.append(terms[-1] @ N / j)
    return np.stack(terms, axis=-1)


def _taylor_powers(anchors: _Anchors, keys: np.ndarray) -> None:
    """Form the anchors of keys, of one sign, ascending, and each k - sign 2^i formed or in keys.

    Anchor k is anchor k - sign 2^i, 2^i the top bit of |k|, times the
    square S^(2^i): one product each, and no square past the top bit asked
    for, which could overflow.  Unrolled it is the squares of the bits of
    |k|, lowest first, whichever call forms it: the same to the bit.
    """
    sign, exponents = int(np.sign(keys[0])), np.abs(keys)
    bits = np.frexp(exponents)[1] - 1
    squares = anchors.squares.setdefault(sign, [anchors.terms @ np.power(float(sign), _DEGREES)])
    for bit in range(int(bits.max()) + 1):
        if bit == len(squares):
            squares.append(squares[-1] @ squares[-1])
        group = exponents[bits == bit]
        anchors.powers[sign][group] = anchors.powers[sign][group - (1 << bit)] @ squares[bit]
    anchors.formed[sign][exponents] = True


def _exponentials(A: np.ndarray, times: np.ndarray, anchors: _Anchors | None = None) -> np.ndarray:
    """The stack e^{A t} for every t in times, shape (T, n, n).

    Exponentials at many times of one matrix share their work (Al-Mohy
    and Higham 2011): each time splits as t = k h + r h with k = floor(t
    / h) and r in [0, 1), for the anchor step h = 1 / ||A||_1, and

        e^{A t} = e^{A k h} S(r),   S(r) = sum_{j <= 18} r^j (h A)^j / j!.

    The anchors are powers of that one polynomial, S(+/-1)^|k| (``_Anchors``),
    formed once per caller that keeps them, as a ``ResponseStack`` does.
    Each time's product acts on its own matrices, ``_batch(n)`` times at a
    time, so the stack is bitwise the same at any batch size.  t = 0 and
    A = 0 give exactly the identity.
    """
    A = np.asarray(A, dtype=float)
    times = np.asarray(times, dtype=float)
    n = A.shape[0]
    anchors = _Anchors(A) if anchors is None else anchors
    k = np.floor(times / anchors.step)
    distinct, at = np.unique(k, return_inverse=True)
    formed = anchors.at(distinct)
    out = np.empty((times.size, n, n))
    size = _batch(n)
    for start in range(0, times.size, size):
        r = times[start : start + size] / anchors.step - k[start : start + size]
        powers = np.cumprod(np.column_stack([np.ones_like(r), *[r] * _TAYLOR_DEGREE]), axis=1)
        S = np.einsum("tj,abj->tab", powers, anchors.terms)
        out[start : start + r.size] = formed[at[start : start + size]] @ S
    return out


def _input_responses(
    spec: ArraySpec, times: np.ndarray, anchors: _Anchors | None = None
) -> np.ndarray:
    """Row ``t * p + s`` is the stacked response (I_q ⊗ e^{A t}) b_s.

    One batched n x n exponential per time is applied to the (q, p, n)
    input blocks; no qn x qn operator is formed.  Read as rows the matrix
    is B* exp(A* t) stacked over the times, read as columns it holds the
    state each input moves the array to.
    """
    E = _exponentials(spec.A, times, anchors)
    R = np.einsum("tjm,qpm->tpqj", E, spec.B)
    return R.reshape(times.size * spec.p, spec.q * spec.n)


# ---------------------------------------------------------------------------
# polar falsifier


# The falsifier's horizon and grids (``polar_horizon``): the base horizon
# spans BASE_TIME_CONSTANTS time constants of the fastest real part, a
# beat of two real parts GAP_TIME_CONSTANTS over their gap, and the
# horizon is capped at HORIZON_CAP base horizons.  The grid has
# POINTS_PER_BASE points per base horizon.
BASE_TIME_CONSTANTS = 4
GAP_TIME_CONSTANTS = 8
HORIZON_CAP = 16
POINTS_PER_BASE = 64


def _chebyshev_grid(t_max: float, count: int) -> np.ndarray:
    # Lobatto spacing clusters points at both endpoints, where sign
    # changes of the input response are most likely to hide.
    i = np.arange(count)
    return 0.5 * t_max * (1.0 - np.cos(np.pi * i / (count - 1)))


def _uncapped_horizon(spec: ArraySpec, tolerances: Tolerances) -> tuple[float, float]:
    """(T, base) of ``polar_horizon`` before the cap."""
    evals = np.linalg.eigvals(spec.A)
    base = BASE_TIME_CONSTANTS / max(1.0, float(np.max(np.abs(evals.real))))
    tiny = tolerances.eig * (1.0 + float(np.max(np.abs(evals))))
    omega = np.abs(evals.imag)
    gaps = np.diff(np.sort(evals.real))
    horizon = max(
        [base, *(2.0 * np.pi / omega[omega > tiny]), *(GAP_TIME_CONSTANTS / gaps[gaps > tiny])]
    )
    return float(horizon), base


def polar_horizon(
    spec: ArraySpec, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float]:
    """(T, base): the falsifier's horizon and its base 4 / max(1, remax).

    A functional that stays nonpositive on a short horizon can turn
    positive later, when a slow rotation or the beat of two close real
    modes comes round.  T therefore also covers one period 2 pi / omega_min
    of the slowest rotation and 8 / gap_min for the closest distinct real
    parts, capped at 16 base horizons.  A frequency or gap up to the
    spectrum's clustering tolerance eig (1 + max |lambda|) counts as zero.
    """
    horizon, base = _uncapped_horizon(spec, tolerances)
    return min(horizon, HORIZON_CAP * base), base


def default_polar_grid(spec: ArraySpec, tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Lobatto grid over ``polar_horizon``, 64 points per base horizon."""
    horizon, base = polar_horizon(spec, tolerances)
    return _chebyshev_grid(horizon, int(np.ceil(POINTS_PER_BASE * horizon / base - 1e-9)))


def _stays_nonpositive(stack: ResponseStack, eta: np.ndarray, slack: float) -> bool:
    """Whether every input's response b_s* e^{A* t} eta stays within slack on all of [0, T].

    T is the grid's end.  On the anchor interval [k h, (k + 1) h] the
    response is the polynomial sum_j c[k, j, s] r^j, r in [0, 1], with
    c[k, j, s] = sum_i (E_k* eta_i)* (T_j b_{i,s}), E_k = e^{A k h} and
    T_j = (h A)^j / j!, up to a remainder at most _TAYLOR_TAIL sum_i
    ||E_k* eta_i||_inf ||b_{i,s}||_1; the last interval stops at r = T / h - k,
    and A = 0 is one constant interval.  By its Bernstein coefficients,
    each interval and input passes when all of them plus the remainder
    are at most slack, fails when the first or last, its exact value at
    an end, is above slack, and is halved by de Casteljau otherwise; still
    open after _SPLIT_DEPTH halvings, it fails, as a candidate not shown
    to stay within slack is no witness.  The anchors are the stack's own:
    the check forms those its grid did not reach, once per stack.
    """
    spec, anchors = stack.spec, stack.anchors
    q, p, n = spec.B.shape
    reach = float(stack.grid.max()) / anchors.step
    count = max(1, int(np.ceil(reach)))
    E = anchors.at(np.arange(count))
    # Z[(i, m), k] = (E_k* eta_i)[m] and TB[(j, s), (i, m)] = (T_j b_{i,s})[m].
    Z = (eta.reshape(q, n) @ np.moveaxis(E, 0, -1).reshape(n, -1)).reshape(q * n, count)
    TB = np.einsum("mcj,ipc->jpim", anchors.terms, spec.B).reshape(-1, q * n)
    c = (TB @ Z).reshape(len(_DEGREES), p, count)
    c[..., -1] *= (reach - (count - 1)) ** np.array(_DEGREES)[:, None]
    bernstein = np.tensordot(_TO_BERNSTEIN, c, 1)
    tail = _TAYLOR_TAIL * np.abs(spec.B).sum(axis=-1).T @ np.abs(Z).reshape(q, n, count).max(axis=1)
    for _ in range(_SPLIT_DEPTH + 1):
        if max(bernstein[0].max(initial=-np.inf), bernstein[-1].max(initial=-np.inf)) > slack:
            return False
        undecided = bernstein.max(axis=0) + tail > slack
        if not undecided.any():
            return True
        bernstein = np.concatenate([half @ bernstein[:, undecided] for half in _HALVES], axis=1)
        tail = np.tile(tail[undecided], len(_HALVES))
    return False


@dataclass(eq=False)
class ResponseStack:
    """One array's input-response stacks on one grid, shared by all its pairs.

    P holds the input responses on the grid (``_input_responses``) and
    peak its largest entry in modulus, from which the falsifier scales its
    slack; both depend only on A, B and the grid.  ``projection``
    solves a target's nonnegative least-squares program on P at its
    first call and keeps the answer, so that the falsifier and the reach
    simulator, and the pairs (k,l) and (l,k), which share their targets,
    read one program.  The programs share one working-set state: the
    unit columns of P* are formed at the first program, and ``_used``
    marks every column in the support of an answer given so far.  Each
    later program starts the certified loop of ``gengraph`` from its own
    top columns together with those, so a response that steered one
    target is in the first set of the next; the certificate is still
    checked over every column, and the residuals are those of ``nnls``
    up to rounding.  anchors keeps the anchors and Taylor terms of
    ``_exponentials`` for A, for the witness check ``_stays_nonpositive``.
    """

    spec: ArraySpec
    grid: np.ndarray
    P: np.ndarray
    peak: float
    anchors: _Anchors | None = field(default=None, repr=False)
    _projections: dict = field(default_factory=dict, init=False, repr=False)
    _unit: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _used: np.ndarray | None = field(default=None, init=False, repr=False)

    def projection(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        """(x, ||P* x - target||) of min ||P* x - target|| over x >= 0."""
        key = (target + 0.0).tobytes()   # + 0.0 maps -0.0 to 0.0
        if key not in self._projections:
            if self._unit is None:
                self._unit = _unit_columns(self.P.T)
                self._used = np.zeros(self.P.shape[0], dtype=bool)
            U, scaling = self._unit
            x = _lawson_hanson(U, target, used=self._used) / scaling
            self._used |= x > 0.0
            self._projections[key] = (x, float(np.linalg.norm(target - self.P.T @ x)))
        return self._projections[key]


def _response_stack(
    spec: ArraySpec, grid: np.ndarray | ResponseStack | None, tolerances: Tolerances
) -> ResponseStack:
    """grid itself if it is a stack, else spec's stack on grid or ``default_polar_grid``."""
    if isinstance(grid, ResponseStack):
        return grid
    spec = require_valid(spec, tolerances.zero)
    return _stack_on(spec, default_polar_grid(spec, tolerances) if grid is None else grid)


def _stack_on(spec: ArraySpec, grid: np.ndarray) -> ResponseStack:
    """The stack of a spec that ``require_valid`` returned, on grid."""
    grid = np.asarray(grid, dtype=float)
    anchors = _Anchors(spec.A)
    P = _input_responses(spec, grid, anchors)
    return ResponseStack(spec, grid, P, float(np.abs(P).max(initial=0.0)), anchors)


def _reached(residual: float, target: np.ndarray, tol_cone: float) -> bool:
    """The package's cone rule: a residual at most tol_cone (1 + ||target||)."""
    return residual <= tol_cone * (1.0 + float(np.linalg.norm(target)))


def polar_falsifier(
    spec: ArraySpec,
    k: int,
    l: int,
    grid: np.ndarray | ResponseStack | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray | None:
    """Deterministic separating functional refuting positive (k,l) steering.

    A witness is a unit direction eta along which every input's response
    stays nonpositive over the grid, b_s* exp(A* t) eta <= 0, while its
    component on the (k,l) difference subspace keeps at least
    WITNESS_GAIN; no nonnegative input moves the array along it, so some
    target +/-(e_k - e_l) ⊗ b is out of reach.

    For each target v = +/-(e_k - e_l) ⊗ e_i in turn (at most 2n), one
    nonnegative least-squares program min ||P* x - v|| over x >= 0 runs on
    the response stack P of the grid.  A residual at most
    ``tolerances.cone * (1 + ||v||)``, the package's cone rule, means the
    target is reached.  Otherwise, by the Moreau decomposition the residual
    r = v - P* x lies in the polar cone, P r <= 0, with v* r = ||r||^2:
    r / ||r|| is the unit separating functional with the largest
    v-component.  A candidate must keep P eta within the slack
    DECADE min(tolerances.cone, DEFAULT_TOLERANCES.cone) (1 + max |P|),
    which a looser cone rule does not loosen, have gain ||(e_k - e_l)* eta||
    >= WITNESS_GAIN and stay within the slack on the whole horizon, as the
    interval bounds of ``_stays_nonpositive`` show; the first one that does
    is returned.

    The grid defaults to ``default_polar_grid``.  grid may also be a
    ``ResponseStack`` built for spec, as ``cross_check`` passes one to
    every pair of an array: its stack, anchors and the programs it has
    already solved are then not formed again (the cone rule and the slack
    are still read from tolerances).  A witness is evidence only for the
    finite horizon it was checked on: a response that turns positive later
    would reach the target after all.
    Returns the witness or None; the absence of a witness proves nothing.
    """
    stack = _response_stack(spec, grid, tolerances)
    spec, P = stack.spec, stack.P
    slack = DECADE * min(tolerances.cone, DEFAULT_TOLERANCES.cone) * (1.0 + stack.peak)
    d = pair_difference(spec.q, k, l)
    for target in _pair_targets(d, spec.n):
        x, residual = stack.projection(target)
        if _reached(residual, target, tolerances.cone):
            continue
        eta = (target - P.T @ x) / residual
        if float(np.max(P @ eta, initial=0.0)) > slack:
            continue
        if float(np.linalg.norm(d @ eta.reshape(spec.q, spec.n))) < WITNESS_GAIN:
            continue
        if _stays_nonpositive(stack, eta, slack):
            return eta
    return None


# ---------------------------------------------------------------------------
# reach simulator


@dataclass(frozen=True, eq=False)
class TargetResult:
    target: np.ndarray
    residual: float
    hit: bool


def reach_simulator(
    spec: ArraySpec,
    k: int,
    l: int,
    grid: np.ndarray | ResponseStack | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> list[TargetResult]:
    """Distance of each target +/-(e_k - e_l) ⊗ e_i to the sampled positive reach cone.

    The cone is spanned by the input responses e^{A t} b_s at the times of
    the grid, the falsifier's grid and stack (``grid`` as in
    ``polar_falsifier``): nonnegative inputs on the horizon reach the
    closure of that cone as the grid refines.  Each residual is the
    falsifier's own program, read from the stack when it was solved
    there.  A target is a hit when the falsifier would call it reached,
    by the cone rule ``tolerances.cone * (1 + ||v||)``: evidence for positive
    reachability of the target, never proof, and a large residual may
    only reflect the finite grid.
    """
    stack = _response_stack(spec, grid, tolerances)
    out = []
    for target in _pair_targets(pair_difference(stack.spec.q, k, l), stack.spec.n):
        _, residual = stack.projection(target)
        out.append(TargetResult(target, residual, _reached(residual, target, tolerances.cone)))
    return out


# ---------------------------------------------------------------------------
# the one cross-check pipeline


def _bool_word(flag: bool) -> str:
    return "yes" if flag else "no"


def _compared(name: str, label: str, oracle: bool, analysis: bool) -> OracleVerdict:
    """A decidable oracle's verdict set against the analysis' verdict."""
    return OracleVerdict(
        name=name,
        agrees=oracle == analysis,
        detail=f"{label} {_bool_word(oracle)}, analysis {_bool_word(analysis)}",
    )


def cross_check(spec: ArraySpec, report) -> list[OracleVerdict]:
    """Run every oracle that applies to spec and set it against report.

    ``report`` is what ``analyze(spec, pairs, tolerances)`` returned; the
    oracles run under its tolerances, at its pairs, on the spec validated
    once here.  In order: the Kalman rank and Brammer cone tests, which
    share one set of reduced blocks and one factorization of their Krylov
    matrix; on n = 1 arrays whose inputs are literal unit edges, the walks
    of ``path_oracle``; then per pair the range test, read from that same
    factorization, the polar falsifier and, for a positive pairwise
    verdict, the reach simulator, both on the array's one
    ``ResponseStack`` over ``default_polar_grid``, whose one Taylor
    approximant forms the responses on the grid and checks each witness
    on the whole horizon.  A decidable oracle agrees when it gives the
    analysis' answer; the falsifier is inconclusive (``agrees`` None) without a witness, or
    against a yes when ``polar_horizon``'s cap cut its horizon short, and
    the reach simulator unless every target is hit.
    """
    tol = report.tolerances
    spec = require_valid(spec, tol.zero)
    big = _reduced(spec)
    complement = _krylov_complement(spec.A, big.Bred, tol.rank)
    controllable = complement[0].shape[0] == 0
    verdicts = [
        _compared("kalman_reduced", "rank test", controllable, report.controllable),
        _compared(
            "brammer_positive", "cone test",
            controllable and _eigenvector_cones_whole(spec, big.Bred, tol),
            report.positively_controllable,
        ),
    ]

    if spec.n == 1:
        try:
            for kind, expected in (
                ("connected", report.controllable),
                ("strong", report.positively_controllable),
            ):
                walked = path_oracle(spec.incidence, kind)
                verdicts.append(_compared(f"path_{kind}", "walk", walked, expected))
        except GraphDomainError:
            pass   # inputs are not literal unit edges; inapplicable

    stack = _stack_on(spec, default_polar_grid(spec, tol)) if report.pairwise else None
    in_range = _pairs_in_range(complement, big.D, list(report.pairwise), spec.n)
    for ((k, l), pairwise), ranged in zip(report.pairwise.items(), in_range):
        verdicts.append(_compared(f"pairwise_range_{k}_{l}", "range test", ranged, pairwise))

        positive = report.positive_pairwise[k, l]
        witness = polar_falsifier(spec, k, l, grid=stack, tolerances=tol)
        if witness is None:
            agrees, detail = None, (
                f"no witness for the {2 * spec.n} targets +/-(e_{k} - e_{l}) (x) e_i "
                f"on horizon {stack.grid[-1]:.4g} (proves nothing)"
            )
        elif positive.yes and (uncapped := _uncapped_horizon(spec, tol)[0]) > stack.grid[-1]:
            agrees, detail = None, (
                f"validated witness on horizon {stack.grid[-1]:.4g}, which the cap of "
                f"{HORIZON_CAP} base horizons cut short of the slowest period or beat "
                f"{uncapped:.4g} (proves nothing)"
            )
        else:
            agrees, detail = not positive.yes, (
                f"validated witness refutes positive steering; analysis {_bool_word(positive.yes)}"
            )
        verdicts.append(OracleVerdict(f"polar_falsifier_{k}_{l}", agrees, detail, witness))

        if positive.yes:
            results = reach_simulator(spec, k, l, grid=stack, tolerances=tol)
            worst = max(r.residual for r in results)
            verdicts.append(
                OracleVerdict(
                    f"reach_simulator_{k}_{l}",
                    True if all(r.hit for r in results) else None,
                    f"worst target residual {worst:.3e} over {len(results)} targets "
                    f"on horizon {stack.grid[-1]:.4g} (evidence only)",
                )
            )
    return verdicts
