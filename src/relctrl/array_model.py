"""Data model for arrays of identical linear systems with relative actuation.

An array is a set of q identical n-state systems

    dx_i/dt = A x_i + sum_s B[i, s] u_s,   i = 1..q,

driven by p shared scalar inputs.  Actuation is relative: for every input
s the injection vectors sum to zero over the systems, so inputs can only
move differences between systems while the ensemble average follows the
free dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DimensionError, InvalidArrayError


@dataclass(frozen=True, eq=False)
class ArraySpec:
    """The pair (A, B) together with its dimensions.

    B is stored in block form with shape (q, p, n): B[i, s] is the
    injection vector of input s into system i.  Arrays are copied and
    frozen at construction.
    """

    n: int
    q: int
    p: int
    A: np.ndarray
    B: np.ndarray
    name: str = ""

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @classmethod
    def from_blocks(cls, A, blocks, name: str = "") -> "ArraySpec":
        """Build from a q-list of p-lists of n-vectors."""
        B = np.array(blocks, dtype=float)
        if B.ndim != 3:
            raise DimensionError(
                f"block input must be a q x p collection of n-vectors, got shape {B.shape}"
            )
        q, p, n = B.shape
        return cls(n=n, q=q, p=p, A=A, B=B, name=name)

    @classmethod
    def from_incidence(cls, A, incidence, name: str = "") -> "ArraySpec":
        """Build from the stacked (q*n) x p input matrix."""
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        M = np.atleast_2d(np.array(incidence, dtype=float))
        rows, p = M.shape
        if n == 0 or rows % n != 0:
            raise DimensionError(
                f"stacked input matrix has {rows} rows, not a multiple of n={n}"
            )
        q = rows // n
        B = M.reshape(q, n, p).transpose(0, 2, 1)
        return cls(n=n, q=q, p=p, A=A, B=B, name=name)

    @property
    def incidence(self) -> np.ndarray:
        """The stacked (q*n) x p input matrix."""
        return self.B.transpose(0, 2, 1).reshape(self.q * self.n, self.p)


@dataclass(frozen=True)
class Violation:
    kind: str        # "dimension", "non-finite" or "column-sum"
    location: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def validate_array(spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero) -> ValidationReport:
    """Check dimensions, finiteness and the relative-actuation constraint.

    Every dimension mismatch is reported, then a NaN or infinite entry of
    A or B (the first of each, 1-based), then every input column whose
    per-system injection vectors do not sum to (numerically) zero.  Pure
    function; never raises on bad content.
    """
    violations: list[Violation] = []

    def bad(kind, location, magnitude=0.0):
        violations.append(Violation(kind, location, float(magnitude)))

    if spec.n < 1:
        bad("dimension", f"n={spec.n} must be positive")
    if spec.q < 2:
        bad("dimension", f"q={spec.q} must be at least 2")
    if spec.p < 1:
        bad("dimension", f"p={spec.p} must be positive")
    if spec.A.shape != (spec.n, spec.n):
        bad("dimension", f"A has shape {spec.A.shape}, expected {(spec.n, spec.n)}")
    if spec.B.shape != (spec.q, spec.p, spec.n):
        bad("dimension", f"B has shape {spec.B.shape}, expected {(spec.q, spec.p, spec.n)}")

    for name, M in (("A", spec.A), ("B", spec.B)):
        bad_entries = np.argwhere(~np.isfinite(M))
        if bad_entries.size:
            first = tuple(bad_entries[0])
            bad("non-finite", f"{name}[{','.join(str(k + 1) for k in first)}]", M[first])

    if not violations:
        colsums = spec.B.sum(axis=0)          # (p, n)
        norms = np.linalg.norm(colsums, axis=1)
        for s in range(spec.p):
            if norms[s] > tol_zero:
                bad("column-sum", f"sigma={s + 1}", norms[s])

    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero) -> ArraySpec:
    """The spec every validated entry point works on.

    Raises InvalidArrayError when validation fails; otherwise returns
    ``zero_sum_projection(spec)``, so that a column-sum error within
    tol_zero never reaches an analysis or an oracle.
    """
    report = validate_array(spec, tol_zero)
    if not report.ok:
        first = report.violations[0]
        raise InvalidArrayError(
            f"array spec failed validation ({len(report.violations)} problem(s)); "
            f"first: {first.kind} at {first.location}, magnitude {first.magnitude:g}"
        )
    return zero_sum_projection(spec)


def zero_sum_projection(spec: ArraySpec) -> ArraySpec:
    """The spec with every input column projected onto the zero-sum subspace.

    Validation accepts column sums up to tol_zero, but the graphs, the
    controllability matrix and the oracles all assume that inputs only
    move differences between systems; a leftover sum of 1e-7 would read
    as one more direction to reach and flip their verdicts.  Subtracting
    the mean over the systems from every injection vector removes it.
    ``require_valid`` returns this projection, so every validated entry
    point works on it.  A spec whose column sums are exactly zero is
    returned unchanged.
    """
    sums = spec.B.sum(axis=0)                 # (p, n)
    if not np.any(sums):
        return spec
    return ArraySpec(
        n=spec.n, q=spec.q, p=spec.p, A=spec.A, B=spec.B - sums / spec.q, name=spec.name
    )


def disagreement_basis(q: int) -> np.ndarray:
    """Deterministic q x (q-1) orthonormal basis of the all-ones complement.

    Householder completion: the reflector carrying e_1 onto the
    normalized all-ones vector is orthogonal and symmetric, so its
    remaining q-1 columns form an orthonormal basis of the orthogonal
    complement of the ones vector.  Fixed q always yields the same basis.
    """
    if q < 2:
        raise DimensionError(f"need at least two systems, got q={q}")
    s = np.full(q, 1.0 / np.sqrt(q))
    v = -s
    v[0] += 1.0
    H = np.eye(q) - (2.0 / (v @ v)) * np.outer(v, v)
    return H[:, 1:]


@dataclass(frozen=True, eq=False)
class BigOperators:
    """Reduced (disagreement) coordinates of an array.

    D carries the projection of the stacked state onto disagreement
    coordinates; Bred holds the reduced input blocks D* B.  The stacked
    dynamics I_q ⊗ A act blockwise and so do the reduced ones, I_{q-1} ⊗ A:
    a caller applies A to the blocks and never forms either operator.
    """

    D: np.ndarray       # (q, q-1)
    Bred: np.ndarray    # (q-1, p, n), Bred[r, s] = sum_i D[i, r] B[i, s]


def build_big(spec: ArraySpec, tol_zero: float = DEFAULT_TOLERANCES.zero) -> BigOperators:
    """The one builder of reduced coordinates, for a validated spec.

    The blocks are built from the projection ``require_valid`` returns.
    """
    return _reduced(require_valid(spec, tol_zero))


def _reduced(spec: ArraySpec) -> BigOperators:
    """The reduced coordinates of a spec that ``require_valid`` returned."""
    D = disagreement_basis(spec.q)
    return BigOperators(D=D, Bred=np.einsum("qr,qpn->rpn", D, spec.B))
