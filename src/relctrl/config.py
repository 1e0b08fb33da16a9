"""Shared tolerance configuration: every threshold of the package, named once.

A threshold is a user tolerance times a named scale, or a fixed constant
below; at ``DEFAULT_TOLERANCES`` each equals its old literal bit for bit.

rank  relative singular-value cutoff of rank and range tests; the edge
      route keeps column norms and singular values a DECADE clear of it.
cone  cone-membership bound cone (1 + ||target||), marginal within a
      DECADE of it; the falsifier's slack DECADE min(cone, 1e-8) (1 + max |P|).
eig   clustering tolerance tol = eig (1 + spectral radius), kept on the
      Spectrum for the eigen-overlap check; clusters nearer than
      CLUSTER_GAP tol are ill-conditioned; restriction's invariance
      bound DECADE eig (1 + ||A||_F); the falsifier's horizon treats
      rotations and real gaps up to eig (1 + max |lambda|) as zero.
zero  absolute threshold for structural zeros (input column sums,
      edge-factorization residuals).

Every entry must be finite and positive, whether it comes from a spec
file, a command-line flag or a caller; SpecFormatError otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import SpecFormatError

# A decade: marginal windows, guard bands and bounds a decade looser.
DECADE = 10.0


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the analysis pipeline (see the module)."""

    rank: float = 1e-9
    cone: float = 1e-8
    eig: float = 1e-8
    zero: float = 1e-9

    def __post_init__(self):
        for entry in fields(self):
            value = getattr(self, entry.name)
            if not (math.isfinite(value) and value > 0):
                raise SpecFormatError(
                    f"tolerance {entry.name!r} must be a finite positive number, got {value!r}"
                )

    def override(self, **kwargs) -> "Tolerances":
        """Copy with the non-None entries of kwargs replaced."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)


DEFAULT_TOLERANCES = Tolerances()

# The optimality certificate of ``nnls``, relative to 1 + ||v||: fixed, so
# that a program's answer does not depend on who asks, and two decades
# below the default cone tolerance, which judges residuals on that scale.
KKT = 1e-10

# Distinct eigenvalue clusters must lie at least CLUSTER_GAP clustering
# tolerances apart.  Eigenvalues of two clusters nearer than that could
# each move by up to tol and meet, so the partition into clusters would
# not be stable under the perturbations the tolerance accepts.
CLUSTER_GAP = 2.0

# The least component a falsifier witness, a unit direction, keeps on the
# (k,l) difference subspace, so that it is not a rounding residue.
WITNESS_GAIN = 0.1
