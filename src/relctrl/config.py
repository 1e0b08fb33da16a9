"""Shared tolerance configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import SpecFormatError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the analysis pipeline.

    rank: relative singular-value cutoff for rank and range tests.
    cone: residual threshold for cone-membership programs, applied as
        ``cone * (1 + ||target||)``.
    eig:  eigenvalue clustering factor, applied as ``eig * (1 + spectral
        radius)``.
    zero: absolute threshold for structural zeros (input column sums,
        edge-factorization residuals).

    Every entry must be finite and positive, whether it comes from a spec
    file, a command-line flag or a caller; SpecFormatError otherwise.
    """

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
