"""Exception types raised by the analysis pipeline."""


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AnalysisError):
    """Inputs have inconsistent or unusable dimensions."""


class InvalidArrayError(AnalysisError):
    """An operation requires a validated array spec and validation failed."""


class SpecFormatError(AnalysisError):
    """A spec file or mapping does not match the documented JSON layout,
    or a tolerance is not a finite positive number."""


class IllConditionedSpectrumError(AnalysisError):
    """Two eigenvalue clusters are too close to separate reliably.

    Raised when some inter-cluster gap falls inside [tol, 2*tol); rerun
    with a different eigenvalue tolerance.
    """


class InconsistentSpectrumError(AnalysisError):
    """Computed eigenspaces contradict the clustered multiplicities."""


class InvarianceViolationError(AnalysisError):
    """A subspace expected to be invariant fails its residual check."""


class GraphDomainError(AnalysisError):
    """A graph predicate was applied outside its domain.

    Strong (cone-based) predicates are defined for real graphs only.
    """


class UnsupportedRenderError(AnalysisError):
    """Graph cannot be drawn because some column is not a scalar edge."""


class NumericalFailureError(AnalysisError):
    """An iterative solver exceeded its iteration cap."""

