"""Controllability analysis for arrays of identical systems under relative actuation.

The package decides four questions about an array of q identical linear
systems sharing p relative inputs: controllability, positive
controllability, pairwise controllability and positive pairwise
controllability.  Each question reduces to connectivity of
eigenvalue-indexed generalized graphs, and every verdict can be
cross-checked against an independent brute-force oracle.

``analyze`` answers all four questions in one report.  The graph
predicates, spectral internals and helper types stay importable from
their modules (``relctrl.gengraph``, ``relctrl.spectral``, ...).
"""

from .array_model import ArraySpec
from .config import DEFAULT_TOLERANCES, Tolerances
from .controllability import AnalysisReport, EigGraphVerdict, analyze, analyze_with_graphs
from .corpus import build_example, example_names
from .errors import AnalysisError
from .gengraph import GenGraph, nnls
from .oracles import (
    brammer_positive,
    cross_check,
    kalman_reduced,
    pairwise_range,
    path_oracle,
    polar_falsifier,
    reach_simulator,
)
from .report import REPORT_SCHEMA, render_json, render_text, report_to_dict
from .spectral import Spectrum

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "ArraySpec",
    "DEFAULT_TOLERANCES",
    "EigGraphVerdict",
    "GenGraph",
    "REPORT_SCHEMA",
    "Spectrum",
    "Tolerances",
    "analyze",
    "analyze_with_graphs",
    "brammer_positive",
    "build_example",
    "cross_check",
    "example_names",
    "kalman_reduced",
    "nnls",
    "pairwise_range",
    "path_oracle",
    "polar_falsifier",
    "reach_simulator",
    "render_json",
    "render_text",
    "report_to_dict",
]
