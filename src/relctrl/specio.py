"""JSON array-spec files: parsing, validation and writing.

Layout (all indices 1-based in diagnostics):

    {
      "name": "watertanks",                  # optional
      "n": 1, "q": 3, "p": 2,
      "A": [[0.0]],                          # n x n, row-major
      "B": {"incidence": [[1,0],[-1,1],[0,-1]]},
      "tolerances": {"rank": 1e-9}           # optional, keys rank/cone/eig/zero
    }

B carries either "incidence" (the stacked (q*n) x p matrix) or "blocks"
(a q-list of p-lists of n-vectors); both normalize to the same internal
form.  Unknown keys anywhere are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .array_model import ArraySpec
from .config import Tolerances
from .errors import SpecFormatError

_TOP_KEYS = {"n", "q", "p", "A", "B", "name", "tolerances"}
_B_KEYS = {"blocks", "incidence"}
_TOL_KEYS = {"rank", "cone", "eig", "zero"}


def _require_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SpecFormatError(f"unknown key(s) {unknown} in {where}")


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _as_matrix(value, name: str) -> np.ndarray:
    try:
        M = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"{name} is not a rectangular numeric array: {exc}") from None
    if M.ndim != 2:
        raise SpecFormatError(f"{name} must be a two-dimensional array, got ndim={M.ndim}")
    return M


def spec_from_dict(data: dict) -> tuple[ArraySpec, Tolerances | None]:
    """Parse a spec mapping; returns the array and any file tolerances."""
    if not isinstance(data, dict):
        raise SpecFormatError("spec document must be a JSON object")
    _require_keys(data, _TOP_KEYS, "spec document")
    for key in ("n", "q", "p", "A", "B"):
        if key not in data:
            raise SpecFormatError(f"missing required key {key!r}")

    n = _as_int(data["n"], "n")
    q = _as_int(data["q"], "q")
    p = _as_int(data["p"], "p")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SpecFormatError("name must be a string")

    A = _as_matrix(data["A"], "A")
    if A.shape != (n, n):
        raise SpecFormatError(f"A has shape {A.shape}, expected ({n}, {n})")

    b = data["B"]
    if not isinstance(b, dict):
        raise SpecFormatError('B must be an object with key "blocks" or "incidence"')
    _require_keys(b, _B_KEYS, "B")
    if len(b) != 1:
        raise SpecFormatError('B must carry exactly one of "blocks" or "incidence"')

    if "incidence" in b:
        M = _as_matrix(b["incidence"], "B.incidence")
        if M.shape != (q * n, p):
            raise SpecFormatError(
                f"B.incidence has shape {M.shape}, expected ({q * n}, {p})"
            )
        spec = ArraySpec.from_incidence(A, M, name=name)
    else:
        try:
            blocks = np.array(b["blocks"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(f"B.blocks is not rectangular numeric data: {exc}") from None
        if blocks.shape != (q, p, n):
            raise SpecFormatError(
                f"B.blocks has shape {blocks.shape}, expected ({q}, {p}, {n})"
            )
        spec = ArraySpec.from_blocks(A, blocks, name=name)

    tolerances = None
    if "tolerances" in data:
        tmap = data["tolerances"]
        if not isinstance(tmap, dict):
            raise SpecFormatError("tolerances must be an object")
        _require_keys(tmap, _TOL_KEYS, "tolerances")
        for key, value in tmap.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SpecFormatError(f"tolerance {key!r} must be a number")
        tolerances = Tolerances().override(**tmap)

    return spec, tolerances


def load_spec(path: str | Path) -> tuple[ArraySpec, Tolerances | None]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from None
    return spec_from_dict(data)


def spec_to_dict(spec: ArraySpec) -> dict:
    out = {
        "name": spec.name,
        "n": spec.n,
        "q": spec.q,
        "p": spec.p,
        "A": spec.A.tolist(),
        "B": {"incidence": spec.incidence.tolist()},
    }
    if not spec.name:
        del out["name"]
    return out


def save_spec(spec: ArraySpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
