"""Rendering of analysis reports as text tables or versioned JSON."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .controllability import AnalysisReport, EigGraphVerdict

REPORT_VERSION = 2


def _closed(properties: dict) -> dict:
    """A schema object that requires exactly these properties."""
    return {
        "type": "object",
        "required": list(properties),
        "additionalProperties": False,
        "properties": properties,
    }


_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_COMPLEX = {"$ref": "#/$defs/complex"}

# jsonschema document for the JSON rendering below; kept alongside the
# renderer so the two cannot drift apart silently.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed({
        "report_version": {"const": REPORT_VERSION},
        "name": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "q": {"type": "integer", "minimum": 2},
        "p": {"type": "integer", "minimum": 1},
        "tolerances": _closed({key: {"type": "number"} for key in ("rank", "cone", "eig", "zero")}),
        "validation": _closed({"ok": {"type": "boolean"}, "violations": {"type": "array"}}),
        "spectrum": {
            "type": "array",
            "items": _closed({
                "kappa": {"type": "integer"},
                "mu": _COMPLEX,
                "alg_mult": {"type": "integer"},
                "geo_mult": {"type": "integer"},
                "is_real": {"type": "boolean"},
            }),
        },
        "graphs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kappa", "mu", "kind", "marginal"],
                "additionalProperties": False,
                "properties": {
                    "kappa": {"type": "integer"},
                    "mu": _COMPLEX,
                    "kind": {"enum": ["V", "W", "Q"]},
                    "connected": {"type": ["boolean", "null"]},
                    "strongly_connected": {"type": ["boolean", "null"]},
                    "kl_connected": {"type": ["object", "null"]},
                    "strongly_kl_connected": {"type": ["object", "null"]},
                    "marginal": {"type": "boolean"},
                },
            },
        },
        "index_recursion": {
            "type": "array",
            "items": _closed({
                "kappa": {"type": "integer"},
                "mu": _COMPLEX,
                "index_set": _INTEGERS,
                "removed": _INTEGERS,
                "lineality_dim": {"type": ["integer", "null"]},
            }),
        },
        "verdicts": _closed({
            "controllable": {"type": "boolean"},
            "positively_controllable": {"type": "boolean"},
            "pairwise": {"type": "object"},
            "positive_pairwise": {
                "type": "object",
                "additionalProperties": _closed(
                    {"yes": {"type": "boolean"}, "conditional": {"type": "boolean"}}
                ),
            },
        }),
        "assumptions": _closed({
            "eigen_overlap": _closed({"holds": {"type": "boolean"}, "violated_at": _INTEGERS}),
            "reach_closure": {"enum": ["structurally_verified", "unverified"]},
        }),
        "caveats": {"type": "array", "items": {"type": "string"}},
    }),
    "$defs": {"complex": _closed({"re": {"type": "number"}, "im": {"type": "number"}})},
}


def _complex_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _pair_key(pair: tuple[int, int]) -> str:
    return f"{pair[0]}-{pair[1]}"


def format_mu(mu: complex) -> str:
    """Eigenvalue with 9 significant digits, compact for real values."""
    if mu.imag == 0.0:
        return f"{mu.real:.9g}"
    return f"{mu.real:.9g}{mu.imag:+.9g}j"


def _graph_json(v: EigGraphVerdict, pairmap) -> dict:
    return {
        "kappa": v.kappa,
        "mu": _complex_json(v.mu),
        "kind": v.graph_kind,
        "connected": v.connected,
        "strongly_connected": v.strongly_connected,
        "kl_connected": pairmap(v.kl_connected),
        "strongly_kl_connected": pairmap(v.strongly_kl_connected),
        "marginal": v.marginal,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    # The pair maps of an analysis are keyed by the requested pairs in the
    # order of report.pairwise, so each key is formatted once and zipped
    # with the values of every such map; a map keyed otherwise is keyed
    # pair by pair.
    pairs = list(report.pairwise)
    keys = [_pair_key(pair) for pair in pairs]

    def keys_of(d):
        return keys if list(d) == pairs else [_pair_key(pair) for pair in d]

    def pairmap(d):
        if d is None:
            return None
        return dict(zip(keys_of(d), map(bool, d.values())))

    return {
        "report_version": REPORT_VERSION,
        "name": report.name,
        "n": report.n,
        "q": report.q,
        "p": report.p,
        "tolerances": {
            "rank": report.tolerances.rank,
            "cone": report.tolerances.cone,
            "eig": report.tolerances.eig,
            "zero": report.tolerances.zero,
        },
        # analyze raises on an array that fails validation.
        "validation": {"ok": True, "violations": []},
        "spectrum": [
            {
                "kappa": i + 1,
                "mu": _complex_json(c.mu),
                "alg_mult": c.alg_mult,
                "geo_mult": c.geo_mult,
                "is_real": c.is_real,
            }
            for i, c in enumerate(report.spectrum.components)
        ],
        "graphs": [_graph_json(v, pairmap) for v in report.graph_verdicts],
        "index_recursion": [
            {
                "kappa": step.kappa,
                "mu": _complex_json(step.mu),
                "index_set": list(step.index_set),
                "removed": list(step.removed),
                "lineality_dim": step.lineality_dim,
            }
            for step in report.index_trace
        ],
        "verdicts": {
            "controllable": report.controllable,
            "positively_controllable": report.positively_controllable,
            "pairwise": pairmap(report.pairwise),
            "positive_pairwise": {
                key: {"yes": v.yes, "conditional": v.conditional}
                for key, v in zip(
                    keys_of(report.positive_pairwise), report.positive_pairwise.values()
                )
            },
        },
        "assumptions": {
            "eigen_overlap": {
                "holds": report.assumption_eigen.holds,
                "violated_at": list(report.assumption_eigen.violated_at),
            },
            "reach_closure": (
                "structurally_verified" if report.assumption_closed else "unverified"
            ),
        },
        "caveats": list(report.caveats),
    }


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` at nesting ``pad``, byte for byte.

    Covers the types a report dict holds: dicts with string keys, lists,
    strings, booleans, None, ints and floats.  The standard library only
    uses its C encoder when indent is None; this writer does the same
    work in a fraction of the pure-Python encoder's time.
    """
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_escape(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(report: AnalysisReport) -> str:
    return _json(report_to_dict(report), "") + "\n"


def _flag(value: bool | None, yes="yes", no="NO") -> str:
    if value is None:
        return "-"
    return yes if value else no


def render_text(report: AnalysisReport) -> str:
    pairs = list(report.pairwise)
    lines = []
    title = report.name or "array"
    lines.append(f"array: {title}   n={report.n} q={report.q} p={report.p}")
    lines.append("validation: ok")
    lines.append("")

    mu_width = max(
        [12] + [len(format_mu(c.mu)) + 2 for c in report.spectrum.components]
    )
    lines.append("spectrum:")
    for i, comp in enumerate(report.spectrum.components):
        lines.append(
            f"  k={i + 1:<3d} mu={format_mu(comp.mu):<{mu_width}s} "
            f"alg={comp.alg_mult} geo={comp.geo_mult}"
        )
    lines.append("")

    header = f"  {'k':<4s}{'mu':<{mu_width}s}{'V conn':<8s}{'V strong':<10s}"
    for pair in pairs:
        header += f"{'V ' + _pair_key(pair):<9s}"
    for pair in pairs:
        header += f"{'W ' + _pair_key(pair):<9s}"
    for pair in pairs:
        header += f"{'Q pos ' + _pair_key(pair):<13s}"
    lines.append("per-eigenvalue graphs:")
    lines.append(header)

    rows = zip(report.spectrum.components, report.rows("V"), report.rows("W"), report.rows("Q"))
    for kappa, (comp, vrow, wrow, qrow) in enumerate(rows, start=1):
        line = f"  {kappa:<4d}{format_mu(comp.mu):<{mu_width}s}"
        line += f"{_flag(vrow.connected, 'conn', 'NOT'):<8s}"
        line += f"{_flag(vrow.strongly_connected, 'strong', 'NOT'):<10s}"
        for pair in pairs:
            line += f"{_flag((vrow.kl_connected or {}).get(pair)):<9s}"
        for pair in pairs:
            line += f"{_flag((wrow.kl_connected or {}).get(pair)):<9s}"
        for pair in pairs:
            if comp.is_real:
                val = (qrow.strongly_kl_connected or {}).get(pair)
            else:
                val = (qrow.kl_connected or {}).get(pair)
            flag = _flag(val)
            if qrow.marginal:
                flag += "*"
            line += f"{flag:<13s}"
        lines.append(line)
    lines.append("")

    lines.append("verdicts:")
    lines.append(f"  controllable: {_flag(report.controllable, 'YES', 'NO')}")
    lines.append(
        f"  positively controllable: {_flag(report.positively_controllable, 'YES', 'NO')}"
    )
    for pair in pairs:
        lines.append(
            f"  ({pair[0]},{pair[1]})-controllable: {_flag(report.pairwise[pair], 'YES', 'NO')}"
        )
    for pair in pairs:
        verdict = report.positive_pairwise[pair]
        suffix = " (conditional)" if verdict.conditional else ""
        lines.append(
            f"  positive ({pair[0]},{pair[1]})-controllable: "
            f"{_flag(verdict.yes, 'YES', 'NO')}{suffix}"
        )
    lines.append("")

    eigen = report.assumption_eigen
    eigen_text = (
        "holds"
        if eigen.holds
        else "violated at k=" + ",".join(str(k) for k in eigen.violated_at)
    )
    closure_text = "structurally verified" if report.assumption_closed else "unverified"
    lines.append("assumptions:")
    lines.append(f"  eigen overlap: {eigen_text}")
    lines.append(f"  reach closure: {closure_text}")

    if any(step.lineality_dim is not None for step in report.index_trace):
        lines.append("")
        lines.append("input index recursion:")
        for step in report.index_trace:
            sets = "{" + ",".join(str(s) for s in step.index_set) + "}"
            removed = "{" + ",".join(str(s) for s in step.removed) + "}"
            dim = "-" if step.lineality_dim is None else str(step.lineality_dim)
            lines.append(
                f"  k={step.kappa}: active={sets} removed={removed} lineality dim={dim}"
            )

    if report.caveats:
        lines.append("")
        lines.append("caveats:")
        for caveat in report.caveats:
            lines.append(f"  - {caveat}")
    return "\n".join(lines) + "\n"
