"""Span recorder that traces relctrl from outside the package.

The recorder wraps a function by rebinding its name in every loaded
relctrl module that holds it.  A name imported with ``from .gengraph
import nnls`` is a separate binding in the importing module, so wrapping
only the defining module would miss calls made through the importer;
scanning every module for the same function object catches them all.

Spans live in memory as ``[name, start, end, parent, call, outcome]``
lists and are written out once at the end.  A span's self time is its
duration minus the part of it covered by its child spans.  Leaving the
``installed`` block puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (module, function) pairs traced by the benchmark, by layer.
TARGETS = (
    ("array_model", "build_big"),
    ("array_model", "validate_array"),
    ("spectral", "distinct_eigenvalues"),
    ("gengraph", "make_graph"),
    ("gengraph", "range_contains"),
    ("gengraph", "cone_contains_subspace"),
    ("gengraph", "lineality_space"),
    ("gengraph", "cone_member"),
    ("gengraph", "nnls"),
    ("controllability", "v_graphs"),
    ("controllability", "w_graphs"),
    ("controllability", "q_graphs_and_index_sets"),
    ("controllability", "controllability_matrix"),
    ("controllability", "analyze"),
    ("oracles", "kalman_reduced"),
    ("oracles", "brammer_positive"),
    ("oracles", "pairwise_range"),
    ("oracles", "path_oracle"),
    ("oracles", "polar_falsifier"),
    ("oracles", "reach_simulator"),
    ("specio", "load_spec"),
    ("report", "render_json"),
    ("cli", "main"),
)

# Spans whose result is classified as a useful outcome (True) or not.
OUTCOMES = {
    "gengraph.cone_member": lambda feas: bool(feas.member),
    "oracles.polar_falsifier": lambda witness: witness is not None,
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1               # index of the timed call the spans belong to
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        classify = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.call, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if classify is not None:
                span[5] = classify(result)
            return result

        return traced

    @staticmethod
    def _modules():
        return [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "relctrl" or key.startswith("relctrl."))
        ]

    def bindings(self) -> dict[tuple[str, str], int]:
        """Identity of every function bound in the package's modules."""
        return {
            (module.__name__, attr): id(value)
            for module in self._modules()
            for attr, value in vars(module).items()
            if callable(value)
        }

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("recorder is already installed")
        modules = self._modules()
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"relctrl.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "call", "outcome"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list], per: float = 1.0) -> dict[str, float]:
    """Per-layer totals divided by ``per`` (the number of traced passes).

    For every target ``<module>.<function>``: ``_s`` is summed self time
    and ``_calls`` the number of calls; classified spans add ``_frac``
    metrics (share of calls with a useful outcome, 0 when never called).
    """
    totals = {f"{m}.{f}": [0.0, 0, 0] for m, f in TARGETS}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0.0, 0, 0])
        entry[0] += own
        entry[1] += 1
        entry[2] += bool(span[5])
    out: dict[str, float] = {}
    for name, (own, calls, hits) in totals.items():
        out[f"{name}_s"] = own / per
        out[f"{name}_calls"] = calls / per
    for name, label in (("gengraph.cone_member", "hit_frac"),
                        ("oracles.polar_falsifier", "witness_frac")):
        own, calls, hits = totals[name]
        out[f"{name}_{label}"] = hits / calls if calls else 0.0
    return out
