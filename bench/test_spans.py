"""Self-test of the span recorder: self-time arithmetic and binding restore.

Run from the repository root:
    python3 -m pytest -q bench/test_spans.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import relctrl  # noqa: E402
import relctrl.cli  # noqa: E402
import relctrl.gengraph  # noqa: E402
import relctrl.oracles  # noqa: E402
from spans import TARGETS, SpanRecorder, self_times, summarize  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 4.0, 0),        # overlaps a: [1, 4] is covered once
        span("c", 5.0, 6.0, 0),
        span("a.child", 1.5, 2.5, 1),  # a grandchild counts against a, not root
        span("late", 9.0, 12.0, 0),    # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0 - 1.0, 1.0, 2.0, 1.0, 1.0, 3.0])


def test_summarize_reports_every_target_per_pass():
    spans = [
        span("controllability.analyze", 0.0, 4.0, -1),
        span("gengraph.cone_member", 1.0, 3.0, 0),
        span("gengraph.nnls", 1.0, 2.5, 1),
    ]
    spans[1][5] = True
    out = summarize(spans, per=2)
    assert out["controllability.analyze_s"] == pytest.approx(1.0)
    assert out["gengraph.cone_member_s"] == pytest.approx(0.25)
    assert out["gengraph.nnls_s"] == pytest.approx(0.75)
    assert out["gengraph.nnls_calls"] == 0.5
    assert out["gengraph.cone_member_hit_frac"] == 1.0
    assert out["oracles.polar_falsifier_witness_frac"] == 0.0
    assert out["cli.main_calls"] == 0


def test_install_rebinds_every_importer_and_restores():
    recorder = SpanRecorder()
    before = recorder.bindings()
    original = relctrl.gengraph.nnls
    with recorder.installed():
        # nnls is imported by name into the package and into oracles.
        for module in (relctrl, relctrl.gengraph, relctrl.oracles):
            assert module.nnls is not original
            assert module.nnls.__wrapped__ is original
        assert relctrl.cli.analyze is relctrl.controllability.analyze
        relctrl.analyze(relctrl.build_example("watertanks-ring"), pairs=[(1, 2)])
    assert recorder.bindings() == before
    assert relctrl.oracles.nnls is original

    names = [s[0] for s in recorder.spans]
    assert names[0] == "controllability.analyze"
    assert "gengraph.nnls" in names
    for s in recorder.spans:
        if s[0] == "gengraph.nnls":
            parent = recorder.spans[s[3]][0]
            assert parent in ("gengraph.cone_member", "oracles.brammer_positive")
    # Self times of all spans add up to the time of the root spans.
    roots = sum(s[2] - s[1] for s in recorder.spans if s[3] < 0)
    assert sum(self_times(recorder.spans)) == pytest.approx(roots)


def test_restore_after_an_exception():
    recorder = SpanRecorder()
    before = recorder.bindings()
    with pytest.raises(relctrl.AnalysisError):
        with recorder.installed():
            relctrl.gengraph.nnls([[1.0]], [1.0, 2.0])    # dimension error
    assert recorder.bindings() == before
    assert recorder.spans[0][0] == "gengraph.nnls"
    assert recorder.spans[0][2] is not None


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(summarize([])) | {"trace.total_s", "trace.overhead_s"}
    assert listed == produced
    assert {f"{m}.{f}_s" for m, f in TARGETS} <= listed
