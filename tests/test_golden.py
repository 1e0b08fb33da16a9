"""Byte-for-byte JSON reports of the bundled examples at every ordered pair.

The files under tests/golden pin the default ``relctrl analyze --json``
output.  A change that is meant to alter it regenerates them with

    relctrl examples NAME --out NAME.json
    relctrl analyze NAME.json --json --pair K L ... > tests/golden/NAME.json

(every ordered pair of the q systems) and says why in its description.

damped-q12-n6 is one random array of three damped rotation blocks under
a similarity (n = 6, q = 12, p = 18 unit-edge inputs whose edges leave
three components), drawn by bench/workloads.py's damped_oscillator_array
from numpy's default_rng(20261045) and kept as a spec file.  Every
eigenvalue is non-real, so its report pins the complex-graph and
pairwise verdicts at all 132 ordered pairs, which the examples barely
use.

oracle-verdicts.json pins, for every row of ``relctrl oracle --json``
of each example at every ordered pair (108 rows), its name, its
``agrees`` value and whether it carries a witness.  Residual digits in
the details may move with the oracles' solvers; a verdict may not.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from relctrl import analyze, build_example, example_names, render_json, report_to_dict
from relctrl.cli import main
from relctrl.corpus import random_array_spec
from relctrl.report import _json

from conftest import all_pairs

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", example_names())
def test_analyze_json_matches_golden_bytes(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    assert main(["examples", name, "--out", str(path)]) == 0
    argv = ["analyze", str(path), "--json"]
    for k, l in all_pairs(build_example(name).q):
        argv += ["--pair", str(k), str(l)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_damped_array_json_matches_golden_bytes(capsys):
    argv = ["analyze", str(GOLDEN / "damped-q12-n6-spec.json"), "--json"]
    for k, l in all_pairs(12):
        argv += ["--pair", str(k), str(l)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "damped-q12-n6.json").read_bytes()


@pytest.mark.parametrize("name", example_names())
def test_oracle_verdicts_match_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    assert main(["examples", name, "--out", str(path)]) == 0
    argv = ["oracle", str(path), "--json"]
    for k, l in all_pairs(build_example(name).q):
        argv += ["--pair", str(k), str(l)]
    capsys.readouterr()
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    verdicts = [
        {"name": row["name"], "agrees": row["agrees"], "witness": row["witness"] is not None}
        for row in rows
    ]
    assert verdicts == json.loads((GOLDEN / "oracle-verdicts.json").read_text())[name]


# render_json's writer against json.dumps(indent=2), the reference it replaces

@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_writer_matches_json_dumps_on_every_golden_file(path):
    value = json.loads(path.read_text())
    assert _json(value, "") == json.dumps(value, indent=2)


def test_writer_matches_json_dumps_on_a_random_all_pairs_report():
    spec = random_array_spec(np.random.default_rng(20261018), n_max=3, q_max=7, p_max=9)
    report = analyze(spec, all_pairs(spec.q))
    assert render_json(report) == json.dumps(report_to_dict(report), indent=2) + "\n"


def test_writer_matches_json_dumps_on_every_value_type():
    value = {
        "text": "tab\there, quote \" slash \\ é ∞ \U0001f600",
        "ints": [0, -3, 2**70],
        "floats": [0.0, -0.0, 1e-300, 1.5e16, 0.1, float("nan"), float("inf"), -float("inf")],
        "numpy": [np.float64(2.5), np.float64(-1e-9)],
        "flags": [True, False, None],
        "empty": [{}, [], ()],
        "nested": {"kl": {"1-2": True}, "steps": [{"set": (1, 2)}]},
    }
    assert _json(value, "") == json.dumps(value, indent=2)


def test_writer_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError):
        json.dumps(np.bool_(True), indent=2)
    with pytest.raises(TypeError):
        _json(np.bool_(True), "")


def test_a_pair_map_keyed_in_another_order_keeps_its_keys():
    # report_to_dict formats the requested pairs once, in the order of
    # report.pairwise, and zips them with every pair map in that order; a
    # map in another order is keyed pair by pair instead of being
    # mislabelled.
    from dataclasses import replace

    def keyed(d):
        return [(f"{k}-{l}", v) for (k, l), v in d.items()]

    report = analyze(build_example("watertanks-ring"), [(1, 2), (2, 3), (1, 3)])
    flipped = dict(reversed(list(report.pairwise.items())))
    flipped[(2, 3)] = not flipped[(2, 3)]
    doc = report_to_dict(replace(report, pairwise=flipped))
    assert list(doc["verdicts"]["pairwise"].items()) == keyed(flipped)
    for row, out in zip(report.graph_verdicts, doc["graphs"]):
        if row.kl_connected is not None:
            assert list(out["kl_connected"].items()) == keyed(row.kl_connected)
