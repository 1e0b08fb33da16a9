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
controllability-matrix pair verdicts at all 132 ordered pairs, which the
examples barely use.
"""

from pathlib import Path

import pytest

from relctrl import build_example, example_names
from relctrl.cli import main

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
