"""Byte-for-byte JSON reports of the bundled examples at every ordered pair.

The files under tests/golden pin the default ``relctrl analyze --json``
output.  A change that is meant to alter it regenerates them with

    relctrl examples NAME --out NAME.json
    relctrl analyze NAME.json --json --pair K L ... > tests/golden/NAME.json

(every ordered pair of the q systems) and says why in its description.
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
