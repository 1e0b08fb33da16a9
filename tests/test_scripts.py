"""Smoke tests: each script in scripts/ runs to exit 0 against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import relctrl
from relctrl.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    src = str(Path(relctrl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_worked_examples_writes_dot_files(tmp_path):
    done = run_script("worked_examples.py", "--dot", tmp_path)
    assert done.returncode == 0, done.stderr
    names = {path.name for path in tmp_path.glob("*_v_k1.dot")}
    assert {"watertanks_v_k1.dot", "watertanks-ring_v_k1.dot"} <= names
    assert "watertanks " in done.stdout


def test_oracle_agreement_reports_no_disagreement():
    done = run_script("oracle_agreement.py", "--specs", 3)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "3 specs in" in done.stdout
    assert done.stdout.rstrip().endswith(" 0 disagreements")


def test_reach_probe_on_a_bundled_example(tmp_path, capsys):
    path = tmp_path / "watertanks-ring.json"
    assert main(["examples", "watertanks-ring", "--out", str(path)]) == 0
    capsys.readouterr()
    done = run_script("reach_probe.py", path, 1, 2)
    assert done.returncode == 0, done.stderr
    assert "graph verdict for positive (1,2) steering: yes" in done.stdout
    assert "falsifier:" in done.stdout


def test_reach_probe_honours_the_spec_files_tolerances(tmp_path, capsys):
    # A column-sum error of 1e-7 that the file's zero tolerance accepts must
    # reach the reach simulator and the falsifier too, not only the verdict.
    path = tmp_path / "watertanks-ring.json"
    assert main(["examples", "watertanks-ring", "--out", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["B"]["incidence"][0][0] += 1e-7
    data["tolerances"] = {"zero": 1e-6}
    path.write_text(json.dumps(data))
    done = run_script("reach_probe.py", path, 1, 2)
    assert done.returncode == 0, done.stderr
    assert "graph verdict for positive (1,2) steering: yes" in done.stdout
    assert "falsifier: no witness" in done.stdout


def test_reach_probe_rejects_reach_flags_before_the_analysis(tmp_path, capsys):
    path = tmp_path / "watertanks.json"
    assert main(["examples", "watertanks", "--out", str(path)]) == 0
    capsys.readouterr()
    for flag, value in (("--steps", 1), ("--horizon", 0), ("--horizon", -1)):
        done = run_script("reach_probe.py", path, 1, 2, flag, value)
        assert done.returncode != 0 and done.stdout == ""
        assert "Traceback" not in done.stderr and flag in done.stderr


def test_report_digest_prints_one_sha1_per_output():
    done = run_script("report_digest.py")
    assert done.returncode == 0, done.stderr
    lines = [line.split("  ") for line in done.stdout.splitlines()]
    assert [label for _, label in lines] == [
        f"{corpus}/{pairs}"
        for corpus in ("examples", "damped-q12-n6", "random-600")
        for pairs in ("all-pairs", "no-pairs")
    ] + ["oracle"]
    assert all(len(digest) == 40 and set(digest) <= set("0123456789abcdef") for digest, _ in lines)
