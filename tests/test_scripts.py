"""Smoke tests: each script in scripts/ runs to exit 0 against the package."""

import os
import subprocess
import sys
from pathlib import Path

import relctrl

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
    assert "reach evidence for " in done.stdout and " positive ones, " in done.stdout
    assert done.stdout.rstrip().endswith(" 0 disagreements")


def test_report_digest_prints_one_sha1_per_output():
    done = run_script("report_digest.py")
    assert done.returncode == 0, done.stderr
    lines = [line.split("  ") for line in done.stdout.splitlines()]
    assert [label for _, label in lines] == [
        f"{corpus}/{pairs}"
        for corpus in ("examples", "damped-q12-n6", "random-600")
        for pairs in ("all-pairs", "no-pairs")
    ] + ["oracle", "dot", "tolerances", "text", "oracle-tolerances", "graphs"]
    assert all(len(digest) == 40 and set(digest) <= set("0123456789abcdef") for digest, _ in lines)
