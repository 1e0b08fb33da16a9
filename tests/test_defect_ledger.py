"""The confirmed defects of ROADMAP.md, one strict xfail each.

Each test states the right answer on its item's repro and fails today.
The change that mends a defect makes its test pass, and the strict mark
then fails the suite until the mark is removed, so no defect is mended,
or reopened, without anyone seeing.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relctrl
from relctrl import ArraySpec, analyze, build_example, kalman_reduced
from relctrl.corpus import random_array_spec
from relctrl.specio import save_spec
from relctrl.cli import EXIT_DISAGREEMENT, EXIT_NUMERICAL, main

from conftest import all_pairs

GOLDEN = Path(__file__).resolve().parent / "golden"
WT = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
TRIANGLE = np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])


def _generic_ring(n: int, seed: int) -> ArraySpec:
    """Item 4's generic family: A = randn/sqrt(n) - 0.2 I, b = randn, on the ring of three."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.2 * np.eye(n)
    b = rng.standard_normal(n)
    return ArraySpec.from_incidence(A, np.kron(TRIANGLE, b[:, None]))


@pytest.mark.xfail(strict=True, reason="item 1: a similarity splits a defective eigenvalue")
def test_item_1_a_similar_nilpotent_chain_keeps_its_positive_verdict():
    # watertanks with each integrator replaced by a nilpotent chain of
    # length 4, inputs on the last state: not positively controllable.
    # Under A' = T A T^-1, b' = T b with draw 4 of T = I + 0.3 randn the
    # spectrum splits the fourfold 0 and the verdict turns True.
    rng = np.random.default_rng(0)
    for _ in range(5):
        T = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    b = np.eye(4)[-1]
    A = T @ np.eye(4, k=1) @ np.linalg.inv(T)
    spec = ArraySpec.from_incidence(A, np.kron(WT, (T @ b)[:, None]))
    assert not analyze(spec).positively_controllable


@pytest.mark.xfail(strict=True, reason="item 4: the raw Krylov matrix loses rank at n = 32")
def test_item_4_the_kalman_oracle_agrees_on_a_generic_ring_of_32_states():
    spec = _generic_ring(32, 0)
    assert analyze(spec).controllable
    assert kalman_reduced(spec)


def _oracle(spec: ArraySpec, path: Path, *pairs: tuple[int, int]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``relctrl oracle`` on spec at pairs."""
    save_spec(spec, path)
    argv = ["oracle", str(path)]
    for k, l in pairs:
        argv += ["--pair", str(k), str(l)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.xfail(strict=True, reason="item 4: the rank oracles lose rank on a scaled A")
def test_item_4_the_oracles_agree_on_oscillators_a_at_twenty_times_a(tmp_path):
    # At 10 A the oracle command exits 0; at 20 A kalman_reduced and
    # brammer_positive say "no" against the analysis' "yes".
    spec = build_example("oscillators-a")
    scaled = ArraySpec(n=spec.n, q=spec.q, p=spec.p, A=20.0 * spec.A, B=spec.B)
    code, out, _ = _oracle(scaled, tmp_path / "oscillators-a-20.json")
    assert code != EXIT_DISAGREEMENT, out


@pytest.mark.xfail(strict=True, reason="item 16: the falsifier raises where it should abstain")
def test_item_16_the_oracle_command_does_not_fail_numerically_at_n_3(tmp_path):
    # Not only a large-n defect: draws 170 (random-3-4-4, eigenvalue 2.216)
    # and 194 (random-3-2-2) of random_array_spec(default_rng(0)) stop with
    # "no optimum" at these pairs.
    rng = np.random.default_rng(0)
    draws = [random_array_spec(rng) for _ in range(195)]
    for index, pair in ((170, (2, 3)), (194, (1, 2))):
        code, _, err = _oracle(draws[index], tmp_path / f"draw-{index}.json", pair)
        assert code != EXIT_NUMERICAL, (index, err)


@pytest.mark.xfail(strict=True, reason="item 16: the falsifier raises where it should abstain")
def test_item_16_the_oracle_command_does_not_fail_numerically_at_n_12(tmp_path):
    path = tmp_path / "generic-12.json"
    save_spec(_generic_ring(12, 0), path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["oracle", str(path), "--pair", "1", "2"])
    assert code != EXIT_NUMERICAL, err.getvalue()


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="needs numpy on an OpenBLAS built with DYNAMIC_ARCH to select the Prescott kernels",
)
@pytest.mark.xfail(strict=True, reason="item 19: eigenvalue digits differ between LAPACK kernels")
def test_item_19_the_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    path = tmp_path / "oscillators-a.json"
    assert main(["examples", "oscillators-a", "--out", str(path)]) == 0
    argv = [sys.executable, "-m", "relctrl.cli", "analyze", str(path), "--json"]
    for k, l in all_pairs(build_example("oscillators-a").q):
        argv += ["--pair", str(k), str(l)]
    src = str(Path(relctrl.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "oscillators-a.json").read_bytes()
