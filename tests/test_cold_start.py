"""A cold ``import relctrl`` loads no cone-program solver.

Only strong connectivity at a real eigenvalue, and the oracles, solve
nonnegative least-squares programs; ``gengraph.nnls`` imports
``scipy.optimize`` at its first call.  An array without a real
eigenvalue is decided by numpy alone, so its analysis loads no scipy
module at all.  Each check runs in a fresh interpreter, because the test
session itself has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import relctrl

GOLDEN = Path(__file__).resolve().parent / "golden"

CHILD = """
import json
import sys

def loaded():
    return "scipy.optimize" in sys.modules

seen = {}
import relctrl, relctrl.cli
seen["import"] = loaded()

from relctrl.cli import main
assert main(["examples", "oscillators-a", "--out", sys.argv[1]]) == 0
seen["examples"] = loaded()

from relctrl import analyze, build_example, render_json

def all_pairs(q):
    return [(k, l) for k in range(1, q + 1) for l in range(1, q + 1) if k != l]

spec = build_example("oscillators-a")
render_json(analyze(spec, all_pairs(spec.q)))
seen["oscillators-a"] = loaded()
seen["any scipy"] = any(name.split(".")[0] == "scipy" for name in sys.modules)

spec = build_example("watertanks")
with open(sys.argv[2], "w") as out:
    out.write(render_json(analyze(spec, all_pairs(spec.q))))
seen["watertanks"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_optimize_waits_for_the_first_cone_program(tmp_path):
    src = str(Path(relctrl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = tmp_path / "watertanks.json"
    done = subprocess.run(
        [sys.executable, "-c", CHILD,
         str(tmp_path / "oscillators-a.json"), str(report)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": False,
        "examples": False,
        "oscillators-a": False,
        "any scipy": False,
        "watertanks": True,
    }
    assert report.read_bytes() == (GOLDEN / "watertanks.json").read_bytes()
