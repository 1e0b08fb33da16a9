"""Every threshold is named in ``relctrl.config``, and its defaults are the old literals."""

import ast
from pathlib import Path

import relctrl
from relctrl import DEFAULT_TOLERANCES
from relctrl.config import DECADE, KKT, WITNESS_GAIN

SRC = Path(relctrl.__file__).resolve().parent

# (module, top-level function, value) of each float literal below 1 that
# is a fixed number, not a threshold, with its reason.
ALLOWED = {
    ("oracles.py", "_chebyshev_grid", 0.5): "the Lobatto points' exact midpoint scale",
    ("spectral.py", "distinct_eigenvalues", 0.5): "the exact mean of a conjugate pair",
    ("gengraph.py", "_fmt_weight", 1e-12): "DOT display cut: a part 12 decades below prints as 0",
    ("oracles.py", "default_polar_grid", 1e-9): "rounding guard of the point count's ceiling",
}


def _small_float_literals():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1.0
                ):
                    yield (path.name, getattr(top, "name", None), node.value), node.lineno


def test_no_threshold_literal_outside_config():
    found = {}
    for key, line in _small_float_literals():
        found.setdefault(key, []).append(line)
    stray = {key: lines for key, lines in found.items() if key not in ALLOWED}
    assert not stray, f"name these thresholds in relctrl.config: {stray}"
    assert set(found) == set(ALLOWED), "allowlist entry with no literal left"


def test_derived_scales_equal_the_literals_they_replaced():
    tol = DEFAULT_TOLERANCES
    assert DECADE * tol.eig == 1e-7         # restriction's invariance bound
    assert DECADE * tol.cone == 1e-7        # the falsifier's slack factor, its cap
    assert KKT == 1e-10                     # the nnls certificate constant
    assert WITNESS_GAIN == 0.1              # the falsifier's least gain
