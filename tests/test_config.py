"""Every threshold is named in ``relctrl.config``, and its defaults are the old literals."""

import ast
from pathlib import Path

import relctrl
from relctrl import DEFAULT_TOLERANCES
from relctrl.config import DECADE, KKT, WITNESS_GAIN
from relctrl.oracles import (
    BASE_TIME_CONSTANTS,
    DENSE_FACTOR,
    GAP_TIME_CONSTANTS,
    HORIZON_CAP,
    POINTS_PER_BASE,
)

SRC = Path(relctrl.__file__).resolve().parent

# (module, top-level function, value) of each float literal below 1 that
# is a fixed number, not a threshold, with its reason.
ALLOWED = {
    ("oracles.py", "_chebyshev_grid", 0.5): "the Lobatto points' exact midpoint scale",
    ("spectral.py", "distinct_eigenvalues", 0.5): "the exact mean of a conjugate pair",
    ("gengraph.py", "_fmt_weight", 1e-12): "DOT display cut: a part 12 decades below prints as 0",
    ("oracles.py", "default_polar_grid", 1e-9): "rounding guard of the point count's ceiling",
}


# The top-level functions and classes of oracles.py that build the
# falsifier's horizon and grids, or print them: a multiplier of 1 or more
# there is named once at module level.  Only 1 and 2 stay bare (floors
# max(1, .), scales 1 + ||.||, a period's 2 pi, a target's two signs).
HORIZON_CODE = {
    "_chebyshev_grid", "_uncapped_horizon", "polar_horizon", "default_polar_grid",
    "ResponseStack", "polar_falsifier", "cross_check",
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


def test_no_bare_multiplier_in_the_horizon_code():
    stray, seen = [], set()
    for top in ast.parse((SRC / "oracles.py").read_text()).body:
        if getattr(top, "name", None) not in HORIZON_CODE:
            continue
        seen.add(top.name)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) in (int, float)
                and abs(node.value) >= 1
                and node.value not in (1, 2)
            ):
                stray.append((top.name, node.value, node.lineno))
    assert seen == HORIZON_CODE, "a horizon function was renamed or removed"
    assert not stray, f"name these multipliers in relctrl.oracles: {stray}"


def test_named_horizon_multipliers_equal_the_literals_they_replaced():
    assert BASE_TIME_CONSTANTS == 4         # base horizon 4 / max(1, remax)
    assert GAP_TIME_CONSTANTS == 8          # beat horizon 8 / gap
    assert HORIZON_CAP == 16                # cap in base horizons
    assert POINTS_PER_BASE == 64            # coarse grid points per base horizon
    assert DENSE_FACTOR == 10               # the check grid's density over the coarse one


def test_derived_scales_equal_the_literals_they_replaced():
    tol = DEFAULT_TOLERANCES
    assert DECADE * tol.eig == 1e-7         # restriction's invariance bound
    assert DECADE * tol.cone == 1e-7        # the falsifier's slack factor, its cap
    assert KKT == 1e-10                     # the nnls certificate constant
    assert WITNESS_GAIN == 0.1              # the falsifier's least gain
