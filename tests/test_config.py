"""Every threshold is named in ``relctrl.config``, and its defaults are the old literals."""

import ast
import math
from pathlib import Path

import relctrl
from relctrl import DEFAULT_TOLERANCES
from relctrl.config import CLUSTER_GAP, DECADE, KKT, WITNESS_GAIN
from relctrl.oracles import (
    _ANCHOR_NORM,
    _SPLIT_DEPTH,
    _TAYLOR_DEGREE,
    _TAYLOR_TAIL,
    BASE_TIME_CONSTANTS,
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


# The anchor kernel of the exponentials, its powering helper and the
# witness check on its anchor intervals: every number in them but 0 and 1
# is named at module level, with its derivation.
KERNEL_CODE = {
    "_Anchors", "_taylor_terms", "_taylor_powers", "_exponentials", "_stays_nonpositive",
}


def _top_levels(module, names):
    """The top-level definitions of module named in names, by name."""
    tops = ast.parse((SRC / module).read_text()).body
    found = {top.name: top for top in tops if getattr(top, "name", None) in names}
    assert set(found) == set(names), f"renamed or removed: {set(names) - set(found)}"
    return found


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
    stray = [
        (name, node.value, node.lineno)
        for name, top in _top_levels("oracles.py", HORIZON_CODE).items()
        for node in ast.walk(top)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and abs(node.value) >= 1
        and node.value not in (1, 2)
    ]
    assert not stray, f"name these multipliers in relctrl.oracles: {stray}"


def test_no_bare_number_in_the_exponential_kernel():
    stray = [
        (name, node.value, node.lineno)
        for name, top in _top_levels("oracles.py", KERNEL_CODE).items()
        for node in ast.walk(top)
        if isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value not in (0, 1)
    ]
    assert not stray, f"name these numbers in relctrl.oracles: {stray}"


def test_no_bare_multiplier_in_the_eigenvalue_clustering():
    # A number of 1 or more that multiplies or divides is a scale and is
    # named in relctrl.config; 2 stays bare elsewhere (ndim, the 2-norm).
    top = _top_levels("spectral.py", {"distinct_eigenvalues"})["distinct_eigenvalues"]
    stray = [
        (side.value, node.lineno)
        for node in ast.walk(top)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
        for side in (node.left, node.right)
        if isinstance(side, ast.Constant)
        and type(side.value) in (int, float)
        and abs(side.value) >= 1
        and side.value != 1
    ]
    assert not stray, f"name these multipliers in relctrl.config: {stray}"


def test_the_kernel_constants_follow_their_derivations():
    # The anchor step makes ||h A||_1 = 1, and the Taylor degree is the
    # least whose remainder sum_{j > d} 1 / j! at that norm is below the
    # unit roundoff.  The witness check adds that remainder to its bounds,
    # and halves an interval at most 12 times.
    def remainder(d):
        return sum(1.0 / math.factorial(j) for j in range(d + 1, d + 40))

    assert _ANCHOR_NORM == 1.0
    assert remainder(_TAYLOR_DEGREE) < 2.0**-53 <= remainder(_TAYLOR_DEGREE - 1)
    assert _TAYLOR_DEGREE == 18
    assert math.isclose(_TAYLOR_TAIL, remainder(_TAYLOR_DEGREE), rel_tol=1e-15)
    assert 8.6e-18 < _TAYLOR_TAIL < 8.7e-18
    assert _SPLIT_DEPTH == 12


def test_named_horizon_multipliers_equal_the_literals_they_replaced():
    assert BASE_TIME_CONSTANTS == 4         # base horizon 4 / max(1, remax)
    assert GAP_TIME_CONSTANTS == 8          # beat horizon 8 / gap
    assert HORIZON_CAP == 16                # cap in base horizons
    assert POINTS_PER_BASE == 64            # grid points per base horizon


def test_derived_scales_equal_the_literals_they_replaced():
    tol = DEFAULT_TOLERANCES
    assert DECADE * tol.eig == 1e-7         # restriction's invariance bound
    assert DECADE * tol.cone == 1e-7        # the falsifier's slack factor, its cap
    assert KKT == 1e-10                     # the nnls certificate constant
    assert WITNESS_GAIN == 0.1              # the falsifier's least gain
    assert CLUSTER_GAP == 2.0               # least gap between eigenvalue clusters, in tol
