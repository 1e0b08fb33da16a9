#!/usr/bin/env python3
"""Probe positive pairwise steering of a spec file with both evidence tools.

Runs the discretized reach simulator toward +/-(e_k - e_l) targets and
the deterministic polar-cone falsifier for the given pair, then prints
both outcomes next to the graph-based verdict.  Residuals are evidence,
not proof; a validated falsifier witness refutes positive steering on
the falsifier's finite horizon, and its absence proves nothing.

Usage:
    python scripts/reach_probe.py spec.json K L [--horizon T] [--steps M]
"""

import argparse
from pathlib import Path

from relctrl import DEFAULT_TOLERANCES, analyze, polar_falsifier, reach_simulator
from relctrl.cli import _above
from relctrl.oracles import REACH_HORIZON, REACH_STEPS, default_polar_grid
from relctrl.specio import load_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path)
    parser.add_argument("k", type=int)
    parser.add_argument("l", type=int)
    # The bounds of ``relctrl oracle``, checked before any analysis runs.
    parser.add_argument("--horizon", type=_above(0, float), default=REACH_HORIZON)
    parser.add_argument("--steps", type=_above(1, int), default=REACH_STEPS)
    args = parser.parse_args()

    spec, tol = load_spec(args.path)
    tol = tol or DEFAULT_TOLERANCES
    verdict = analyze(spec, [(args.k, args.l)], tol).positive_pairwise[args.k, args.l]
    label = "yes" if verdict.yes else "no"
    if verdict.conditional:
        label += " (conditional)"
    print(f"graph verdict for positive ({args.k},{args.l}) steering: {label}")

    results = reach_simulator(spec, args.k, args.l, args.horizon, args.steps, tol.zero)
    for r in results:
        direction = "+" if r.target[r.target.nonzero()[0][0]] > 0 else "-"
        print(
            f"  reach target {direction}: residual {r.residual:.3e}"
            f" {'(hit)' if r.hit else ''}"
        )

    grid = default_polar_grid(spec)
    witness = polar_falsifier(
        spec, args.k, args.l, grid=grid, tol_zero=tol.zero, tol_cone=tol.cone
    )
    if witness is None:
        print(f"  falsifier: no witness on horizon {grid[-1]:.4g} (proves nothing)")
    else:
        print(f"  falsifier: validated witness found: {witness.round(6)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
