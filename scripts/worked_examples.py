#!/usr/bin/env python3
"""Analyze every bundled example array and print a verdict summary.

Reproduces the headline facts: the two-pump tank array is controllable
but not positively controllable, the ring variants earn every verdict,
oscillator array (b) loses controllability at exactly one eigenvalue
pair, and the fourth-order counterexample separates pairwise
controllability from eigenvector-graph pairwise connectivity.

Usage:
    python scripts/worked_examples.py [--full] [--dot DIR]

--full prints the complete per-eigenvalue report for each array instead
of the one-line summary; --dot exports the scalar-edge graphs.
"""

import argparse
from pathlib import Path

from relctrl import analyze_with_graphs, build_example, example_names, render_text
from relctrl.cli import _write_dot_files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--dot", type=Path, default=None)
    args = parser.parse_args()

    for name in example_names():
        spec = build_example(name)
        pairs = [(2, 3)] if name == "counterexample-23" else [(1, 2)]
        report, graphs = analyze_with_graphs(spec, pairs)
        if args.dot is not None:
            _write_dot_files(report, graphs, args.dot)
        if args.full:
            print(render_text(report))
            continue
        pair = pairs[0]
        positive_pair = report.positive_pairwise[pair]
        summary = (
            f"{name:<24s} controllable={'yes' if report.controllable else 'no':<4s}"
            f" positive={'yes' if report.positively_controllable else 'no':<4s}"
            f" {pair}={'yes' if report.pairwise[pair] else 'no':<4s}"
            f" positive{pair}={'yes' if positive_pair.yes else 'no'}"
        )
        if positive_pair.conditional:
            summary += " (conditional)"
        print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
