#!/usr/bin/env python3
"""Agreement study: graph-based verdicts against brute-force oracles.

Draws seeded random arrays (unit-edge inputs with random injection
vectors, relctrl.corpus.random_array_spec), analyzes each at every
vertex pair, runs relctrl.cross_check on the report (the same oracles
as ``relctrl oracle``, the polar falsifier on every pair and the reach
evidence on every positive one included) and reports the outcome
counts.  A decidable oracle that disagrees, or a falsifier witness
against a positive pairwise verdict, is a bug and exits nonzero.  A
negative verdict without a witness is not: the falsifier's silence
proves nothing, and neither does a positive one without reach evidence.

Usage:
    python scripts/oracle_agreement.py [--specs N] [--seed S]
"""

import argparse
import time

import numpy as np

from relctrl import analyze, cross_check
from relctrl.corpus import random_array_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    counts = {"controllable": 0, "positive": 0, "pairs": 0, "pairs_yes": 0,
              "positive_pairs": 0, "reached": 0, "witnessed": 0}
    disagreements = 0
    started = time.perf_counter()
    for index in range(args.specs):
        spec = random_array_spec(rng)
        pairs = [
            (k, l)
            for k in range(1, spec.q + 1)
            for l in range(1, spec.q + 1)
            if k != l
        ]
        report = analyze(spec, pairs=pairs)
        verdicts = cross_check(spec, report)
        for v in verdicts:
            if v.agrees is False:
                disagreements += 1
                print(f"DISAGREEMENT on spec {index} [{v.name}]: {v.detail}")
        counts["witnessed"] += sum(v.witness is not None for v in verdicts)
        counts["reached"] += sum(
            v.agrees is True for v in verdicts if v.name.startswith("reach_simulator")
        )
        counts["controllable"] += report.controllable
        counts["positive"] += report.positively_controllable
        counts["pairs"] += len(pairs)
        counts["pairs_yes"] += sum(report.pairwise.values())
        counts["positive_pairs"] += sum(v.yes for v in report.positive_pairwise.values())

    elapsed = time.perf_counter() - started
    negative = counts["pairs"] - counts["positive_pairs"]
    print(
        f"{args.specs} specs in {elapsed:.1f}s: "
        f"{counts['controllable']} controllable, {counts['positive']} positively controllable, "
        f"{counts['pairs_yes']}/{counts['pairs']} pairwise-controllable pairs, "
        f"{counts['positive_pairs']} positively pairwise-controllable, "
        f"reach evidence for {counts['reached']}/{counts['positive_pairs']} positive ones, "
        f"falsifier witnesses for {counts['witnessed']}/{negative} negative ones, "
        f"{disagreements} disagreements"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
