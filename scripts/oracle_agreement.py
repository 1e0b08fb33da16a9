#!/usr/bin/env python3
"""Agreement study: graph-based verdicts against brute-force oracles.

Draws seeded random arrays (unit-edge inputs with random injection
vectors, relctrl.corpus.random_array_spec), runs the three decidable
oracles against the corresponding analyses and the polar falsifier on
every vertex pair, and reports the outcome counts.  A decidable oracle
that disagrees, or a falsifier witness against a positive pairwise
verdict, is a bug and exits nonzero.  A negative verdict without a
witness is not: the falsifier's silence proves nothing.

Usage:
    python scripts/oracle_agreement.py [--specs N] [--seed S]
"""

import argparse
import time

import numpy as np

from relctrl import (
    analyze,
    brammer_positive,
    kalman_reduced,
    pairwise_range,
    polar_falsifier,
)
from relctrl.corpus import random_array_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    counts = {"controllable": 0, "positive": 0, "pairs": 0, "pairs_yes": 0,
              "positive_pairs": 0, "witnessed": 0}
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
        checks = [
            ("kalman", report.controllable, kalman_reduced(spec)),
            ("brammer", report.positively_controllable, brammer_positive(spec)),
        ]
        for pair in pairs:
            checks.append(
                (f"range{pair}", report.pairwise[pair], pairwise_range(spec, *pair))
            )
            positive = report.positive_pairwise[pair].yes
            if polar_falsifier(spec, *pair) is not None:
                # A witness refutes positive steering; it must not meet a yes.
                checks.append((f"falsifier{pair}", positive, False))
                counts["witnessed"] += 1
            counts["pairs"] += 1
            counts["pairs_yes"] += report.pairwise[pair]
            counts["positive_pairs"] += positive
        for label, ours, oracle in checks:
            if ours != oracle:
                disagreements += 1
                print(f"DISAGREEMENT on spec {index} [{label}]: analysis={ours} oracle={oracle}")
        counts["controllable"] += report.controllable
        counts["positive"] += report.positively_controllable

    elapsed = time.perf_counter() - started
    negative = counts["pairs"] - counts["positive_pairs"]
    print(
        f"{args.specs} specs in {elapsed:.1f}s: "
        f"{counts['controllable']} controllable, {counts['positive']} positively controllable, "
        f"{counts['pairs_yes']}/{counts['pairs']} pairwise-controllable pairs, "
        f"{counts['positive_pairs']} positively pairwise-controllable, "
        f"falsifier witnesses for {counts['witnessed']}/{negative} negative ones, "
        f"{disagreements} disagreements"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
