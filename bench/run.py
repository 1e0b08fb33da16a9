"""relctrl benchmark: one workload, one caller in a closed loop.

Usage (from the repository root):
    python3 bench/run.py --workload cone_ladder --seed 1 --seconds 30 --trace 0

The caller issues each call only after the previous one returns.  A pass
decides the workload's whole input list once; a run makes as many passes
as fit in --seconds at the speed measured when the benchmark was defined
(NOMINAL_PASS_S), at least two.  Verdicts are checked outside the timed
region, after the last pass.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it ("info: {...}") records the machine, library versions and
details such as the tail percentile and its sample count.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports per-layer self time and call counts per
pass, plus the tracing overhead; the spans go to bench/out/.
"""

import os
import time

# One caller, one thread: pin BLAS and OpenMP before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import relctrl  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, summarize  # noqa: E402

if Path(relctrl.__file__).resolve().parent != ROOT / "src" / "relctrl":
    raise SystemExit(f"relctrl imported from {relctrl.__file__}, not from {ROOT / 'src'}")

# Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 5

# Seconds one pass took at the commit that defined the benchmark (2-vCPU
# VM, one BLAS thread).  A run makes round(--seconds / nominal) passes, at
# least two, so that a faster program is compared over the same number of
# calls: the tail percentile depends on the call count.
NOMINAL_PASS_S = {"cone_ladder": 10.0, "rank_pairs": 5.0, "oracle_crosscheck": 13.0}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="relctrl benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the wall-clock time at the end, exit")
    return parser.parse_args(argv)


def set_up(workload, seed, spec_dir):
    """Generate inputs, write spec files and warm up on the smallest case."""
    cases = workloads.build(workload, seed, spec_dir)
    smallest = min(cases, key=lambda c: c.spec.q * c.spec.n * c.spec.p)
    smallest.run()
    return cases


def timed_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up.

    The child runs this script with --setup-only: import, input
    generation, spec-file writing and the warm-up call, as before the
    first timed call of a run.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    started = time.time()
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise SystemExit(f"set-up child failed:\n{child.stderr}")
    return float(child.stdout.split()[-1]) - started


def tail(durations):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); the value is the 11th largest.
    """
    ordered = sorted(durations)
    if len(ordered) < 11:
        raise SystemExit(f"{len(ordered)} calls: too few for a tail with 10 beyond it")
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def run_passes(cases, count, order_rng, recorder=None):
    """Closed loop over count whole passes; with a recorder, odd passes are traced.

    Each pass visits the cases in a fresh random order.  The machine's
    speed wanders over seconds; in a fixed order the cases that run next to
    each other, often of similar cost, would share one slow stretch and
    move the median call together.

    Returns per-pass (seconds, traced) and per-call (case index, seconds,
    result) records.
    """
    passes, calls = [], []
    for number in range(count):
        traced = recorder is not None and number % 2 == 1
        with recorder.installed() if traced else contextlib.nullcontext():
            t_pass = time.perf_counter()
            for index in order_rng.permutation(len(cases)).tolist():
                case = cases[index]
                if traced:
                    recorder.call = len(calls)
                result, spent = timed(case)
                calls.append((index, spent, result))
            passes.append((time.perf_counter() - t_pass, traced))
    return passes, calls


def timed(case):
    t0 = time.perf_counter()
    try:
        result = case.run()
    except Exception as exc:   # a raising call is a failed call, not a crash
        result = workloads.Result(failure=f"raised {type(exc).__name__}: {exc}", digest="")
    return result, time.perf_counter() - t0


def check(cases, calls):
    """Independent checks on each case's first result; then every call.

    A call fails when it raised, exited nonzero, gave a verdict an exact
    check contradicts, or gave output different from the case's first
    call.  correct is False when any verdict is wrong or unstable.
    """
    first = {}
    for index, _, result in calls:
        first.setdefault(index, result)
    wrong_cases, problems = set(), []
    for index, result in first.items():
        case = cases[index]
        if result.payload is None:
            problems.append(f"{case.label}: {result.failure}")
            continue
        verdict = case.check(result)
        if verdict.wrong:
            wrong_cases.add(index)
        problems += [f"{case.label}: WRONG {w}" for w in verdict.wrong]
        problems += [f"{case.label}: {n}" for n in verdict.notes]
    unstable = sum(1 for i, _, r in calls if r.digest != first[i].digest)
    failed = sum(
        1 for i, _, r in calls
        if r.failure is not None or i in wrong_cases or r.digest != first[i].digest
    )
    if unstable:
        problems.append(f"{unstable} calls gave output different from their first call")
    return not wrong_cases and not unstable, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="specs-") as tmp:
        cases = set_up(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(time.time())
            return 0
        setups = [] if args.trace else [timed_setup(args) for _ in range(SETUP_REPEATS)]

        recorder = None
        if args.trace:
            recorder = SpanRecorder()
            before = recorder.bindings()
        count = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        passes, calls = run_passes(cases, count, numpy.random.default_rng(args.seed), recorder)
        if recorder is not None and recorder.bindings() != before:
            raise SystemExit("tracing left a relctrl binding rebound")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, failed, problems = check(cases, calls)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cases": len(cases),
        "passes": len(passes),
        "fail_frac": failed / len(calls),
        "problems": problems,
    }
    if recorder is None:
        durations = [spent for _, spent, _ in calls]
        tail_s, tail_pct, samples = tail(durations)
        info.update(call_tail_percentile=tail_pct, call_samples=samples,
                    setup_runs_s=setups)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "total_s": (statistics.median(p for p, _ in passes), "s"),
            "call_p50_ms": (1e3 * statistics.median(durations), "ms"),
            "call_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / len(calls), "ratio"),
        }
    else:
        traced = [p for p, t in passes if t]
        plain = [p for p, t in passes if not t]
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(trace_path)
        info["spans"] = len(recorder.spans)
        info["span_file"] = str(trace_path.relative_to(ROOT))
        metrics = {
            name: (value, "s" if name.endswith("_s") else "count" if name.endswith("_calls") else "ratio")
            for name, value in summarize(recorder.spans, per=len(traced)).items()
        }
        metrics["trace.total_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
