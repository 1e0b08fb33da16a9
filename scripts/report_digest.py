#!/usr/bin/env python3
"""Print one SHA-1 per report output over a fixed corpus.

Two trees whose reports are byte-identical print identical lines, so a
change meant to keep every verdict and every byte can be checked by
running this script once against each tree's package and comparing:

    PYTHONPATH=old/src python scripts/report_digest.py > old.txt
    PYTHONPATH=new/src python scripts/report_digest.py > new.txt
    diff old.txt new.txt

The corpus is fixed, so the script takes no options:

    examples/*        ``analyze`` + ``render_json`` of the six bundled
                      examples, with every ordered pair and with none;
    damped-q12-n6/*   the same for tests/golden/damped-q12-n6-spec.json,
                      at the file's tolerances;
    random-600/*      the same for 600 ``random_array_spec`` arrays drawn
                      from numpy's default_rng(20261018);
    oracle            ``relctrl oracle --json`` with every ordered pair
                      (``--pair K L`` each) on the six examples, exit
                      codes included;
    dot               ``to_dot`` of every drawable graph that
                      ``analyze_with_graphs`` returns for the six
                      examples and the damped spec, in family (V, W, Q)
                      and eigenvalue order, as ``relctrl analyze --dot``
                      draws them;
    tolerances        ``render_json`` with every ordered pair and ``to_dot``
                      of every drawable graph, for the six examples, the
                      damped spec and an array of two inputs 1e-6 apart
                      in direction, each under two fixed ``Tolerances``
                      (one with every entry moved off its default, one
                      with rank 1e-3 alone), so that a tolerance that
                      stops reaching a code path shows;
    text              ``render_text``, the default output of ``relctrl
                      analyze``, for the six examples and the damped
                      spec, with every ordered pair and with none;
    oracle-tolerances the ``oracle`` corpus under each of the two
                      ``Tolerances`` of ``tolerances``, passed as
                      ``--tol-*`` flags, so that an oracle scale that
                      stops following the user shows;
    graphs            the exact bytes, dtype and shape of every V, W and Q
                      matrix that ``analyze_with_graphs`` returns (no
                      pairs) for the six examples, the damped spec and
                      random-600, at their own tolerances and under each
                      ``Tolerances`` of ``tolerances``, so that a last-bit
                      change in a graph, which ``dot``'s four digits
                      hide, shows.

An analysis that raises contributes its error type and message instead
of a report.  The whole run takes a few seconds.

Usage:
    python scripts/report_digest.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from relctrl import (
    ArraySpec,
    Tolerances,
    analyze,
    analyze_with_graphs,
    build_example,
    example_names,
    render_json,
    render_text,
)
from relctrl.cli import main as relctrl_main
from relctrl.corpus import random_array_spec
from relctrl.errors import AnalysisError, UnsupportedRenderError
from relctrl.gengraph import to_dot
from relctrl.specio import load_spec, save_spec

DAMPED = Path(__file__).resolve().parents[1] / "tests" / "golden" / "damped-q12-n6-spec.json"
TOLERANCE_SETS = (Tolerances(rank=1e-7, cone=1e-6, eig=1e-9, zero=1e-8), Tolerances(rank=1e-3))


def _all_pairs(q):
    return [(k, l) for k in range(1, q + 1) for l in range(1, q + 1) if k != l]


def _leaning_inputs():
    # Inputs e1 - e2 and e1 - e2 + 1e-6 (1, 1, -2): controllable at rank
    # tolerance 1e-9, not at 1e-3.
    e = np.array([1.0, -1.0, 0.0])
    G = np.column_stack([e, e + 1e-6 * np.array([1.0, 1.0, -2.0])])
    return ArraySpec.from_incidence([[0.0]], G, name="leaning-inputs")


def _error_bytes(exc) -> bytes:
    return f"error: {type(exc).__name__}: {exc}\n".encode()


def _report_bytes(spec, pairs, tolerances=None, render=render_json) -> bytes:
    try:
        return render(analyze(spec, pairs, tolerances)).encode()
    except AnalysisError as exc:
        return _error_bytes(exc)


def _drawing_bytes(report, graphs) -> bytes:
    """``to_dot`` of every graph, family and eigenvalue order; ``hyperedge`` if not drawable."""
    out = []
    for kind, family in graphs.items():
        for kappa, G in enumerate(family, start=1):
            try:
                text = to_dot(G)
            except UnsupportedRenderError:
                text = "hyperedge\n"
            out.append(f"{report.name} {kind} k{kappa}\n{text}")
    return "".join(out).encode()


def _digest_reports(label, cases) -> None:
    """Print the digests of one corpus with all ordered pairs and with none."""
    full, bare = hashlib.sha1(), hashlib.sha1()
    for spec, tolerances in cases:
        full.update(_report_bytes(spec, _all_pairs(spec.q), tolerances))
        bare.update(_report_bytes(spec, (), tolerances))
    print(f"{full.hexdigest()}  {label}/all-pairs")
    print(f"{bare.hexdigest()}  {label}/no-pairs")


def _tolerance_flags(tolerances) -> list[str]:
    return [
        arg for name in ("rank", "cone", "eig", "zero")
        for arg in (f"--tol-{name}", repr(getattr(tolerances, name)))
    ]


def _digest_oracles(label, flag_sets) -> None:
    """``relctrl oracle --json`` on the six examples, once per set of extra flags."""
    digest = hashlib.sha1()
    with tempfile.TemporaryDirectory() as tmp:
        for flags in flag_sets:
            for name in example_names():
                path = Path(tmp) / f"{name}.json"
                spec = build_example(name)
                save_spec(spec, path)
                pairs = [arg for k, l in _all_pairs(spec.q) for arg in ("--pair", str(k), str(l))]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = relctrl_main(["oracle", str(path), "--json", *pairs, *flags])
                digest.update(f"{name} exit {code}\n{out.getvalue()}".encode())
    print(f"{digest.hexdigest()}  {label}")


def _digest_drawings(cases) -> None:
    digest = hashlib.sha1()
    for spec, tolerances in cases:
        digest.update(_drawing_bytes(*analyze_with_graphs(spec, (), tolerances)))
    print(f"{digest.hexdigest()}  dot")


def _digest_tolerances(specs) -> None:
    digest = hashlib.sha1()
    for tolerances in TOLERANCE_SETS:
        for spec in specs:
            try:
                report, graphs = analyze_with_graphs(spec, _all_pairs(spec.q), tolerances)
            except AnalysisError as exc:
                digest.update(_error_bytes(exc))
                continue
            digest.update(render_json(report).encode())
            digest.update(_drawing_bytes(report, graphs))
    print(f"{digest.hexdigest()}  tolerances")


def _digest_text(cases) -> None:
    digest = hashlib.sha1()
    for spec, tolerances in cases:
        for pairs in (_all_pairs(spec.q), ()):
            digest.update(_report_bytes(spec, pairs, tolerances, render_text))
    print(f"{digest.hexdigest()}  text")


def _digest_graphs(specs) -> None:
    digest = hashlib.sha1()
    for tolerances in (None, *TOLERANCE_SETS):
        for spec in specs:
            try:
                _, graphs = analyze_with_graphs(spec, (), tolerances)
            except AnalysisError as exc:
                digest.update(_error_bytes(exc))
                continue
            for kind, family in graphs.items():
                for G in family:
                    digest.update(f"{kind} {G.M.dtype} {G.M.shape}\n".encode())
                    digest.update(np.ascontiguousarray(G.M).tobytes())
    print(f"{digest.hexdigest()}  graphs")


def main() -> int:
    examples = [(build_example(name), None) for name in example_names()]
    _digest_reports("examples", examples)
    _digest_reports("damped-q12-n6", [load_spec(DAMPED)])
    rng = np.random.default_rng(20261018)
    randoms = [random_array_spec(rng) for _ in range(600)]
    _digest_reports("random-600", [(spec, None) for spec in randoms])
    _digest_oracles("oracle", [[]])
    _digest_drawings(examples + [load_spec(DAMPED)])
    _digest_tolerances([spec for spec, _ in examples] + [load_spec(DAMPED)[0], _leaning_inputs()])
    _digest_text(examples + [load_spec(DAMPED)])
    _digest_oracles("oracle-tolerances", [_tolerance_flags(t) for t in TOLERANCE_SETS])
    _digest_graphs([spec for spec, _ in examples] + [load_spec(DAMPED)[0], *randoms])
    return 0


if __name__ == "__main__":
    sys.exit(main())
