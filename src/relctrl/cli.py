"""Command-line front end.

Usage:
    relctrl analyze spec.json [--pair K L ...] [--json] [--dot DIR] [--tol-* X]
    relctrl examples NAME [--out PATH]
    relctrl oracle spec.json [--pair K L ...] [--json] [--tol-* X]

Vertex and input indices are 1-based everywhere.  Exit codes: 0 success,
1 usage, parse, validation or file error, 2 numerical failure, 3 oracle disagreement.

``oracle`` runs ``relctrl.oracles.cross_check`` on the report of
``analyze``.  Its falsifier and reach evidence read one cone of input
responses sampled on a grid chosen from the spectrum, so the command
takes no grid options; the ``--tol-*`` flags reach every oracle, the
reach hit rule (``--tol-cone``) included.

``main`` parses with one parser, built at its first call and kept for the
life of the process, so that a process that calls it many times builds
the argparse tree once; ``build_parser`` returns a fresh one.  The
command is looked up by name at each call, so a ``cmd_*`` function
rebound on this module is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .array_model import require_valid, validate_array
from .config import DEFAULT_TOLERANCES, Tolerances
from .controllability import analyze, analyze_with_graphs
from .corpus import build_example
from .errors import (
    AnalysisError,
    DimensionError,
    InvalidArrayError,
    SpecFormatError,
    UnsupportedRenderError,
)
from .gengraph import to_dot
from .oracles import cross_check
from .report import render_json, render_text
from .specio import load_spec, save_spec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_DISAGREEMENT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relctrl",
        description=(
            "Decide controllability, positive controllability and their pairwise "
            "variants for arrays of identical systems under relative actuation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerance_flags(p):
        p.add_argument("--tol-rank", type=float, default=None, metavar="X")
        p.add_argument("--tol-cone", type=float, default=None, metavar="X")
        p.add_argument("--tol-eig", type=float, default=None, metavar="X")
        p.add_argument("--tol-zero", type=float, default=None, metavar="X")

    pa = sub.add_parser("analyze", help="run the four graph analyses on a spec file")
    pa.add_argument("path", type=Path)
    pa.add_argument(
        "--pair",
        nargs=2,
        type=int,
        action="append",
        default=[],
        metavar=("K", "L"),
        help="vertex pair for the pairwise verdicts (repeatable, 1-based)",
    )
    pa.add_argument("--json", action="store_true", help="emit the JSON report")
    pa.add_argument("--dot", type=Path, default=None, metavar="DIR",
                    help="write one DOT file per scalar-edge graph")
    add_tolerance_flags(pa)

    pe = sub.add_parser("examples", help="write a bundled example spec file")
    pe.add_argument("name")
    pe.add_argument("--out", type=Path, default=None, metavar="PATH")

    po = sub.add_parser("oracle", help="cross-check the analyses with brute-force oracles")
    po.add_argument("path", type=Path)
    po.add_argument("--pair", nargs=2, type=int, action="append", default=[],
                    metavar=("K", "L"))
    po.add_argument("--json", action="store_true")
    add_tolerance_flags(po)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process."""
    return build_parser()


def _command(name: str):
    """The ``cmd_*`` function of a subcommand, as this module binds it now."""
    return {"analyze": cmd_analyze, "examples": cmd_examples, "oracle": cmd_oracle}[name]


def _tolerances(args, file_tolerances: Tolerances | None) -> Tolerances:
    # Precedence: command-line flag, then spec file, then defaults.
    base = file_tolerances or DEFAULT_TOLERANCES
    return base.override(
        rank=args.tol_rank, cone=args.tol_cone, eig=args.tol_eig, zero=args.tol_zero
    )


def _load(args) -> tuple:
    spec, file_tol = load_spec(args.path)
    tol = _tolerances(args, file_tol)
    try:
        return require_valid(spec, tol.zero), tol
    except InvalidArrayError:
        for v in validate_array(spec, tol.zero).violations:
            print(
                f"validation: {v.kind} at {v.location} (magnitude {v.magnitude:g})",
                file=sys.stderr,
            )
        raise SpecFormatError(f"{args.path}: array spec failed validation") from None


def _write_dot_files(report, graphs, directory: Path) -> None:
    """Draw every scalar-edge graph of ``analyze_with_graphs`` as a DOT file."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = report.name or "array"
    for kind, family in graphs.items():
        for kappa, G in enumerate(family, start=1):
            try:
                text = to_dot(G)
            except UnsupportedRenderError:
                continue   # a hyperedge column has no drawing
            (directory / f"{stem}_{kind.lower()}_k{kappa}.dot").write_text(text)


def cmd_analyze(args) -> int:
    spec, tol = _load(args)
    report, graphs = analyze_with_graphs(spec, [tuple(p) for p in args.pair], tol)
    if args.dot is not None:
        _write_dot_files(report, graphs, args.dot)
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return EXIT_OK


def cmd_examples(args) -> int:
    try:
        spec = build_example(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_INPUT
    out = args.out or Path(f"{args.name}.json")
    save_spec(spec, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec, tol = _load(args)
    report = analyze(spec, [tuple(p) for p in args.pair], tol)
    verdicts = cross_check(spec, report)
    if args.json:
        payload = [
            {
                "name": v.name,
                "agrees": v.agrees,
                "detail": v.detail,
                # + 0.0 maps -0.0 to 0.0, so that the sign of a component
                # rounded away does not reach the output.
                "witness": (
                    None if v.witness is None else list(np.round(v.witness, 12) + 0.0)
                ),
            }
            for v in verdicts
        ]
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for v in verdicts:
            mark = "?" if v.agrees is None else ("ok" if v.agrees else "DISAGREES")
            sys.stdout.write(f"{v.name:<24s} {mark:<10s} {v.detail}\n")
    if any(v.agrees is False for v in verdicts):
        return EXIT_DISAGREEMENT
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is the
        # code for a numerical failure here.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _command(args.command)(args)
    except (SpecFormatError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AnalysisError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
