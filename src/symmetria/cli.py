"""Batch command-line runner.

    symmetria verify <suite>... [--tol R] [--seed N] [--samples N]
                                [--format text|json] [--out PATH]
    symmetria dump <algebra|graph|sweep> --out PATH [--seed N] [--samples N]

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or I/O
error.  Identical configuration yields byte-identical JSON; the
SYMMETRIA_TOL environment variable overrides the default tolerance and the
--tol flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fullerene, liealg, sklyanin
from .report import render_json, render_text
from .suites import SUITE_NAMES, run_suites, suite_rng

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100


class UsageError(Exception):
    pass


def _default_tol() -> float:
    env = os.environ.get("SYMMETRIA_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        value = float(env)
    except ValueError as exc:
        raise UsageError(f"SYMMETRIA_TOL is not a number: {env!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"SYMMETRIA_TOL must be positive and finite, got {env!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmetria",
        description="run verification suites for symmetry-group identities")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one or more named suites")
    verify.add_argument("suites", nargs="+",
                        help=f"suite names: {', '.join(SUITE_NAMES)}, or 'all'")
    verify.add_argument("--tol", type=float, default=None,
                        help="residual tolerance for the randomized sweeps")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report to this path")

    dump = sub.add_parser("dump", help="export JSON artifacts")
    dump.add_argument("kind", choices=("algebra", "graph", "sweep"))
    dump.add_argument("--out", required=True)
    dump.add_argument("--seed", type=int, default=DEFAULT_SEED)
    dump.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    return parser


def _resolve_suites(requested) -> list:
    names = []
    for name in requested:
        if name == "all":
            for s in SUITE_NAMES:
                if s not in names:
                    names.append(s)
            continue
        if name not in SUITE_NAMES:
            raise UsageError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITE_NAMES)} or 'all'")
        if name not in names:
            names.append(name)
    return names


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from exc


def cmd_verify(args) -> int:
    names = _resolve_suites(args.suites)
    tol = args.tol if args.tol is not None else _default_tol()
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"--tol must be positive and finite, got {tol!r}")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    reports = run_suites(names, seed=args.seed, tol=tol, samples=args.samples)
    config = {"suites": names, "tol": tol, "seed": args.seed,
              "samples": args.samples, "format": args.format}
    if args.format == "json":
        _write(render_json(reports, config), args.out)
    else:
        _write(render_text(reports, config), args.out)
    return 0 if all(r.failed == 0 for r in reports) else 1


# One `dump sweep` record as json.dumps(..., sort_keys=True, indent=2)
# writes it: %r of a Python float is json's spelling of a finite float.
_SWEEP_RECORD = '  {\n    "residual": %r,\n    "u": %r,\n    "v": %r\n  }'


def _sweep_json(residual, u, v) -> str:
    """json.dumps(records, sort_keys=True, indent=2) + "\\n", byte for
    byte, for the records {"u", "v", "residual"} of one sweep, written
    through _SWEEP_RECORD without building them.  NaN and the infinities
    take json's spellings NaN, Infinity and -Infinity (no other text of the
    output holds "nan" or "inf")."""
    rows = zip(*(np.asarray(x, dtype=float).tolist() for x in (residual, u, v)))
    text = "[\n" + ",\n".join(_SWEEP_RECORD % row for row in rows) + "\n]\n"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def cmd_dump(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.kind == "sweep":
        # the bytes of json.dumps(records, sort_keys=True, indent=2) + "\n":
        # sorted keys, 2-space indent, NaN/Infinity/-Infinity for non-finite
        # values; one record per sample, so written through a template
        # rather than json's pure-Python indent encoder
        p = sklyanin.QuantumRParams(eta=0.3, k=0.5)
        rng = suite_rng(args.seed, "sklyanin-sweep")
        u, v = sklyanin.sweep_samples(rng, p.k, args.samples).T
        _write(_sweep_json(sklyanin.qybe_residual(u, v, p), u, v), args.out)
        return 0
    if args.kind == "algebra":
        doc = {
            "galilei": liealg.structure_to_json(liealg.galilei_structure()),
            "poincare": liealg.structure_to_json(liealg.poincare_structure()),
        }
    else:
        g = fullerene.build_truncated_icosahedron()
        doc = fullerene.graph_to_json(g, fullerene.kekule(g))
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        if args.seed < 0:
            raise UsageError("--seed must be non-negative")
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_dump(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
