"""One workload process: import the CLI, run whole passes through
``symmetria.cli.main`` and print a JSON summary of the passes.

    python3 perfbench/worker.py --workload NAME --seconds S --out DIR [--trace-out PATH]

Run from the repository root with ``src`` on PYTHONPATH (run.py does so).
A pass is one call of the CLI per seed of the workload; each call's wall
and CPU time run from the call into the CLI to its report written.  Passes
repeat until another one would overrun ``--seconds``, with at least
``MIN_PASSES`` so that outputs of the same seed can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from speed import SpeedProbe

MIN_PASSES = 2
# Seconds between speed samples inside a CLI call.  A traced run samples
# only around each call, so that the loop adds no time to any span.
SPEED_INTERVAL_S = 0.25

# name -> (kind, samples, seeds): one CLI call per seed in each pass.
WORKLOADS = {
    "verify_deep": ("verify", 250, (42,)),
    "verify_seeds": ("verify", 20, (1, 2, 3, 4, 5)),
    "dump_sweep": ("dump", 1000, (42,)),
}


def cli_argv(kind: str, samples: int, seed: int, out: str) -> list:
    if kind == "verify":
        return ["verify", "all", "--samples", str(samples), "--seed", str(seed),
                "--format", "json", "--out", out]
    return ["dump", "sweep", "--samples", str(samples), "--seed", str(seed), "--out", out]


def output_path(out_dir: str, pass_no: int, seed: int) -> str:
    return os.path.join(out_dir, f"pass{pass_no}_seed{seed}.json")


def run_pass(main, kind: str, samples: int, seeds, out_dir: str, pass_no: int,
             interval: float | None) -> dict:
    """Times of one pass, each CLI call timed on its own with the host's
    speed sampled around and inside it (speed.SpeedProbe)."""
    codes, calls = [], []
    for seed in seeds:
        with SpeedProbe(interval) as probe:
            try:
                codes.append(main(cli_argv(kind, samples, seed,
                                           output_path(out_dir, pass_no, seed))))
            except Exception:  # a crash is a failed pass, reported by run.py
                traceback.print_exc()
                codes.append(None)
        calls.append(probe)
    return {"wall_s": sum(c.wall for c in calls), "cpu_s": sum(c.cpu for c in calls),
            "scaled_wall_s": sum(c.scaled_wall for c in calls),
            "scaled_cpu_s": sum(c.scaled_cpu for c in calls), "codes": codes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="directory for the CLI outputs")
    ap.add_argument("--trace-out", help="trace every pass and save the spans here")
    args = ap.parse_args()
    kind, samples, seeds = WORKLOADS[args.workload]

    import symmetria.cli

    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    passes, marks = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            marks.append(tracer.mark())
        passes.append(run_pass(symmetria.cli.main, kind, samples, seeds, args.out, len(passes),
                               None if tracer else SPEED_INTERVAL_S))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall_s"] > args.seconds:
            break

    summary = {"passes": passes,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.save(args.trace_out, marks)
        summary["layers"] = tracer.layer_metrics(marks[1])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
