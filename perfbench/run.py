"""symmetria benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in one fresh process
(perfbench/worker.py); set-up time comes from separate fresh processes that
only import the CLI.  Every output is checked (perfbench/checks.py) and a
failed check counts as failed operations.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end figures, with --trace 1 the per-layer figures
of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_dump, check_same_rows, check_verify_report, guarded, rows  # noqa: E402
from spans import metric_names  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from worker import WORKLOADS, output_path  # noqa: E402

OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 25
# The whole run ends within RUN_LIMIT_S: the workload process gets what is
# left after set-up, less SCORING_S for checking its outputs.
RUN_LIMIT_S = 170
SCORING_S = 25
PROBE_TIMEOUT_S = 30
# Records of the first dump pass at which the program's R-matrices are
# checked against mpmath.
DUMP_RECHECK = (0, 249, 499, 749, 999)

PROBE = """
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import symmetria.cli
t2 = time.perf_counter()
sys.path.insert(0, {here!r})
from speed import calibrate
print(json.dumps({{"numpy": t1 - t0, "symmetria": t2 - t1, "cal": calibrate()[0]}}))
""".format(here=HERE)


def child_env() -> dict:
    """The environment of every process the benchmark starts: `src` on the
    path and one BLAS thread.  On a shared 2-vCPU host, two BLAS threads wait
    on each other whenever the second vCPU is busy elsewhere, and the `hopf`
    rows then took anywhere from 0.3 to 1.6 s per pass (README, Run shape)."""
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> dict:
    """Median import times over fresh processes, each scaled by the speed
    of the calibration loop run in the same process after the imports.
    One unmeasured probe first writes the bytecode caches, which an
    installed package already has."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                             text=True, check=True, timeout=PROBE_TIMEOUT_S)
        if i:
            samples.append(json.loads(out.stdout))
    scale = [REFERENCE_S / s["cal"] for s in samples]
    numpy_s = [s["numpy"] * k for s, k in zip(samples, scale)]
    sym_s = [s["symmetria"] * k for s, k in zip(samples, scale)]
    return {"setup_s": statistics.median(a + b for a, b in zip(numpy_s, sym_s)),
            "setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_symmetria_s": statistics.median(sym_s)}


def run_worker(workload: str, seconds: float, trace: int, out_dir: str, env: dict,
               timeout: float) -> dict:
    """The workload process's summary.  If it crashes or overruns `timeout`,
    a summary of one pass in which every CLI call failed, so that every
    operation counts as failed; its times are those of the dead process."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seconds", str(seconds), "--out", out_dir]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT_ROOT, f"trace_{workload}.npz")]
    t0 = time.perf_counter()
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"check failed: workload process exited {proc.returncode}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"check failed: workload process killed after {timeout:.0f} s", file=sys.stderr)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (c1.ru_utime + c1.ru_stime) - (c0.ru_utime + c0.ru_stime)
    seeds = WORKLOADS[workload][2]
    wall = time.perf_counter() - t0
    return {"passes": [{"wall_s": wall, "cpu_s": cpu, "scaled_wall_s": wall,
                        "scaled_cpu_s": cpu, "codes": [None] * len(seeds)}],
            "peak_rss_mb": c1.ru_maxrss / 1024.0, "layers": {}}


def read(path: str):
    """Bytes and parsed JSON of one output; (None, None) if it is missing
    or does not parse."""
    try:
        with open(path) as fh:
            text = fh.read()
        return text, json.loads(text)
    except (OSError, ValueError):
        return None, None


def failed_ops(found: list, n_ops: int) -> int:
    """A fault of a whole output fails all its operations; otherwise each
    faulty row or record counts once."""
    if any(i is None for i, _ in found):
        return n_ops
    return len({i for i, _ in found})


def count_rows(doc) -> int | None:
    try:
        return len(rows(doc))
    except Exception:  # noqa: BLE001 - a malformed report has no row count
        return None


def score_verify(passes: list, samples: int, seeds, out_dir: str):
    """(attempted, failed, problems): one operation per report row."""
    outputs = {(n, seed): (code,) + read(output_path(out_dir, n, seed))
               for n, p in enumerate(passes) for seed, code in zip(seeds, p["codes"])}
    parsed = [doc for _, _, doc in outputs.values() if count_rows(doc) is not None]
    # An output that does not parse still counts the rows it should have had.
    expected = max((count_rows(d) for d in parsed), default=1)
    attempted = failed = 0
    problems = []
    for (n, seed), (code, text, doc) in outputs.items():
        n_ops = count_rows(doc)
        if n_ops is None:
            found, n_ops = [(None, "no well-formed JSON report")], expected
        else:
            found = (guarded(check_verify_report, doc, seed, samples)
                     + guarded(check_same_rows, [parsed[0], doc]))
        if code != 0:
            found.append((None, f"exit code {code}"))
        if text != outputs[0, seed][1]:
            found.append((None, "JSON differs from pass 0 at the same seed"))
        attempted += n_ops
        failed += failed_ops(found, n_ops)
        problems += [f"pass {n} seed {seed}: {msg}" for _, msg in found]
    return attempted, failed, problems


def score_dump(passes: list, samples: int, seeds, out_dir: str):
    """(attempted, failed, problems): one operation per (u, v) record."""
    attempted = failed = 0
    problems = []
    first = None
    for n, p in enumerate(passes):
        for seed, code in zip(seeds, p["codes"]):
            text, records = read(output_path(out_dir, n, seed))
            first = text if first is None else first
            found = guarded(check_dump, records, samples, DUMP_RECHECK if n == 0 else ())
            if code != 0:
                found.append((None, f"exit code {code}"))
            if text != first:
                found.append((None, "JSON differs from pass 0"))
            attempted += samples
            failed += failed_ops(found, samples)
            problems += [f"pass {n} seed {seed}: {msg}" for _, msg in found]
    return attempted, failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded only: each workload's CLI seeds are fixed (README)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "symmetria", "cli.py")):
        print("error: run from the root of a symmetria checkout (no src/symmetria/cli.py)",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    # The dump checks compare the program's own R-matrices with mpmath's.
    sys.path.insert(0, os.path.abspath("src"))
    kind, samples, seeds = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = child_env()

    setup = measure_setup(env)
    budget = RUN_LIMIT_S - SCORING_S - (time.perf_counter() - start)
    summary = run_worker(args.workload, args.seconds, args.trace, out_dir, env, budget)
    passes = summary["passes"]
    score = score_verify if kind == "verify" else score_dump
    attempted, failed, problems = score(passes, samples, seeds, out_dir)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    wall = statistics.median(p["scaled_wall_s"] for p in passes)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pass_wall_s": [p["wall_s"] for p in passes], "scaled_wall_s": wall}))
    if args.trace:
        values = {**summary["layers"], **{k: v for k, v in setup.items() if k != "setup_s"}}
        # A dead workload process leaves no spans; its run reads 0 and fails.
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(p["scaled_cpu_s"] for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
