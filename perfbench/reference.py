"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py

Run from the repository root.  For each workload it makes RUNS untraced
runs of perfbench/run.py with seeds 1..RUNS, each as long as BENCHMARK.json's
run_seconds, and one traced run, then prints in Markdown: the median and
quartiles of every end-to-end metric with the interquartile spread as a
share of the median, the tracing overhead (traced minus untraced scaled
median pass wall time), the per-layer figures of the traced runs, and each
verify row's residual/tolerance headroom from the outputs the traced runs
leave (tracing does not change the report bytes).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import rows  # noqa: E402
from worker import WORKLOADS, output_path  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(scaled median pass wall time, result) of one run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-2])["scaled_wall_s"], json.loads(out[-1])


def spread_table(results: dict) -> list:
    lines = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | failed/attempted |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for m in END_TO_END:
            v = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(v, n=4)
            lines.append(f"| {workload} | {m} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{(q3 - q1) / med:.3f} | {failed}/{attempted} |")
    return lines


def layer_table(traced: dict) -> list:
    names = list(next(iter(traced.values()))["metrics"])
    lines = ["| metric | unit | " + " | ".join(traced) + " |",
             "| --- | --- |" + " --- |" * len(traced)]
    for name in names:
        cells = [traced[w]["metrics"][name] for w in traced]
        unit = cells[0]["unit"]
        shown = [f"{c['value']:d}" if unit == "count" else f"{c['value']:.4g}" for c in cells]
        lines.append(f"| {name} | {unit} | " + " | ".join(shown) + " |")
    return lines


def headroom_table(out_root: str = ".perfbench_out") -> list:
    """Largest residual/tolerance per row over the verify outputs on disk;
    a zero tolerance reads 0 when the residual is exactly 0."""
    verify = [w for w, (kind, _, _) in WORKLOADS.items() if kind == "verify"]
    worst = {}
    for workload in verify:
        for seed in WORKLOADS[workload][2]:
            with open(output_path(os.path.join(out_root, workload), 0, seed)) as fh:
                doc = json.load(fh)
            for suite, c in rows(doc):
                res, tol = c["residual"], c["tolerance"]
                if res is None or tol is None or c["status"] == "skipped":
                    continue
                ratio = res / tol if tol > 0 else (0.0 if res == 0 else float("inf"))
                row = worst.setdefault(f"{suite}.{c['name']}", {"tol": tol})
                row[workload] = max(row.get(workload, 0.0), ratio)
    lines = ["| row | tolerance | " + " | ".join(verify) + " |",
             "| --- | --- |" + " --- |" * len(verify)]
    for name, row in sorted(worst.items()):
        lines.append(f"| {name} | {row['tol']:g} | "
                     + " | ".join(f"{row[w]:.3g}" for w in verify) + " |")
    return lines


def main() -> int:
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    results, traced, overhead = {}, {}, []
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        results[workload] = [r for _, r in runs]
        untraced_wall = statistics.median(wall for wall, _ in runs)
        traced_wall, traced[workload] = bench(workload, 1, seconds, 1)
        overhead.append(f"| {workload} | {untraced_wall:.3f} | {traced_wall:.3f} | "
                        f"{traced_wall - untraced_wall:+.3f} |")

    print("\n".join(spread_table(results)))
    print()
    print("| workload | untraced wall_s (s) | traced wall_s (s) | overhead (s) |")
    print("| --- | --- | --- | --- |")
    print("\n".join(overhead))
    print()
    print("\n".join(layer_table(traced)))
    print()
    print("\n".join(headroom_table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
