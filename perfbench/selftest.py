"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Run from the repository root.  It produces small genuine outputs through
the CLI, requires the checks in perfbench/checks.py to accept them, then
feeds the checks doctored copies and requires each one to be rejected for
the reason it was doctored for.  Exit code 0 means every doctored output
was caught.
"""

from __future__ import annotations

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, "src")

from checks import (check_dump, check_same_rows, check_verify_report,  # noqa: E402
                    guarded, zero_lattice_period, DUMP_K)

SEED = 42
SAMPLES = 20
OUT = os.path.join(".perfbench_out", "selftest")


def cli_output(argv: list, name: str):
    from symmetria.cli import main

    path = os.path.join(OUT, name)
    code = main(argv + ["--out", path])
    if code != 0:
        raise SystemExit(f"symmetria {' '.join(argv)} exited {code}")
    with open(path) as fh:
        return json.load(fh)


def row(doc: dict, suite: str, name: str) -> dict:
    rep = next(r for r in doc["reports"] if r["suite"] == suite)
    return next(c for c in rep["checks"] if c["name"] == name)


def doctored_reports(doc: dict):
    """(label, doctored report, word the rejection must mention)."""
    def edit(fn):
        d = copy.deepcopy(doc)
        fn(d)
        return d

    def drop(d, fix_summary):
        rep = next(r for r in d["reports"] if r["suite"] == "rotations")
        gone = rep["checks"].pop(0)
        if fix_summary:
            rep["summary"]["total"] -= 1
            rep["summary"]["passed"] -= gone["status"] == "pass"

    yield ("row flipped to fail",
           edit(lambda d: row(d, "sklyanin", "quantum_yang_baxter").update(status="fail")),
           "status fail")
    yield ("NaN residual",
           edit(lambda d: row(d, "poincare", "interval_preserved").update(residual=float("nan"))),
           "not finite")
    yield ("residual above its tolerance",
           edit(lambda d: row(d, "galilei", "compose_matches_sequential_action")
                .update(residual=1.0)), "> tolerance")
    yield ("mutation control failing",
           edit(lambda d: row(d, "sklyanin", "mutation_control_perturbed_weight")
                .update(status="fail")), "status fail")
    yield ("dropped row", edit(lambda d: drop(d, False)), "does not count")
    yield ("dropped row, summary adjusted", edit(lambda d: drop(d, True)), "other rows")
    yield ("dropped sweep row",
           edit(lambda d: next(r for r in d["reports"] if r["suite"] == "sklyanin")["checks"]
                .remove(row(d, "sklyanin", "classical_yang_baxter"))), "sweep row missing")
    yield ("reduced samples",
           edit(lambda d: row(d, "sklyanin", "classical_yang_baxter")
                .update(samples=SAMPLES - 1)), "samples")
    yield ("reduced samples in the config",
           edit(lambda d: d["config"].update(samples=SAMPLES - 1)), "config samples")
    yield ("row without a status",
           edit(lambda d: row(d, "hopf", "coassociativity").pop("status")), "malformed")


def doctored_dumps(records: list):
    period = zero_lattice_period(DUMP_K)

    def edit(i, **fields):
        d = copy.deepcopy(records)
        d[i].update(fields)
        return d

    yield "dump residual above tolerance", edit(3, residual=2e-9), "residual"
    yield "dump NaN residual", edit(4, residual=float("nan")), "non-finite"
    yield "dump pair with u on the zero lattice", edit(5, u=period), "zero lattice"
    yield "dump pair with u - v on the zero lattice", edit(6, u=records[6]["v"]), "zero lattice"
    yield "dump record dropped", records[:-1], "records, expected"
    yield "dump record not an object", records[:-1] + [None], "not an object"


def with_doctored_weight(records: list, recheck: tuple) -> list:
    """check_dump on genuine records while the program's W1 is scaled by
    1.001: only the recheck against mpmath can see this."""
    from symmetria import sklyanin

    genuine = sklyanin.quantum_W

    def off(u, p):
        w1, w2, w3 = genuine(u, p)
        return w1 * 1.001, w2, w3

    sklyanin.quantum_W = off
    try:
        return guarded(check_dump, records, SAMPLES, recheck)
    finally:
        sklyanin.quantum_W = genuine


def verify_problems(doc: dict, reference: dict) -> list:
    return guarded(check_verify_report, doc, SEED, SAMPLES) + guarded(check_same_rows,
                                                                     [reference, doc])


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    report = cli_output(["verify", "all", "--samples", str(SAMPLES), "--seed", str(SEED),
                         "--format", "json"], "verify.json")
    records = cli_output(["dump", "sweep", "--samples", str(SAMPLES), "--seed", str(SEED)],
                         "dump.json")
    recheck = tuple(range(SAMPLES))
    cases = [("genuine verify report", verify_problems(report, report), None),
             ("genuine dump", check_dump(records, SAMPLES, recheck), None)]
    cases += [(label, verify_problems(d, report), word) for label, d, word in doctored_reports(report)]
    cases += [(label, guarded(check_dump, d, SAMPLES, recheck), word)
              for label, d, word in doctored_dumps(records)]
    doctored = with_doctored_weight(records, recheck)
    others = [msg for _, msg in doctored if "program R" not in msg]
    cases.append(("program W1 scaled by 1.001, genuine dump",
                  doctored if not others else [(None, "also rejected by: " + others[0])],
                  "differs from the mpmath R"))

    ok = True
    for label, problems, word in cases:
        hits = [msg for _, msg in problems if word is not None and word in msg]
        good = bool(hits) if word is not None else not problems
        ok &= good
        shown = hits[0] if hits else (problems[0][1] if problems else "accepted")
        print(f"{'ok  ' if good else 'FAIL'} {label}: {shown}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
