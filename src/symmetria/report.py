"""Report rows and their aggregation/rendering for the batch runner.

A Row is one named verification with an optional residual/tolerance pair;
a CheckReport groups the rows of one suite with pass/fail tallies.
``CheckReport.check`` is the one way a row is recorded: it times the row,
folds its residuals, turns a raising row into a FAIL row, and settles its
status.  JSON output is deterministic: sorted keys, full float precision,
and no timing fields.  Row times are float milliseconds and appear only in
the text rendering, which is not required to be byte-stable across runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from .numerics import worst_of


class Row:
    """One row of a report, recorded by ``CheckReport.check``.

    ``observe`` folds residuals with ``worst_of``, so one NaN anywhere makes
    the row's residual NaN and fails it; a residual may be an ndarray of
    per-sample residuals, folded whole.  ``require`` adds a condition that
    must hold.  With ``tol`` the row passes when its residual is at most
    ``tol``; with ``detect`` (a mutation control) when its residual exceeds
    that threshold; with neither when every condition holds.  A ``skipped``
    row is informative and asserts nothing.
    """

    def __init__(self, name: str, ref: str, tol: float | None = None, samples: int = 1,
                 detect: float | None = None, detail: str = "", skipped: bool = False):
        self.name = name
        self.ref = ref
        self.tolerance = tol
        self.samples = samples
        self.detect = detect
        self.detail = detail
        self.skipped = skipped
        self.residual = None
        self.ok = True
        self.status = ""
        self.elapsed_ms = None
        self.siblings = []

    def observe(self, *residuals: float) -> None:
        if self.residual is not None:
            residuals = (self.residual, *residuals)
        self.residual = worst_of(*residuals)

    def require(self, condition: bool) -> None:
        self.ok = self.ok and bool(condition)

    def sibling(self, name: str, ref: str, **kwargs) -> Row:
        """Another row fed by the same block; the block's time is recorded
        once, on this row."""
        row = Row(name, ref, **kwargs)
        self.siblings.append(row)
        return row

    def settle(self) -> None:
        """Set ``status``, once, after the block that fed the row ends."""
        passed = self.ok
        if self.detect is not None:
            passed = passed and self.residual > self.detect
            self.detail = self.detail or f"mutation must push the residual above {self.detect:g}"
        elif self.tolerance is not None:
            passed = passed and self.residual <= self.tolerance
        self.status = "skipped" if self.skipped else "pass" if passed else "fail"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.ref,
            "status": self.status,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "detail": self.detail,
        }


class CheckReport:
    """The rows of one suite, in the order they were recorded."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checks = []

    @contextmanager
    def check(self, name: str, ref: str, **kwargs):
        """Record one row (plus its siblings) from the block this wraps.

        Keyword arguments are those of ``Row``.  The block's wall time goes
        to the row as float milliseconds.  A block that raises ``ValueError``
        (every package error is one) or ``ArithmeticError`` stops there: the
        row and its siblings are recorded as FAIL with the exception in
        ``detail``, and the suite goes on to its next row.  Other exceptions
        are programming errors; they propagate and record nothing."""
        row = Row(name, ref, **kwargs)
        t0 = time.perf_counter()
        try:
            yield row
        except (ValueError, ArithmeticError) as exc:
            for r in (row, *row.siblings):
                r.ok = False
                r.detail = f"{type(exc).__name__}: {exc}"
        row.elapsed_ms = 1000.0 * (time.perf_counter() - t0)
        rows = (row, *row.siblings)
        for r in rows:
            r.settle()
        self.checks += rows

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skipped")

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
        }


def render_json(reports: list[CheckReport], config: dict) -> str:
    doc = {
        "version": "1",
        "config": config,
        "reports": [r.to_json() for r in reports],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(v: float | None) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}"


def render_text(reports: list[CheckReport], config: dict) -> str:
    lines = []
    lines.append(f"symmetria verification report  (seed={config.get('seed')}, "
                 f"tol={config.get('tol')}, samples={config.get('samples')})")
    total = passed = failed = 0
    for rep in reports:
        lines.append("")
        lines.append(f"[{rep.suite}]")
        for c in sorted(rep.checks, key=lambda c: c.name):
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            lines.append(f"  {mark:4s}  {c.name:44s} residual={_fmt(c.residual):>12s}"
                         f"  tol={_fmt(c.tolerance):>9s}  n={c.samples:<4d} [{c.ref}]"
                         + (f"  ({c.elapsed_ms:.3f} ms)" if c.elapsed_ms is not None else ""))
            if c.status == "fail" and c.detail:
                lines.append(f"        {c.detail}")
        lines.append(f"  -- {rep.passed}/{rep.total} passed, {rep.failed} failed, "
                     f"{rep.skipped} informative")
        total += rep.total
        passed += rep.passed
        failed += rep.failed
    lines.append("")
    lines.append(f"TOTAL: {passed}/{total} passed, {failed} failed")
    return "\n".join(lines) + "\n"
