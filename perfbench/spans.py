"""In-memory span tracer for the symmetria layers.

``Tracer.install()`` replaces every function defined at module level in a
layer module with a wrapper that records a span (name, start, end, parent)
around each call.  The wrapper is put at every name a caller looks up: the
defining module, every other ``symmetria`` module that imported the
function by name (``from .numerics import kron``), and the ``SUITES``
dispatch table.  There is no uninstall: the tracer lives as long as the
workload process.  Spans stay in flat arrays until ``save`` writes them
out; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

from checks import SUITE_NAMES

# Modules under symmetria that are traced.  The runner layer ("suites",
# "report", "cli") is traced like the numeric layers; suite.<name>.wall_s
# comes from the SUITES table.
LAYERS = ("elliptic", "numerics", "sklyanin", "spacetime", "liealg", "laplace",
          "fullerene", "hopf", "suites", "report", "cli")

# (metric, kind): kind "calls" is an exact count, "self_s" the span time
# minus child spans in seconds, "us_per_call" the whole span time per call
# in microseconds.  Function names drop a leading underscore.
FUNCTION_METRICS = (
    ("elliptic.sn_cn_dn_complex", ("calls", "self_s")),
    ("elliptic.sn_cn_dn_real", ("calls", "self_s")),
    ("elliptic.quarter_period", ("calls",)),
    ("numerics.kron", ("calls", "self_s")),
    ("numerics.as_matrix", ("calls", "self_s")),
    ("numerics.fd_laplacian", ("calls", "self_s")),
    ("numerics.integrate_periodic", ("calls", "self_s")),
    ("sklyanin.embed_pair", ("calls", "self_s")),
    ("sklyanin.qybe_residual", ("calls", "us_per_call")),
    ("sklyanin.cybe_residual", ("calls", "us_per_call")),
    ("sklyanin.rll_residual", ("calls", "us_per_call")),
    ("sklyanin.poisson_jacobi_defect", ("self_s",)),
    ("sklyanin.classical_limit_probe", ("self_s",)),
    ("spacetime.poincare_apply", ("calls", "us_per_call")),
    ("spacetime.poincare_compose", ("calls", "us_per_call")),
    ("spacetime.galilei_apply", ("calls", "us_per_call")),
    ("spacetime.boost_matrix", ("calls",)),
    ("spacetime.conformal_flatness_check", ("self_s",)),
    ("liealg.check_structure", ("self_s",)),
    ("liealg.verify_realization", ("self_s",)),
    ("laplace.integral_rep", ("calls",)),
    ("laplace.calibrate_proportionality", ("self_s",)),
    ("laplace.flux_through_sphere", ("self_s",)),
    ("fullerene.automorphism_order", ("self_s",)),
    ("fullerene.kekule", ("self_s",)),
    ("fullerene.build_truncated_icosahedron", ("self_s",)),
    ("hopf.planck_commutator_residual", ("self_s",)),
    ("hopf.planck_coproduct_residual", ("self_s",)),
    ("hopf.coassociativity_residual", ("self_s",)),
    ("report.render_json", ("self_s",)),
)

# Module self time is reported for these layers; "cli" includes the JSON
# dump of `dump sweep`, which runs inside cli.cmd_dump.
MODULE_SELF = ("elliptic", "numerics", "sklyanin", "spacetime", "liealg", "laplace",
               "fullerene", "hopf", "suites", "cli")

UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order (the
    set-up metrics come from the set-up probes, not from spans)."""
    out = [(f"{layer}.self_s", "s") for layer in MODULE_SELF]
    out += [(f"{fn}.{kind}", UNITS[kind]) for fn, kinds in FUNCTION_METRICS for kind in kinds]
    out += [(f"suite.{name}.wall_s", "s") for name in SUITE_NAMES]
    out += [("setup.import_numpy_s", "s"), ("setup.import_symmetria_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, fn, span_name: str):
        nid = self._name_id.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter
        stack, name, parent, start, end = (self._stack, self.name, self.parent,
                                           self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every module-level function of every layer at every name
        the package's modules look it up by."""
        modules = {layer: importlib.import_module(f"symmetria.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr.lstrip('_')}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        table = modules["suites"].SUITES
        for suite, fn in list(table.items()):
            table[suite] = self._wrap(wrapped.get(fn, fn), f"suite.{suite}")

    def mark(self) -> int:
        """Index of the next span; spans of one pass lie between two marks."""
        return len(self.name)

    def save(self, path: str, marks: list):
        np.savez(path, names=np.array(self.names), pass_start=np.array(marks),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

    def layer_metrics(self, stop: int) -> dict:
        """Figures of the spans before index `stop`: the first pass, which is
        the one pass a CLI user's process runs."""
        name = np.frombuffer(self.name, dtype=np.int32)[:stop]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:stop]
        dur = (np.frombuffer(self.end, dtype=np.float64)[:stop]
               - np.frombuffer(self.start, dtype=np.float64)[:stop])
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=stop)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        ids = {s: i for i, s in enumerate(self.names)}
        out = {}
        for layer in MODULE_SELF:
            sel = [i for s, i in ids.items() if s.startswith(layer + ".")]
            out[f"{layer}.self_s"] = float(own[sel].sum())
        for fn, kinds in FUNCTION_METRICS:
            i = ids.get(fn)
            c = int(calls[i]) if i is not None else 0
            for kind in kinds:
                if kind == "calls":
                    out[f"{fn}.{kind}"] = c
                elif kind == "self_s":
                    out[f"{fn}.{kind}"] = float(own[i]) if c else 0.0
                else:
                    out[f"{fn}.{kind}"] = 1e6 * float(total[i]) / c if c else 0.0
        for suite in SUITE_NAMES:
            i = ids.get(f"suite.{suite}")
            out[f"suite.{suite}.wall_s"] = float(total[i]) if i is not None else 0.0
        return out
