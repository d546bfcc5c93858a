"""Property checks on the outputs of `symmetria verify` and `dump sweep`.

Every check here is a property the output must have whatever the seed,
never a comparison with a saved copy of an earlier output.  Each function
returns a list of ``(index, message)`` problems; an empty list means the
output is accepted.  ``index`` is the position of the row or record at
fault, or ``None`` for a fault of the whole output.
"""

from __future__ import annotations

import math

import numpy as np

SUITE_NAMES = ("rotations", "galilei", "poincare", "conformal", "laplace",
               "fullerene", "hopf", "sklyanin")

# Sweep rows whose `samples` must equal the requested --samples (plus the
# fixed extra draws the suite adds).
SWEEP_ROWS = {
    ("sklyanin", "classical_yang_baxter"): 0,
    ("sklyanin", "quantum_yang_baxter"): 20,
    ("galilei", "compose_matches_sequential_action"): 0,
    ("poincare", "compose_matches_sequential_action"): 0,
}

# `dump sweep` contract: sklyanin.QuantumRParams(eta=0.3, k=0.5), pairs drawn
# by sklyanin.sweep_samples with its documented margin from the real zero
# lattice of sn, and the CLI's default tolerance for the residuals.
DUMP_ETA = 0.3
DUMP_K = 0.5
DUMP_MARGIN = 0.05
DUMP_TOL = 1e-9
# K from scipy and from the program's AGM may differ in the last bits.
LATTICE_SLACK = 1e-12


def guarded(check, *args) -> list:
    """``check(*args)``, or one fault of the whole output if checking it
    raises, as a missing field or a field of the wrong type does."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - any crash of a check is a fault
        return [(None, f"malformed output: {type(exc).__name__}: {exc}")]


def rows(doc: dict) -> list:
    """Flattened (suite, check) rows of a verify report in report order."""
    return [(rep["suite"], c) for rep in doc["reports"] for c in rep["checks"]]


def check_verify_report(doc: dict, seed: int, samples: int) -> list:
    """Properties of one `verify all --format json` report."""
    problems = []
    cfg = doc.get("config", {})
    if cfg.get("samples") != samples or cfg.get("seed") != seed:
        problems.append((None, f"config samples/seed {cfg.get('samples')}/"
                                f"{cfg.get('seed')} != requested {samples}/{seed}"))
    suites = [rep["suite"] for rep in doc.get("reports", [])]
    if suites != list(SUITE_NAMES):
        problems.append((None, f"suites {suites} != {list(SUITE_NAMES)}"))
    for rep in doc.get("reports", []):
        checks = rep["checks"]
        summary = rep["summary"]
        statuses = [c["status"] for c in checks]
        counted = (len(checks), statuses.count("pass"), statuses.count("fail"))
        if counted != (summary["total"], summary["passed"], summary["failed"]):
            problems.append((None, f"{rep['suite']}: summary {summary} does not "
                                f"count its {len(checks)} rows"))
    present = set()
    for i, (suite, c) in enumerate(rows(doc)):
        name = f"{suite}.{c['name']}"
        present.add((suite, c["name"]))
        res, tol = c.get("residual"), c.get("tolerance")
        if c["status"] not in ("pass", "skipped"):
            problems.append((i, f"{name}: status {c['status']}"))
        if c["status"] == "skipped" and c["name"].startswith("mutation_control_"):
            problems.append((i, f"{name}: mutation control skipped"))
        if res is not None and not math.isfinite(res):
            problems.append((i, f"{name}: residual {res} not finite"))
        elif res is not None and tol is not None and not res <= tol:
            problems.append((i, f"{name}: residual {res} > tolerance {tol}"))
        extra = SWEEP_ROWS.get((suite, c["name"]))
        if extra is not None and c["samples"] != samples + extra:
            problems.append((i, f"{name}: samples {c['samples']} != {samples + extra}"))
    for suite, row in SWEEP_ROWS:
        if (suite, row) not in present:
            problems.append((None, f"{suite}.{row}: sweep row missing"))
    return problems


def check_same_rows(docs: list) -> list:
    """Every report of one run lists the same rows, whatever its seed."""
    names = [[(s, c["name"]) for s, c in rows(d)] for d in docs]
    return [(None, f"report {i} lists other rows than report 0")
            for i, n in enumerate(names) if n != names[0]]


def zero_lattice_period(k: float) -> float:
    """2K(k), the period of the real zeros of sn, from scipy (parameter m = k^2)."""
    from scipy.special import ellipk

    return 2.0 * float(ellipk(k * k))


def _lattice_distance(x: float, period: float) -> float:
    return abs(x - period * round(x / period))


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_I2 = np.eye(2, dtype=complex)
# The program's R(x) must match the mpmath one entry by entry to this
# share of max(1, |R|): a few hundred ulps of the AGM and Landen steps.
R_AGREEMENT = 1e-12


def _mp_weights(u: float) -> tuple:
    """(W1, W2, W3) of the quantum R-matrix at u + i eta from mpmath's
    Jacobi functions of parameter m = k^2."""
    import mpmath

    def sn_cn_dn(z):
        return [mpmath.ellipfun(f, z, m=DUMP_K * DUMP_K) for f in ("sn", "cn", "dn")]

    s, c, d = sn_cn_dn(mpmath.mpc(u, DUMP_ETA))
    se, ce, de = sn_cn_dn(mpmath.mpc(0, DUMP_ETA))
    return tuple(complex(w) for w in (se / s, (d / s) * (se / de), (c / s) * (se / ce)))


def mp_quantum_r(u: float) -> np.ndarray:
    """R(u) = 1 + sum_a W_a(u) s_a x s_a, a 4x4 matrix, with mpmath weights."""
    return np.eye(4, dtype=complex) + sum(
        w * np.kron(s, s) for w, s in zip(_mp_weights(u), _PAULI))


def kron_embed(r4: np.ndarray, first: int, second: int) -> np.ndarray:
    """Embed a 4x4 operator on legs (first, second) of C^2 x C^2 x C^2 by
    expanding it in Pauli products and Kronecker products with the identity."""
    basis = (_I2,) + _PAULI
    out = np.zeros((8, 8), dtype=complex)
    for a, sa in enumerate(basis):
        for b, sb in enumerate(basis):
            coeff = np.trace(np.kron(sa, sb).conj().T @ r4) / 4.0
            ops = [_I2, _I2, _I2]
            ops[first], ops[second] = sa, sb
            out = out + coeff * np.kron(np.kron(ops[0], ops[1]), ops[2])
    return out


def program_recheck(u: float, v: float) -> list:
    """Messages for one dumped (u, v): the program's own R-matrices
    (``symmetria.sklyanin.quantum_R``) at u - v, u and v must agree with
    the mpmath ones, and their QYBE defect, embedded here by plain
    Kronecker products, must stay within the dump tolerance."""
    from symmetria import sklyanin

    params = sklyanin.QuantumRParams(eta=DUMP_ETA, k=DUMP_K)
    mats = {}
    msgs = []
    for label, x in (("u - v", u - v), ("u", u), ("v", v)):
        ours, ref = np.asarray(sklyanin.quantum_R(x, params)), mp_quantum_r(x)
        gap = float(np.max(np.abs(ours - ref))) / max(1.0, float(np.max(np.abs(ref))))
        if not gap <= R_AGREEMENT:
            msgs.append(f"program R({label}) differs from the mpmath R by {gap:.3g} "
                        f"> {R_AGREEMENT}")
        mats[label] = ours
    r12 = kron_embed(mats["u - v"], 0, 1)
    r13 = kron_embed(mats["u"], 0, 2)
    r23 = kron_embed(mats["v"], 1, 2)
    defect = float(np.max(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12)))
    if not defect <= DUMP_TOL:
        msgs.append(f"QYBE defect {defect:.3g} of the program R > {DUMP_TOL}")
    return msgs


def check_dump(records, samples: int, recheck: tuple = ()) -> list:
    """Properties of one `dump sweep` output; `recheck` lists record indices
    at which the program's R-matrices are checked against mpmath."""
    if not isinstance(records, list) or len(records) != samples:
        n = len(records) if isinstance(records, list) else "no list"
        return [(None, f"{n} records, expected {samples}")]
    problems = []
    period = zero_lattice_period(DUMP_K)
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            problems.append((i, f"record {i}: not an object"))
            continue
        u, v, res = rec.get("u"), rec.get("v"), rec.get("residual")
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (u, v, res)):
            problems.append((i, f"record {i}: non-finite or missing u, v or residual"))
            continue
        if not res <= DUMP_TOL:
            problems.append((i, f"record {i}: residual {res} > {DUMP_TOL}"))
        for label, x in (("u", u), ("v", v), ("u - v", u - v)):
            if _lattice_distance(x, period) < DUMP_MARGIN - LATTICE_SLACK:
                problems.append((i, f"record {i}: {label} = {x} within {DUMP_MARGIN} "
                                     f"of the zero lattice 2K Z"))
    bad = {p[0] for p in problems}
    for i in recheck:
        if i not in bad:
            problems += [(i, f"record {i}: {msg}")
                         for msg in program_recheck(records[i]["u"], records[i]["v"])]
    return problems
