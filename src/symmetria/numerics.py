"""Shared numeric substrate: dense complex matrices, periodic quadrature,
finite-difference stencils (one field call on the stencil cloud of a
point array), and rejection sampling.

Matrices are plain numpy arrays of complex128; ``as_matrix`` is the single
validation gate (shape and finiteness) and ``kron`` the one Kronecker
product.  All residuals elsewhere are measured in the sup norm (max |entry|).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class QuadratureEvaluationError(ValueError):
    """Integrand returned a non-finite value; carries the offending node
    (and point, for a stack)."""

    def __init__(self, node: float, value: complex, point: int | None = None):
        self.node = node
        self.value = value
        self.point = point
        at = "" if point is None else f" of point {point}"
        super().__init__(f"integrand non-finite at t={node!r}{at}: {value!r}")


def as_matrix(entries) -> np.ndarray:
    """Validate and return a 2-D complex matrix: reject non-2-D input and any
    non-finite entry, in one pass (a complex number is finite exactly when
    both of its parts are)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices as one broadcast product: entry
    for entry the same products, so the same bits, as ``np.kron``."""
    (m, n), (p, r) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * r)


def sup_norm(m) -> float:
    """Max absolute entry; the residual norm used throughout."""
    return float(np.max(np.abs(np.asarray(m))))


def worst_of(*values) -> float:
    """Largest of the values as a float, or NaN if any of them is NaN.

    This is the one fold rule for residuals.  Builtin ``max`` drops a NaN
    that is not its first argument (``max(0.0, nan) == 0.0``), so a broken
    sample would vanish from a running worst and its check would pass.
    A value may be an ndarray of per-sample residuals; it is folded whole
    (any NaN in it gives NaN, else its max) and an empty one adds nothing.
    """
    out = -math.inf
    for v in values:
        if isinstance(v, np.ndarray):
            if v.size == 0:
                continue
            v = math.nan if np.isnan(v).any() else v.max()
        v = float(v)
        if v != v:
            return math.nan
        if v > out:
            out = v
    return out


def require(ok, message: str, error: type = ValueError, witness=None) -> None:
    """Raise error(message) unless every entry of the boolean array `ok`
    holds.  In a stack the message names the first element that fails, and
    a `{}` in it shows `witness` at that element."""
    ok = np.asarray(ok)
    if not ok.all():
        at = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
        if witness is not None:
            message = message.format(repr(witness[at]))
        raise error(message + ("" if not at else f" (element {at[0] if len(at) == 1 else at})"))


def integrate_periodic(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       nodes: int = 129) -> complex | np.ndarray:
    """Composite Simpson quadrature of int_a^b f(t) dt on ``nodes`` equally
    spaced nodes, an odd count of at least 3.

    ``f`` is called once, on the array of nodes, and returns the integrand
    values on the last axis: ``(nodes,)`` gives one value, ``(..., nodes)``
    an array.  The rule converges geometrically for integrands that are
    smooth and periodic on [a, b].  A non-finite value raises
    ``QuadratureEvaluationError`` naming the first node (and point) that
    produced one.
    """
    if nodes < 3:
        raise ValueError("nodes must be >= 3")
    if nodes % 2 == 0:
        raise ValueError("composite Simpson requires an odd node count")
    if not b > a:
        raise ValueError("integration interval requires b > a")
    t = np.linspace(a, b, nodes)
    vals = np.asarray(f(t), dtype=complex)
    if vals.shape[-1:] != t.shape:
        raise ValueError(f"integrand returned shape {vals.shape} for {nodes} nodes")
    bad = ~np.isfinite(vals)
    if bad.any():
        first = int(np.argmax(bad))
        point, i = divmod(first, nodes)
        raise QuadratureEvaluationError(float(t[i]), complex(vals.flat[first]),
                                        point if vals.ndim > 1 else None)
    h = (b - a) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * np.sum(w * vals, axis=-1)


class FDStencil:
    """Central finite-difference stencil: order 2 or 4, a finite step > 0."""

    def __init__(self, step: float, order: int = 4):
        if not 0.0 < step < math.inf:  # written so that a NaN fails
            raise ValueError("step must be finite and positive")
        if order not in (2, 4):
            raise ValueError("order must be 2 or 4")
        self.step = step
        self.order = order


# Defaults per the numeric tuning used across the verification suites.
LAPLACIAN_STENCIL = FDStencil(step=1e-3, order=4)
JACOBIAN_STENCIL = FDStencil(step=1e-5, order=2)
POLAR_STENCIL = FDStencil(step=1e-3, order=2)
CURVATURE_STENCIL = FDStencil(step=1e-2, order=2)

# (derivative, order) -> (offsets, weights, divisor): f^(deriv)(x) ~=
# sum_i weights[i] f(x + offsets[i] h) / (divisor h^deriv), the central
# formulas of Fornberg (1988), with the terms in the order they are summed.
# (1, 8) is the Planck grid's derivative (hopf); FDStencil takes orders 2 and 4.
CENTRAL_STENCILS = {
    (1, 2): ((1, -1), (1.0, -1.0), 2.0),
    (1, 4): ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), 12.0),
    (2, 2): ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    (2, 4): ((2, 1, 0, -1, -2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
    (1, 8): ((4, 3, 2, 1, -1, -2, -3, -4),
             (-3.0, 32.0, -168.0, 672.0, -672.0, 168.0, -32.0, 3.0), 840.0),
}


def stencil_sum(nodes, step: float, deriv: int, order: int):
    """sum_i weights[i] nodes[i] / (divisor step^deriv), term by term in
    order, for the ``CENTRAL_STENCILS`` entry (deriv, order); nodes[i] holds
    the values at offsets[i] steps."""
    _, weights, divisor = CENTRAL_STENCILS[deriv, order]
    total = None
    for vals, w in zip(nodes, weights):
        term = w * vals
        total = term if total is None else total + term
    for _ in range(deriv):
        divisor *= step
    return total / divisor


def fd_partials(f: Callable[[np.ndarray], np.ndarray], points, stencil: FDStencil,
                deriv: int = 1) -> np.ndarray:
    """Every deriv-th partial, (n, M, ...) axis first, of ``f`` at an (n, M)
    point array, from one call of ``f`` on the (n, n S M) cloud of every
    axis and stencil node; ``f`` maps (n, K) points to values with the
    point on the leading axis.

    Exact (up to rounding) on polynomials of degree <= order + deriv - 1.
    """
    offsets = CENTRAL_STENCILS[deriv, stencil.order][0]
    # the centre shift is -0.0, so x + shift is x there, a -0.0 coordinate included
    shifts = np.array([off * stencil.step if off else -0.0 for off in offsets])
    p = np.asarray(points, dtype=float)
    if p.ndim != 2:
        raise ValueError(f"points must be an (n, M) array, got shape {p.shape}")
    n, m = p.shape
    cloud = np.broadcast_to(p[:, None, None], (n, n, len(offsets), m)).copy()
    cloud[range(n), range(n)] = p[:, None] + shifts[:, None]
    vals = np.asarray(f(cloud.reshape(n, -1)))
    vals = vals.reshape((n, len(offsets), m) + vals.shape[1:])
    return stencil_sum(vals.swapaxes(0, 1), stencil.step, deriv, stencil.order)


def fd_laplacian(field: Callable[[np.ndarray], np.ndarray], points,
                 stencil: FDStencil = LAPLACIAN_STENCIL) -> np.ndarray:
    """The M sums of second partials of ``field`` at an (n, M) point array by
    central differences, from one call of ``field`` (see ``fd_partials``).
    Exact (up to rounding) on polynomials of degree <= order + 1.
    """
    return sum(fd_partials(field, points, stencil, deriv=2))


def accepted_rows(draw: Callable[[int], np.ndarray], keep: Callable[[np.ndarray], np.ndarray],
                  count: int) -> np.ndarray:
    """The first ``count`` rows, in draw order, of the blocks ``draw(m)``
    that pass the row mask ``keep(block)``.

    Each round draws only the m rows still missing.  So when ``draw(m)``
    gives the rows of m one-row draws, as a numpy generator's block does,
    this draws exactly the rows of a loop that draws one row at a time
    until ``count`` of them pass.
    """
    rows = draw(count)
    rows = rows[keep(rows)]
    while len(rows) < count:
        more = draw(count - len(rows))
        rows = np.concatenate((rows, more[keep(more)]))
    return rows


def fd_jacobian(mapping: Callable[[np.ndarray], np.ndarray], points,
                stencil: FDStencil = JACOBIAN_STENCIL) -> np.ndarray:
    """(M, n, n) Jacobians J[m, i, j] ~= d mapping_i / d x_j at (n, M) points
    by central differences; ``mapping`` takes (n, K) points to (n, K) images."""
    return fd_partials(lambda q: mapping(q).T, points, stencil).transpose(1, 2, 0)
