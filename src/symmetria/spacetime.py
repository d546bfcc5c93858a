"""Concrete group elements and actions on space-time.

Rotation classification, Galilei transformations with their composition
law, Poincare transformations in the displacement/boost/rotation
factorization (composed through a 5x5 affine embedding), both applied to
(N, 4) arrays of (t, x, y, z) events by one kernel per group, the discrete
inversions, and conformal dilations/inversions with pullback-metric,
flatness, and wave-operator scaling checks.

Conventions: Minkowski metric diag(-1,1,1,1); natural units c = 1; boosts
use the passive form r' = -gamma v t at r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .numerics import FDStencil, JACOBIAN_STENCIL, fd_jacobian, sup_norm, worst_of

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

ROTATION_TOL = 1e-10


class NullConeError(ValueError):
    """Evaluation point too close to an excluded null cone."""


def minkowski_interval(dx):
    """eta(dx, dx) over the last axis: a float for one 4-vector difference
    (t, x, y, z), an (N,) array for an (N, 4) stack of them."""
    dx = np.asarray(dx, dtype=float)
    # a (1, 4) @ (4, 1) product per row: np.vecdot would need numpy >= 2
    s = ((dx @ ETA)[..., None, :] @ dx[..., :, None])[..., 0, 0]
    return float(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.r.shape != (3,) or not np.isfinite(self.r).all() or not math.isfinite(self.t):
            raise ValueError("space-time point needs finite t and a finite 3-vector r")

    def as4(self) -> np.ndarray:
        return np.concatenate([[self.t], self.r])


def _events(X) -> np.ndarray:
    """Validate an (N, 4) array of finite (t, x, y, z) events."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 4 or not np.isfinite(X).all():
        raise ValueError("events must be an (N, 4) array of finite (t, x, y, z) rows")
    return X


def _require_finite(group: str, R: np.ndarray, shift: float, *vectors: np.ndarray) -> None:
    """The element's vector parameters are 3-vectors, and its rotation
    block, time shift and vectors are finite (checked in one pass, since
    elements are built once per sample)."""
    if any(x.shape != (3,) for x in vectors):
        raise ValueError(f"{group} vector parameters must have shape (3,)")
    if not (math.isfinite(shift) and np.isfinite(np.concatenate((R.ravel(), *vectors))).all()):
        raise ValueError(f"{group} parameters must be finite")


def classify_rotation(m, tol: float = ROTATION_TOL) -> str:
    """'proper', 'improper', or 'not_orthogonal' by the six orthonormality
    conditions on rows plus the determinant sign."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("rotation candidates are 3x3")
    gram = m @ m.T
    if sup_norm(gram - np.eye(3)) > tol:
        return "not_orthogonal"
    det = float(np.linalg.det(m))
    if abs(det - 1.0) <= tol:
        return "proper"
    if abs(det + 1.0) <= tol:
        return "improper"
    return "not_orthogonal"


def rotation_about(axis, angle: float) -> np.ndarray:
    """Proper rotation by `angle` about a 3-vector axis (Rodrigues form)."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


# ---------------------------------------------------------------------------
# Galilei group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalileiElement:
    """G(R, v, xi, tau): x' = R x + v t + xi, t' = t + tau."""

    R: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        _require_finite("Galilei", self.R, self.tau, self.v, self.xi)
        if classify_rotation(self.R) != "proper":
            raise ValueError("Galilei rotation block must be proper orthogonal")

    @staticmethod
    def identity() -> "GalileiElement":
        return GalileiElement(np.eye(3), np.zeros(3), np.zeros(3), 0.0)


def galilei_apply_events(g: GalileiElement, X) -> np.ndarray:
    """Apply g to each row of an (N, 4) event array: t' = t + tau,
    r' = R r + v t + xi."""
    X = _events(X)
    t = X[:, :1]
    return np.hstack((t + g.tau, X[:, 1:] @ g.R.T + t * g.v + g.xi))


def galilei_apply(g: GalileiElement, pt: SpacetimePoint) -> SpacetimePoint:
    out = galilei_apply_events(g, pt.as4()[None])[0]
    return SpacetimePoint(out[0], out[1:])


def galilei_compose(g2: GalileiElement, g1: GalileiElement) -> GalileiElement:
    """Parameters of g2 g1: (R2 R1, R2 v1 + v2, R2 xi1 + xi2 + v2 tau1, tau2 + tau1)."""
    return GalileiElement(
        R=g2.R @ g1.R,
        v=g2.R @ g1.v + g2.v,
        xi=g2.R @ g1.xi + g2.xi + g2.v * g1.tau,
        tau=g2.tau + g1.tau,
    )


def galilei_inverse(g: GalileiElement) -> GalileiElement:
    rt = g.R.T
    return GalileiElement(
        R=rt,
        v=-rt @ g.v,
        xi=-rt @ (g.xi - g.v * g.tau),
        tau=-g.tau,
    )


# ---------------------------------------------------------------------------
# Poincare group
# ---------------------------------------------------------------------------

_SMALL_V = 1e-8


@dataclass(frozen=True)
class PoincareElement:
    """T(a, b, v, R) factored as space shift * time shift * boost * rotation."""

    a: np.ndarray
    b: float
    v: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        _require_finite("Poincare", self.R, self.b, self.a, self.v)
        if not np.linalg.norm(self.v) < 1.0:
            raise ValueError("boost velocity must satisfy |v| < 1")
        if classify_rotation(self.R) != "proper":
            raise ValueError("Poincare rotation block must be proper orthogonal")

    @staticmethod
    def identity() -> "PoincareElement":
        return PoincareElement(np.zeros(3), 0.0, np.zeros(3), np.eye(3))


def boost_matrix(v) -> np.ndarray:
    """4x4 pure boost on (t, r); the 1/v^2 terms are removable at v -> 0."""
    v = np.asarray(v, dtype=float)
    v2 = float(v @ v)
    L = np.eye(4)
    if v2 < _SMALL_V ** 2:
        L[1:, 1:] += 0.5 * np.outer(v, v)
        L[0, 1:] = -v
        L[1:, 0] = -v
        return L
    gamma = 1.0 / math.sqrt(1.0 - v2)
    L[0, 0] = gamma
    L[0, 1:] = -gamma * v
    L[1:, 0] = -gamma * v
    L[1:, 1:] = np.eye(3) + (gamma - 1.0) / v2 * np.outer(v, v)
    return L


def _homogeneous(T: PoincareElement) -> np.ndarray:
    L = np.eye(4)
    L[1:, 1:] = T.R
    return boost_matrix(T.v) @ L


def poincare_apply_events(T: PoincareElement, X) -> np.ndarray:
    """Apply T to each row of an (N, 4) event array:
    r' = a + transverse(R r) + v (v.Rr - v^2 t)/(v^2 sqrt(1-v^2)),
    t' = b + (t - v.Rr)/sqrt(1-v^2); reduces to a + R r, b + t as v -> 0."""
    X = _events(X)
    return X @ _homogeneous(T).T + np.concatenate(([T.b], T.a))


def poincare_apply(T: PoincareElement, pt: SpacetimePoint) -> SpacetimePoint:
    out = poincare_apply_events(T, pt.as4()[None])[0]
    return SpacetimePoint(out[0], out[1:])


class CompositionError(ValueError):
    """Could not re-extract (a, b, v, R) from a composed transformation."""


def poincare_compose(T2: PoincareElement, T1: PoincareElement) -> PoincareElement:
    """Compose through the 5x5 affine embedding on (t, r, 1), then refactor.

    The boost velocity is read off the time column of the homogeneous
    block; the rotation is what remains after undoing that boost.
    """
    def affine(T: PoincareElement) -> np.ndarray:
        M = np.eye(5)
        M[:4, :4] = _homogeneous(T)
        M[0, 4] = T.b
        M[1:4, 4] = T.a
        return M

    M = affine(T2) @ affine(T1)
    L = M[:4, :4]
    gamma = L[0, 0]
    # Written as not (x <= bound) so that a NaN fails every guard.
    if not (1.0 - 1e-12 <= gamma):
        raise CompositionError(f"invalid time-time entry {gamma!r} in composition")
    v = -L[1:, 0] / gamma
    if not (np.linalg.norm(v) < 1.0):
        raise CompositionError(f"extracted boost velocity |v| >= 1: {v!r}")
    D = boost_matrix(-v) @ L
    R = D[1:, 1:]
    residual = worst_of(sup_norm(D[0, 1:]), sup_norm(D[1:, 0]), abs(D[0, 0] - 1.0))
    if not (residual <= 1e-8) or classify_rotation(R, 1e-8) != "proper":
        raise CompositionError("composed element does not factor as boost * rotation")
    return PoincareElement(a=M[1:4, 4], b=M[0, 4], v=v, R=R)


def element_to_json(element) -> dict:
    """Wire format for scripted checks: {"galilei": {R, v, xi, tau}} or
    {"poincare": {a, b, v, R}}."""
    if isinstance(element, GalileiElement):
        return {"galilei": {"R": element.R.tolist(), "v": element.v.tolist(),
                            "xi": element.xi.tolist(), "tau": element.tau}}
    if isinstance(element, PoincareElement):
        return {"poincare": {"a": element.a.tolist(), "b": element.b,
                             "v": element.v.tolist(), "R": element.R.tolist()}}
    raise TypeError(f"not a serializable group element: {element!r}")


def element_from_json(doc: dict):
    if set(doc) == {"galilei"}:
        g = doc["galilei"]
        return GalileiElement(R=np.array(g["R"]), v=np.array(g["v"]),
                              xi=np.array(g["xi"]), tau=float(g["tau"]))
    if set(doc) == {"poincare"}:
        t = doc["poincare"]
        return PoincareElement(a=np.array(t["a"]), b=float(t["b"]),
                               v=np.array(t["v"]), R=np.array(t["R"]))
    raise ValueError(f"unrecognized group-element document with keys {sorted(doc)}")


def discrete_apply(which: str, pt: SpacetimePoint) -> SpacetimePoint:
    """Space inversion P, time inversion T, or the combined inversion PT."""
    if which == "P":
        return SpacetimePoint(pt.t, -pt.r)
    if which == "T":
        return SpacetimePoint(-pt.t, pt.r)
    if which == "PT":
        return SpacetimePoint(-pt.t, -pt.r)
    raise ValueError(f"unknown discrete operation {which!r}")


# ---------------------------------------------------------------------------
# Conformal maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dilation:
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("dilation factor must be positive")

    def apply(self, xv) -> np.ndarray:
        return self.k * np.asarray(xv, dtype=float)

    def inverse_apply(self, xv) -> np.ndarray:
        return np.asarray(xv, dtype=float) / self.k


@dataclass(frozen=True)
class Inversion:
    """x -> (p - x)/eta(p - x, p - x), a conformal involution for p = 0."""

    pivot: np.ndarray = None

    def __post_init__(self):
        pv = np.zeros(4) if self.pivot is None else np.asarray(self.pivot, dtype=float)
        object.__setattr__(self, "pivot", pv)

    def apply(self, xv) -> np.ndarray:
        d = self.pivot - np.asarray(xv, dtype=float)
        s = minkowski_interval(d)
        if abs(s) < 1e-8:
            raise NullConeError(f"point {xv!r} on the null cone of the pivot")
        return d / s

    def inverse_apply(self, xv) -> np.ndarray:
        # y = (p - x)/s maps back through x = p - y/eta(y,y).
        y = np.asarray(xv, dtype=float)
        s = minkowski_interval(y)
        if abs(s) < 1e-8:
            raise NullConeError(f"point {xv!r} on the null cone of the origin")
        return self.pivot - y / s


ConformalMap = Union[Dilation, Inversion]


def conformal_pullback_check(cmap: ConformalMap, xv,
                             stencil: FDStencil = JACOBIAN_STENCIL) -> tuple[float, float]:
    """Fit J^T eta J = Omega^2 eta for the induced metric and return
    (Omega, sup-norm residual).

    J is the numerical Jacobian of the inverse map, so a dilation by k
    yields Omega^2 = k^-2 and the origin-pivot inversion yields
    |Omega| = |eta(x,x)|^-1, matching the rescalings both maps induce.
    """
    xv = np.asarray(xv, dtype=float)
    J = fd_jacobian(cmap.inverse_apply, xv, stencil)
    G = J.T @ ETA @ J
    # least-squares scalar fit of G against eta
    omega2 = float(np.sum(G * ETA) / np.sum(ETA * ETA))
    if omega2 <= 0:
        return 0.0, sup_norm(G)
    omega = math.sqrt(omega2)
    if isinstance(cmap, Inversion):
        omega = math.copysign(omega, minkowski_interval(xv - cmap.pivot))
    return omega, sup_norm(G - omega2 * ETA)


def _metric_field(omega: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    def g(xv: np.ndarray) -> np.ndarray:
        w = omega(xv)
        return (w * w) * ETA
    return g


def _riemann_sup(metric: Callable[[np.ndarray], np.ndarray], xv: np.ndarray, h: float) -> float:
    """Max |R^a_bcd| from nested central differences of the metric."""
    def christoffel(yv: np.ndarray) -> np.ndarray:
        dg = np.zeros((4, 4, 4))  # dg[c, a, b] = d_c g_ab
        for c in range(4):
            e = np.zeros(4)
            e[c] = h
            dg[c] = (metric(yv + e) - metric(yv - e)) / (2.0 * h)
        ginv = np.linalg.inv(metric(yv))
        gam = np.zeros((4, 4, 4))  # gam[a, b, c] = Gamma^a_bc
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    s = 0.0
                    for d in range(4):
                        s += ginv[a, d] * (dg[b, d, c] + dg[c, b, d] - dg[d, b, c])
                    gam[a, b, c] = 0.5 * s
        return gam

    dgam = np.zeros((4, 4, 4, 4))  # dgam[c, a, d, b] = d_c Gamma^a_db
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dgam[c] = (christoffel(xv + e) - christoffel(xv - e)) / (2.0 * h)
    gam0 = christoffel(xv)
    riem = np.zeros((4, 4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    val = dgam[c, a, d, b] - dgam[d, a, c, b]
                    for e_ in range(4):
                        val += gam0[a, c, e_] * gam0[e_, d, b] - gam0[a, d, e_] * gam0[e_, c, b]
                    riem[a, b, c, d] = val
    return float(np.max(np.abs(riem)))


def conformal_flatness_check(omega_kind: str, xv, h: float = 1e-2, c: float = 1.0) -> float:
    """Max Riemann component of g = Omega^2 eta at x, one Richardson level.

    omega_kind: 'constant' (Omega = c), 'inverse_interval'
    (Omega = eta(x,x)^-1), or 'exp_x1' (the deliberately non-flat control).
    """
    xv = np.asarray(xv, dtype=float)
    if omega_kind == "constant":
        omega = lambda y: c
    elif omega_kind == "inverse_interval":
        if abs(minkowski_interval(xv)) < 1e-4:
            raise NullConeError("inverse-interval rescaling is singular on the null cone")
        omega = lambda y: 1.0 / minkowski_interval(y)
    elif omega_kind == "exp_x1":
        omega = lambda y: math.exp(y[1])
    else:
        raise ValueError(f"unknown omega_kind {omega_kind!r}")
    metric = _metric_field(omega)
    r_h = _riemann_sup(metric, xv, h)
    r_h2 = _riemann_sup(metric, xv, h / 2.0)
    # second-order stencils: one Richardson step cancels the h^2 term
    return abs((4.0 * r_h2 - r_h) / 3.0)


def dalembert(field: Callable[[np.ndarray], float], xv, h: float = 1e-3) -> float:
    """Wave operator -d_t^2 + laplacian by order-4 central differences."""
    xv = np.asarray(xv, dtype=float)
    total = 0.0
    for axis in range(4):
        e = np.zeros(4)
        e[axis] = h
        second = (-field(xv + 2 * e) + 16.0 * field(xv + e) - 30.0 * field(xv)
                  + 16.0 * field(xv - e) - field(xv - 2 * e)) / (12.0 * h * h)
        total += -second if axis == 0 else second
    return total


def dalembert_dilation_check(k: float, field: Callable[[np.ndarray], float], xv) -> float:
    """|box(field o dilation)(x) - k^2 (box field)(k x)|, the k^-2 scaling
    of the wave operator under x -> k x."""
    if k <= 0:
        raise ValueError("dilation factor must be positive")
    xv = np.asarray(xv, dtype=float)
    composed = lambda y: field(k * y)
    return abs(dalembert(composed, xv) - k * k * dalembert(field, k * xv))
