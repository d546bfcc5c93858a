"""Concrete group elements and actions on space-time.

Rotation classification, Galilei transformations with their composition
law, Poincare transformations in the displacement/boost/rotation
factorization, both acting on (N, 4) arrays of (t, x, y, z) events by one
kernel on their 5x5 affine matrices on (t, r, 1), the discrete inversions
as diagonal 4x4 matrices, and conformal dilations/inversions with
pullback-metric, flatness, and wave-operator scaling checks.  Every
derivative is one ``numerics.fd_partials`` call on a stencil cloud; the
curvature check contracts the metric's partials by ``np.einsum``.

A group element whose fields carry a leading axis of length M is a stack
of M elements.  Rotations, boosts, composition, inversion and the event
kernel act on stacks element by element with the same formulas as on one
element, and every validation or composition guard runs once per stack
and names the first element that fails it.

Conventions: Minkowski metric diag(-1,1,1,1); natural units c = 1; boosts
use the passive form r' = -gamma v t at r = 0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .numerics import (CURVATURE_STENCIL, LAPLACIAN_STENCIL, FDStencil, fd_jacobian, fd_partials,
                       require)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])

ROTATION_TOL = 1e-10


class NullConeError(ValueError):
    """Evaluation point too close to an excluded null cone."""


def minkowski_interval(dx):
    """eta(dx, dx) over the last axis: one value for one 4-vector difference
    (t, x, y, z), an (N,) array for an (N, 4) stack of them."""
    # contiguous, as strided rows would make the product below sum in another order
    dx = np.ascontiguousarray(dx, dtype=float)
    # a (1, 4) @ (4, 1) product per row: np.vecdot would need numpy >= 2
    return ((dx @ ETA)[..., None, :] @ dx[..., :, None])[..., 0, 0][()]


def vector_norm(x) -> np.ndarray:
    """Euclidean norm over the last axis, one (1, n) @ (n, 1) product per
    vector: the same bits as np.linalg.norm of each vector on its own."""
    x = np.asarray(x, dtype=float)
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for stacks of matrices and vectors."""
    return (A @ x[..., None])[..., 0]


def _events(X, batch: tuple) -> np.ndarray:
    """Validate the events an element with leading batch shape `batch`
    acts on: an (N, 4) array of finite (t, x, y, z) rows per element.
    The error names the first element whose block is not finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != len(batch) + 2 or X.shape[:len(batch)] != batch or X.shape[-1] != 4:
        raise ValueError("events must be an (N, 4) array of finite (t, x, y, z) rows "
                         f"per element, got shape {X.shape}")
    require(np.isfinite(X).all(axis=(-2, -1)),
            "events must be an (N, 4) array of finite (t, x, y, z) rows")
    return X


def _require_finite(group: str, R: np.ndarray, shift, *vectors: np.ndarray) -> None:
    """The element's rotation blocks are 3x3 and its vector parameters
    3-vectors over one batch shape, and every rotation block, time shift
    and vector is finite (checked in one pass over the stack; the error
    names the first element that is not)."""
    batch = R.shape[:-2]
    if R.shape[-2:] != (3, 3) or np.shape(shift) != batch:
        raise ValueError(f"{group} rotation blocks must be 3x3, one with each time shift")
    if any(x.shape != batch + (3,) for x in vectors):
        raise ValueError(f"{group} vector parameters must have shape (3,)")
    finite = np.isfinite(shift) & np.isfinite(R).all(axis=(-2, -1))
    for x in vectors:
        finite = finite & np.isfinite(x).all(axis=-1)
    require(finite, f"{group} parameters must be finite")


def _gram_defect_det(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max|R R^T - 1| and det R of each 3x3 block of R; NaN for a NaN block."""
    with np.errstate(invalid="ignore"):
        return np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3)).max(axis=(-2, -1)), np.linalg.det(R)


def _is_proper(R: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Boolean mask of the proper rotations among the 3x3 blocks of R: the
    Gram defect and |det R - 1| are both within tol."""
    defect, det = _gram_defect_det(R)
    # written as x <= tol so that a NaN is never proper
    return (defect <= tol) & (np.abs(det - 1.0) <= tol)


def classify_rotation(m, tol: float = ROTATION_TOL):
    """'proper', 'improper', or 'not_orthogonal' by the six orthonormality
    conditions on rows plus the determinant sign.  A string for one 3x3
    matrix, an array of them for an (M, 3, 3) stack."""
    if not 0.0 < tol < math.inf:  # written so that a NaN fails
        raise ValueError("tolerance must be finite and positive")
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise ValueError("rotation candidates are 3x3")
    defect, det = _gram_defect_det(m)
    orthogonal = defect <= tol
    kind = np.where(orthogonal & (np.abs(det - 1.0) <= tol), "proper",
                    np.where(orthogonal & (np.abs(det + 1.0) <= tol), "improper",
                             "not_orthogonal"))
    return kind[()]


def rotation_about(axis, angle) -> np.ndarray:
    """Proper rotation by `angle` about a 3-vector axis (Rodrigues form);
    (M, 3) axes with M angles give an (M, 3, 3) stack."""
    a = np.asarray(axis, dtype=float)
    a = a / vector_norm(a)[..., None]
    zero = np.zeros(a.shape[:-1])
    K = np.stack((zero, -a[..., 2], a[..., 1],
                  a[..., 2], zero, -a[..., 0],
                  -a[..., 1], a[..., 0], zero), axis=-1).reshape(a.shape[:-1] + (3, 3))
    angle = np.asarray(angle, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _affine(L: np.ndarray, t_shift, r_shift: np.ndarray) -> np.ndarray:
    """The 5x5 matrix on (t, r, 1) of (t, r) -> L (t, r) + (t_shift, r_shift),
    stacked like L."""
    M = np.zeros(L.shape[:-2] + (5, 5))
    M[..., :4, :4] = L
    M[..., 0, 4] = t_shift
    M[..., 1:4, 4] = r_shift
    M[..., 4, 4] = 1.0
    return M


# ---------------------------------------------------------------------------
# Galilei group
# ---------------------------------------------------------------------------

class GalileiElement:
    """G(R, v, xi, tau): x' = R x + v t + xi, t' = t + tau.

    One element, or a stack of M elements when the fields carry a leading
    axis: R (M, 3, 3), v and xi (M, 3), tau (M,).  Every law below acts
    element by element on a stack."""

    def __init__(self, R, v, xi, tau):
        self.R = np.asarray(R, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.xi = np.asarray(xi, dtype=float)
        self.tau = np.asarray(tau, dtype=float)
        _require_finite("Galilei", self.R, self.tau, self.v, self.xi)
        require(_is_proper(self.R), "Galilei rotation block must be proper orthogonal")

    @staticmethod
    def identity() -> "GalileiElement":
        return GalileiElement(np.eye(3), np.zeros(3), np.zeros(3), 0.0)

    def affine(self) -> np.ndarray:
        """The 5x5 matrix on (t, r, 1): L = [[1, 0], [v, R]], shift (tau, xi)."""
        L = np.zeros(self.R.shape[:-2] + (4, 4))
        L[..., 0, 0] = 1.0
        L[..., 1:, 0] = self.v
        L[..., 1:, 1:] = self.R
        return _affine(L, self.tau, self.xi)


def galilei_compose(g2: GalileiElement, g1: GalileiElement) -> GalileiElement:
    """Parameters of g2 g1: (R2 R1, R2 v1 + v2, R2 xi1 + xi2 + v2 tau1, tau2 + tau1)."""
    return GalileiElement(
        R=g2.R @ g1.R,
        v=_mv(g2.R, g1.v) + g2.v,
        xi=_mv(g2.R, g1.xi) + g2.xi + g2.v * g1.tau[..., None],
        tau=g2.tau + g1.tau,
    )


def galilei_inverse(g: GalileiElement) -> GalileiElement:
    rt = np.swapaxes(g.R, -1, -2)
    return GalileiElement(
        R=rt,
        v=_mv(-rt, g.v),
        xi=_mv(-rt, g.xi - g.v * g.tau[..., None]),
        tau=-g.tau,
    )


# ---------------------------------------------------------------------------
# Poincare group
# ---------------------------------------------------------------------------

_SMALL_V = 1e-8


class PoincareElement:
    """T(a, b, v, R) factored as space shift * time shift * boost * rotation.

    One element, or a stack of M elements when the fields carry a leading
    axis: a and v (M, 3), b (M,), R (M, 3, 3)."""

    def __init__(self, a, b, v, R):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.R = np.asarray(R, dtype=float)
        _require_finite("Poincare", self.R, self.b, self.a, self.v)
        require(vector_norm(self.v) < 1.0, "boost velocity must satisfy |v| < 1")
        require(_is_proper(self.R), "Poincare rotation block must be proper orthogonal")

    @staticmethod
    def identity() -> "PoincareElement":
        return PoincareElement(np.zeros(3), 0.0, np.zeros(3), np.eye(3))

    def affine(self) -> np.ndarray:
        """The 5x5 matrix on (t, r, 1): L = boost(v) diag(1, R), shift (b, a)."""
        return _affine(_homogeneous(self), self.b, self.a)


def boost_matrix(v) -> np.ndarray:
    """4x4 pure boost on (t, r), or an (M, 4, 4) stack for (M, 3) velocities;
    the 1/v^2 terms are removable at v -> 0 and expanded to second order
    below |v| = 1e-8."""
    v = np.asarray(v, dtype=float)
    v2 = (v[..., None, :] @ v[..., :, None])[..., 0, 0]
    small = v2 < _SMALL_V ** 2
    safe = np.where(small, 0.0, v2)
    gamma = np.where(small, 1.0, 1.0 / np.sqrt(1.0 - safe))
    coeff = np.where(small, 0.5, (gamma - 1.0) / np.where(small, 1.0, safe))
    L = np.empty(v.shape[:-1] + (4, 4))
    L[..., 0, 0] = gamma
    L[..., 0, 1:] = -gamma[..., None] * v
    L[..., 1:, 0] = -gamma[..., None] * v
    L[..., 1:, 1:] = np.eye(3) + coeff[..., None, None] * (v[..., :, None] * v[..., None, :])
    return L


def _homogeneous(T: PoincareElement) -> np.ndarray:
    L = np.zeros(T.R.shape[:-2] + (4, 4))
    L[..., 0, 0] = 1.0
    L[..., 1:, 1:] = T.R
    return boost_matrix(T.v) @ L


class CompositionError(ValueError):
    """Could not re-extract (a, b, v, R) from a composed transformation."""


def poincare_compose(T2: PoincareElement, T1: PoincareElement) -> PoincareElement:
    """Compose through the 5x5 affine embedding on (t, r, 1), then refactor;
    stacks compose element by element.

    The boost velocity is read off the time column of the homogeneous
    block; the rotation is what remains after undoing that boost, and it
    is tested once, at ROTATION_TOL.  Every guard holds element by element,
    and the error names the first element of a stack that fails one.
    """
    M = T2.affine() @ T1.affine()
    L = M[..., :4, :4]
    gamma = L[..., 0, 0]
    # Written as x <= bound, not x > bound, so that a NaN fails every guard.
    require(1.0 - 1e-12 <= gamma, "invalid time-time entry {} in composition",
            CompositionError, gamma)
    v = -L[..., 1:, 0] / gamma[..., None]
    require(vector_norm(v) < 1.0, "extracted boost velocity |v| >= 1: {}", CompositionError, v)
    D = boost_matrix(-v) @ L
    R = D[..., 1:, 1:]
    # NaN-sticky, like worst_of: np.maximum keeps a NaN from any term
    residual = np.maximum(np.maximum(np.abs(D[..., 0, 1:]).max(axis=-1),
                                     np.abs(D[..., 1:, 0]).max(axis=-1)),
                          np.abs(D[..., 0, 0] - 1.0))
    require((residual <= 1e-8) & _is_proper(R),
            "composed element does not factor as boost * rotation", CompositionError)
    # the guards above are the constructor's |v| < 1 and proper-R tests;
    # only finiteness is left, as finite factors can compose to an inf
    composed = object.__new__(PoincareElement)
    composed.__dict__.update(a=M[..., 1:4, 4], b=M[..., 0, 4], v=v, R=R)
    _require_finite("Poincare", R, composed.b, composed.a, v)
    return composed


def apply_events(g: GalileiElement | PoincareElement, X) -> np.ndarray:
    """Apply g to each row of an (N, 4) event array as X L^T + shift, with
    L and shift read off g.affine().  Galilei: t' = t + tau,
    r' = R r + v t + xi.  Poincare: t' = b + (t - v.Rr)/sqrt(1-v^2),
    r' = a + transverse(R r) + v (v.Rr - v^2 t)/(v^2 sqrt(1-v^2)), which
    reduces to b + t, a + R r as v -> 0.  A stack of M elements maps an
    (M, N, 4) stack, block i by element i."""
    M = g.affine()
    X = _events(X, M.shape[:-2])
    return X @ np.swapaxes(M[..., :4, :4], -1, -2) + M[..., None, :4, 4]


# Space inversion P, time inversion T and the combined inversion PT, acting
# on (t, x, y, z) rows from the right.
DISCRETE = {"P": np.diag([1.0, -1.0, -1.0, -1.0]), "T": np.diag([-1.0, 1.0, 1.0, 1.0]),
            "PT": np.diag([-1.0, -1.0, -1.0, -1.0])}


def discrete_apply(which: str, X) -> np.ndarray:
    """X @ DISCRETE[which] for an (N, 4) event array X."""
    if which not in DISCRETE:
        raise ValueError(f"unknown discrete operation {which!r}")
    return _events(X, ()) @ DISCRETE[which]


# ---------------------------------------------------------------------------
# Conformal maps
# ---------------------------------------------------------------------------

class Dilation:
    """x -> k x for a finite k > 0."""

    def __init__(self, k: float):
        if not 0.0 < k < math.inf:  # written so that a NaN fails
            raise ValueError("dilation factor must be finite and positive")
        self.k = k

    def inverse_apply(self, xv) -> np.ndarray:
        return np.asarray(xv, dtype=float) / self.k


class Inversion:
    """x -> -x/eta(x, x), a conformal involution: its own inverse."""

    def inverse_apply(self, xv) -> np.ndarray:
        """The image of one 4-vector, or of each column of a (4, K) array."""
        y = np.asarray(xv, dtype=float)
        s = minkowski_interval(y.T)
        # ~(|s| < 1e-8), not |s| >= 1e-8: a NaN point is not rejected, its image is NaN
        require(~(np.abs(s) < 1e-8), "point {} on the null cone of the origin", NullConeError, y.T)
        return -y / s


def conformal_pullback_check(cmap: Dilation | Inversion, points) -> tuple[np.ndarray, np.ndarray]:
    """Fit J^T eta J = Omega^2 eta for the induced metric at each column of
    a (4, M) point array and return the (M,) arrays of Omega and of the
    sup-norm residual.

    J is the numerical Jacobian of the inverse map, so a dilation by k
    yields Omega^2 = k^-2 and the inversion yields
    |Omega| = |eta(x,x)|^-1, matching the rescalings both maps induce.
    """
    points = np.asarray(points, dtype=float)
    J = fd_jacobian(cmap.inverse_apply, points)
    G = J.swapaxes(-1, -2) @ ETA @ J
    # least-squares scalar fit of G against eta; a fit <= 0 gives Omega = 0,
    # and a NaN fit (written so, not as > 0) a NaN Omega and residual
    omega2 = np.sum(G * ETA, axis=(-2, -1)) / np.sum(ETA * ETA)
    omega2 = np.where(omega2 <= 0, 0.0, omega2)
    omega = np.sqrt(omega2)
    if isinstance(cmap, Inversion):
        omega = np.copysign(omega, minkowski_interval(points.T))
    return omega, np.abs(G - omega2[:, None, None] * ETA).max(axis=(-2, -1))


def _riemann_sup(omega: Callable[[np.ndarray], np.ndarray], xv: np.ndarray,
                 stencil: FDStencil) -> float:
    """Max |R^a_bcd| of g = Omega^2 eta from nested central differences;
    metric, Omega and Gamma^a_bc map (4, M) points to (M, ...) values."""
    def metric(y: np.ndarray) -> np.ndarray:
        w = omega(y)
        return (w * w)[:, None, None] * ETA

    def christoffel(y: np.ndarray) -> np.ndarray:
        dg = fd_partials(metric, y, stencil).swapaxes(0, 1)  # dg[m, c, a, b] = d_c g_ab
        # lowered[m, b, d, c] = d_b g_dc + d_c g_bd - d_d g_bc
        lowered = dg + dg.transpose(0, 2, 3, 1) - dg.transpose(0, 2, 1, 3)
        return 0.5 * np.einsum("mad,mbdc->mabc", np.linalg.inv(metric(y)), lowered)

    dgam = fd_partials(christoffel, xv[:, None], stencil)[:, 0]  # [c, a, d, b] = d_c Gamma^a_db
    gam = christoffel(xv[:, None])[0]
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    #          + sum_e (Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb),
    # summed in one reduction over [derivative terms, e = 0, ..., 3] so the
    # terms are added in index order
    quad = np.einsum("ace,edb->eabcd", gam, gam) - np.einsum("ade,ecb->eabcd", gam, gam)
    lin = np.einsum("cadb->abcd", dgam) - np.einsum("dacb->abcd", dgam)
    riem = np.concatenate((lin[None], quad)).sum(axis=0)
    return float(np.max(np.abs(riem)))


# Omega of conformal_flatness_check on (4, M) points (or one 4-vector).
RESCALINGS = {
    "constant": lambda y: np.full(np.shape(y)[1:], 3.0),
    "inverse_interval": lambda y: 1.0 / minkowski_interval(y.T),
    "exp_x1": lambda y: np.exp(y[1]),
}


def conformal_flatness_check(omega_kind: str, xv) -> float:
    """Max Riemann component of g = Omega^2 eta at x, one Richardson level.

    omega_kind: 'constant' (Omega = 3), 'inverse_interval'
    (Omega = eta(x,x)^-1), or 'exp_x1' (the deliberately non-flat control).
    """
    xv = np.asarray(xv, dtype=float)
    if omega_kind not in RESCALINGS:
        raise ValueError(f"unknown omega_kind {omega_kind!r}")
    if omega_kind == "inverse_interval" and abs(minkowski_interval(xv)) < 1e-4:
        raise NullConeError("inverse-interval rescaling is singular on the null cone")
    omega = RESCALINGS[omega_kind]
    r_h = _riemann_sup(omega, xv, CURVATURE_STENCIL)
    r_h2 = _riemann_sup(omega, xv, FDStencil(step=CURVATURE_STENCIL.step / 2.0, order=2))
    # second-order stencils: one Richardson step cancels the h^2 term
    return abs((4.0 * r_h2 - r_h) / 3.0)


def dalembert(field: Callable[[np.ndarray], np.ndarray], points) -> np.ndarray:
    """Wave operator -d_t^2 + laplacian at (4, M) events, as (M,) values:
    the eta-signed sum of the order-4 central second partials."""
    parts = fd_partials(field, points, LAPLACIAN_STENCIL, deriv=2)
    return sum(ETA[a, a] * part for a, part in enumerate(parts))


def dalembert_dilation_check(k: float, field: Callable[[np.ndarray], np.ndarray],
                             points) -> np.ndarray:
    """|box(field o dilation)(x) - k^2 (box field)(k x)| at (4, M) events, the
    k^-2 scaling of the wave operator under x -> k x."""
    if not 0.0 < k < math.inf:  # written so that a NaN fails
        raise ValueError("dilation factor must be finite and positive")
    points = np.asarray(points, dtype=float)
    composed = lambda y: field(k * y)
    return abs(dalembert(composed, points) - k * k * dalembert(field, k * points))
