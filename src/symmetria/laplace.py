"""Harmonic-function toolkit: fundamental solutions with their flux
normalization, Kelvin inversion, integral-representation solutions and
the solid harmonics (Cartesian polynomials) they are proportional to,
polar-coordinate Laplacians, and the symbol of the Laplace operator.

Fields map an (n, M) array of M points, one per column, to their M
values; each of them also takes one n-vector.  Harmonicity statements
are checked elsewhere by numerics.fd_laplacian.
The flux derivative and the polar/spherical Laplacians are
numerics.fd_partials stencils, each one field call, and the sphere area
and the integral representation use numerics quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .numerics import (POLAR_STENCIL, FDStencil, fd_partials, integrate_periodic, require,
                       worst_of)

# Simpson node counts of the sphere-area and integral-representation rules
SPHERE_NODES = 201
INTEGRAL_REP_NODES = 129
ORIGIN_PROBE = 1e-6


class SingularPointError(ValueError):
    pass


class CoordinateSingularityError(ValueError):
    pass


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere bounding the unit ball in R^n
    (2 pi in the plane, 4 pi in space)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def gamma_fundamental(n: int, r: float | np.ndarray) -> float | np.ndarray:
    """Radial profile of the fundamental solution with unit flux:
    r^(2-n)/((n-2) omega_n) for n > 2, log(1/r)/(2 pi) in the plane.
    An array of radii gives the array of their profiles."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    if n == 2:
        return np.log(1.0 / r) / (2.0 * math.pi)
    return r ** (2 - n) / ((n - 2) * unit_sphere_area(n))


def fundamental_solution(n: int, source: Sequence[float]) -> Callable[[np.ndarray], float]:
    """gamma(|x - source|) as a field on R^n; an (n, M) array of M points,
    one per column, gives the array of their M values."""
    xi = np.asarray(source, dtype=float)

    def field(xv: np.ndarray) -> float | np.ndarray:
        d = (np.asarray(xv, dtype=float).T - xi).T
        r = np.sqrt(np.sum(d * d, axis=0))
        if np.any(r == 0.0):
            raise SingularPointError("fundamental solution evaluated at its source")
        return gamma_fundamental(n, r)

    return field


def _sphere_area_by_quadrature(n: int) -> float:
    """omega_n from nested 1-D quadrature of the angular measure,
    independent of the Gamma-function closed form used by gamma_fundamental."""
    area = 2.0 * math.pi
    for j in range(1, n - 1):
        s = integrate_periodic(lambda th, j=j: np.sin(th) ** j, 0.0, math.pi, SPHERE_NODES)
        area *= s.real
    return area


def flux_through_sphere(n: int, radius: float) -> float:
    """-(d gamma/d r)(radius) times the numerically integrated sphere area.

    The derivative is the order-4 central first difference with step
    1e-3 radius and the area comes from quadrature, so a value of 1
    confirms the 1/((n-2) omega_n) normalization rather than restating it.
    """
    if not 0.0 < radius < math.inf:  # written so that a NaN fails
        raise ValueError("radius must be finite and positive")
    d = fd_partials(lambda r: gamma_fundamental(n, r[0]), [[radius]],
                    FDStencil(step=1e-3 * radius, order=4))[0, 0]
    return -d * _sphere_area_by_quadrature(n) * radius ** (n - 1)


def kelvin_invert(u: Callable[[np.ndarray], float], n: int) -> Callable[[np.ndarray], float]:
    """Kelvin transform v(x) = |x|^-(n-2) u(x / |x|^2); harmonic inputs map
    to harmonic outputs on the inverted domain.  Like ``u``, v takes one
    point or an (n, M) array of M points, one per column."""
    def v(xv: np.ndarray) -> float | np.ndarray:
        xv = np.asarray(xv, dtype=float)
        r2 = np.sum(xv * xv, axis=0)
        if np.any(r2 == 0.0):
            raise SingularPointError("Kelvin transform evaluated at the origin")
        return r2 ** (-(n - 2) / 2.0) * u(xv / r2)

    return v


def exterior_family(a: float, r: float) -> float:
    """u = 1 - a + a/r: boundary value 1 on the unit sphere for every a."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return 1.0 - a + a / r


def exterior_family_regular_at_origin(a: float) -> bool:
    """Whether the Kelvin transform (1-a)/r + a of the family stays bounded
    toward the origin (probed at r = 1e-6); true only for a = 1."""
    v = lambda r: (1.0 - a) / r + a
    return abs(v(ORIGIN_PROBE)) < 10.0 * (abs(a) + 1.0)


def integral_rep(n: int, h: int, point: Sequence[float] | np.ndarray) -> complex | np.ndarray:
    """int_{-pi}^{pi} (z + i x cos t + i y sin t)^n e^{i h t} dt.

    Real and imaginary parts are harmonic in (x, y, z); the value is
    proportional to r^n e^{i h phi} P_{n,h}(cos theta).  A (3, M) array of
    M points, one per column, gives their M integrals.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    xv, yv, zv = np.asarray(point, dtype=float)[..., None]

    def integrand(t: np.ndarray) -> np.ndarray:
        return (zv + 1j * xv * np.cos(t) + 1j * yv * np.sin(t)) ** n * np.exp(1j * h * t)

    return integrate_periodic(integrand, -math.pi, math.pi, INTEGRAL_REP_NODES)


def solid_harmonic(n: int, h: int, points: Sequence[float] | np.ndarray) -> complex | np.ndarray:
    """r^n e^{i h phi} P_{n,h}(cos theta) (Condon-Shortley phase) as the
    polynomial it is; a (3, M) array of M points gives their M values.

    With m = |h|: seed (-1)^m (2m-1)!! (x + iy)^m, then the recurrence
    Y_l = ((2l-1) z Y_{l-1} - (l+m-1) r^2 Y_{l-2}) / (l-m), free of the
    sqrt(1 - (z/r)^2) that cancels near the z axis; h < 0 is
    (-1)^m (n-m)!/(n+m)! times the conjugate."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    m = abs(h)
    if m > n:
        raise ValueError(f"order |h| = {m} exceeds degree {n}")
    p = np.asarray(points, dtype=float)
    xv, yv, zv = p.reshape(3, -1)
    r2 = xv * xv + yv * yv + zv * zv
    prev, out = 0.0, (-1) ** m * math.prod(range(1, 2 * m, 2)) * (xv + 1j * yv) ** m
    for ell in range(m + 1, n + 1):
        prev, out = out, ((2 * ell - 1) * zv * out - (ell + m - 1) * r2 * prev) / (ell - m)
    if h < 0:
        out = (-1) ** m * math.factorial(n - m) / math.factorial(n + m) * out.conj()
    return out.reshape(p.shape[1:])[()]


def calibrate_proportionality(n: int, h: int,
                              points: Sequence[Sequence[float]]) -> tuple[complex, float]:
    """Fit the constant c(n,h) relating integral_rep to solid_harmonic at the
    first point and return (c, max relative deviation over the rest)."""
    points = np.asarray(points, dtype=float)
    num = integral_rep(n, h, points.T)
    den = solid_harmonic(n, h, points.T)
    require(np.abs(den) >= 1e-9, "reference harmonic vanishes near {}; pick another sample",
            witness=points)
    ratio = num / den
    return complex(ratio[0]), worst_of(0.0, np.abs(ratio[1:] - ratio[0]) / abs(ratio[0]))


def polar_laplacian(coords: str, u: Callable[..., np.ndarray], point: Sequence[float]) -> float:
    """Laplacian through the polar (2-D) or spherical (3-D) formula with
    nested order-2 central first partials (step 1e-3).

    polar2d:      (1/r) [ d_r(r u_r) + d_phi(u_phi / r) ]
    spherical3d:  (1/(r^2 sin th)) [ d_r(r^2 u_r sin th)
                   + d_th(u_th sin th) + d_phi(u_phi / sin th) ]

    ``u`` takes one coordinate array per axis, (r, phi) or (r, th, phi), and
    is called once: the first partials of one inner ``fd_partials`` call
    make the flux components that one outer call differentiates.
    """
    h = POLAR_STENCIL.step
    p = np.asarray(point, dtype=float)
    r0 = float(p[0])
    if coords == "polar2d":
        if r0 <= 2 * h:
            raise CoordinateSingularityError("too close to the polar origin")
        flux = lambda q, g: (q[0] * g[0], g[1] / q[0])
    elif coords == "spherical3d":
        th0 = float(p[1])
        if r0 <= 2 * h or math.sin(th0) <= 0.05:
            raise CoordinateSingularityError("too close to a spherical coordinate singularity")
        flux = lambda q, g: (q[0] ** 2 * g[0] * np.sin(q[1]), g[1] * np.sin(q[1]), g[2])
    else:
        raise ValueError(f"unknown coordinate system {coords!r}")
    # g[a] is the first partial of u along axis a at the points q
    fluxes = lambda q: np.stack(flux(q, fd_partials(lambda c: u(*c), q, POLAR_STENCIL)), axis=1)
    terms = fd_partials(fluxes, p[:, None], POLAR_STENCIL)[:, 0].diagonal()
    if coords == "polar2d":
        return float(terms[0] + terms[1]) / r0
    return float(terms[0] + terms[1] + terms[2] / math.sin(th0)) / (r0 * r0 * math.sin(th0))


def symbol(kv) -> float | np.ndarray:
    """Squared length of the frequency vector: the rotation-invariant symbol
    of the (positive) Laplace operator.  A stack of vectors along the last
    axis gives the stack of their symbols."""
    kv = np.asarray(kv, dtype=float)
    return np.sum(kv * kv, axis=-1)
