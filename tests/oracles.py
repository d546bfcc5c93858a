"""Slow independent oracles used to fix expected values in the tests.

These deliberately avoid the code paths under test: elliptic values come
from quadrature of the defining integral plus root-finding (or mpmath's
theta-based routines), Legendre values from explicit closed forms,
integrals from dense trapezoid sums, and curvature from index loops over
hand-written central differences.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def elliptic_K(k: float) -> float:
    """Defining integral of the complete elliptic integral, by quadrature."""
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


def incomplete_F(phi: float, k: float) -> float:
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                  0.0, phi, epsabs=1e-13, epsrel=1e-13)
    return val


def sn_cn_dn_by_inversion(u: float, k: float):
    """Invert u = F(phi, k) by bisection for u in (0, K); sn = sin(phi)."""
    if not 0.0 < u < elliptic_K(k):
        raise ValueError("oracle restricted to the fundamental quarter period")
    phi = brentq(lambda p: incomplete_F(p, k) - u, 0.0, math.pi / 2.0, xtol=1e-15)
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(1.0 - (k * sn) ** 2)
    return sn, cn, dn


def trapezoid_integral(f, a: float, b: float, n: int = 100_001) -> complex:
    t = np.linspace(a, b, n)
    vals = np.array([f(float(ti)) for ti in t])
    return complex(np.trapezoid(vals, t))


def legendre_closed_form(n: int, h: int, x: float) -> float:
    """Explicit associated Legendre polynomials for the degrees under test
    (Condon-Shortley phase)."""
    s = math.sqrt(max(0.0, 1.0 - x * x))
    table = {
        (0, 0): 1.0,
        (1, 0): x,
        (1, 1): -s,
        (2, 0): 0.5 * (3 * x * x - 1),
        (2, 1): -3.0 * x * s,
        (2, 2): 3.0 * (1 - x * x),
        (3, 0): 0.5 * (5 * x ** 3 - 3 * x),
        (3, 2): 15.0 * x * (1 - x * x),
        (4, 3): -105.0 * x * s ** 3,
    }
    return table[(n, h)]


def riemann_sup_by_index_loops(omega, xv, h: float) -> float:
    """Max |R^a_bcd| of g = omega^2 diag(-1, 1, 1, 1) at xv: Christoffel
    symbols and the Riemann tensor written out index by index, every
    derivative a central difference (f(x + h e) - f(x - h e)) / 2h."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def metric(yv):
        w = omega(yv)
        return (w * w) * eta

    def christoffel(yv):
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

    xv = np.asarray(xv, dtype=float)
    dgam = np.zeros((4, 4, 4, 4))  # dgam[c, a, d, b] = d_c Gamma^a_db
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dgam[c] = (christoffel(xv + e) - christoffel(xv - e)) / (2.0 * h)
    gam0 = christoffel(xv)
    worst = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    val = dgam[c, a, d, b] - dgam[d, a, c, b]
                    for e_ in range(4):
                        val += gam0[a, c, e_] * gam0[e_, d, b] - gam0[a, d, e_] * gam0[e_, c, b]
                    worst = max(worst, abs(val))
    return worst
