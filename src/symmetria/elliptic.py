"""Jacobi elliptic functions sn, cn, dn for real and complex arguments.

Real arguments use the arithmetic-geometric mean with the descending
amplitude recursion; complex arguments are assembled from real evaluations
through the addition theorem and the imaginary-argument transformation
sn(iy,k) = i sn(y,k')/cn(y,k').  The modulus convention is k (not the
parameter m = k^2) everywhere.

Arguments are arrays, a scalar being the one-element array, and results
have the argument's shape.  The AGM scales depend on the modulus alone and
are run once per call; the Landen steps then act elementwise on the array.
"""

from __future__ import annotations

import math

import numpy as np


class EllipticDomainError(ValueError):
    pass


class EllipticDivergenceError(ValueError):
    """Quarter period requested at the logarithmic singularity k = 1."""


class EllipticPoleError(ValueError):
    """Argument too close to a pole of sn/cn/dn, or of a function built
    from them; carries the nearest pole and, for an array argument, the
    flat index of the first bad entry.  ``condition`` states the test the
    argument failed, by default its distance to the pole."""

    def __init__(self, z: complex, pole: complex, index: int | None = None,
                 condition: str | None = None):
        self.z = z
        self.pole = pole
        self.index = index
        self.condition = condition or f"within 1e-6 of pole at {pole!r}"
        at = "" if index is None else f" (index {index})"
        super().__init__(f"argument {z!r}{at} {self.condition}")


# Quadratic convergence makes 8 AGM steps plenty for double precision, but the
# scales can stall one ulp apart, so the loops are iteration-capped.
_AGM_TOL = 1e-15
_AGM_MAX_STEPS = 40


def quarter_period(k: float) -> float:
    """Complete elliptic integral K(k) by the arithmetic-geometric mean."""
    if not 0.0 <= k <= 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1), got {k!r}")
    if k == 1.0:
        raise EllipticDivergenceError("K(k) diverges logarithmically as k -> 1")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAX_STEPS):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def sn_cn_dn_real(u, k: float):
    """Simultaneous sn, cn, dn at real argument, each of u's shape.

    Descending Landen: run the AGM scales a_n, b_n, c_n of the modulus once,
    seed the amplitude with phi_N = 2^N a_N u, then halve back down,
    elementwise over u.  dn is recovered from the stable identity
    dn^2 = k'^2 + k^2 cn^2.
    """
    if not 0.0 <= k <= 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1], got {k!r}")
    x = np.atleast_1d(np.asarray(u, dtype=float))
    if k < 1e-14:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    elif k > 1.0 - 1e-14:
        sn, cn = np.tanh(x), 1.0 / np.cosh(x)
        dn = cn.copy()
    else:
        a = [1.0]
        c = [k]
        b = math.sqrt(1.0 - k * k)
        for _ in range(_AGM_MAX_STEPS):
            if abs(c[-1]) <= _AGM_TOL * a[-1]:
                break
            a_next = 0.5 * (a[-1] + b)
            c.append(0.5 * (a[-1] - b))
            b = math.sqrt(a[-1] * b)
            a.append(a_next)
        n = len(a) - 1
        phi = (2.0 ** n) * a[n] * x
        for i in range(n, 0, -1):
            # c_i < a_i, so the argument never leaves [-1, 1]
            phi = 0.5 * (phi + np.arcsin((c[i] / a[i]) * np.sin(phi)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt((1.0 - k * k) + (k * cn) ** 2)
    return tuple(f.reshape(np.shape(u))[()] for f in (sn, cn, dn))


def _sn_cn_dn_imag(y: np.ndarray, k: float) -> tuple:
    # Jacobi imaginary transformation: values at iy from the complementary modulus.
    kp = math.sqrt(max(0.0, 1.0 - k * k))
    s, c, d = sn_cn_dn_real(y, kp)
    return 1j * s / c, 1.0 / c, d / c


def _complex(re, im) -> np.ndarray:
    # re + i im entry by entry; re + 1j * im would turn an infinite im
    # into a NaN real part
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def nearest_pole(z, k: float):
    """Nearest point of the pole lattice iK' + 2mK + 2inK' to each entry of z.

    For k = 0 the lattice recedes to infinity (sin and cos are entire)."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if k < 1e-14:
        pole = _complex(zz.real, np.copysign(math.inf, np.where(zz.imag != 0.0, zz.imag, 1.0)))
    else:
        K = quarter_period(k)
        Kp = quarter_period(math.sqrt(max(0.0, 1.0 - k * k)))
        m = np.round(zz.real / (2.0 * K))
        n = np.round((zz.imag - Kp) / (2.0 * Kp))
        pole = _complex(2.0 * m * K, (2.0 * n + 1.0) * Kp)
    return pole.reshape(np.shape(z))[()]


def sn_cn_dn_complex(z, k: float):
    """sn, cn, dn at a complex argument away from the pole lattice, each of
    z's shape.

    Every argument is checked against its nearest pole first; the error
    names the first one within 1e-6 of a pole, by flat index for an array."""
    if not 0.0 <= k < 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1), got {k!r}")
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    pole = nearest_pole(zz, k)
    near = np.abs(zz - pole) < 1e-6
    if near.any():
        i = int(np.flatnonzero(near)[0])
        raise EllipticPoleError(complex(zz.flat[i]), complex(pole.flat[i]),
                                i if np.ndim(z) else None)
    x, y = zz.real, zz.imag
    s1, c1, d1 = sn_cn_dn_real(x, k)
    s2, c2, d2 = _sn_cn_dn_imag(y, k)
    denom = 1.0 - (k * s1 * s2) ** 2
    sn = (s1 * c2 * d2 + s2 * c1 * d1) / denom
    cn = (c1 * c2 - s1 * d1 * s2 * d2) / denom
    dn = (d1 * d2 - k * k * s1 * c1 * s2 * c2) / denom
    # on the real axis the real-argument values are exact as they stand
    real_axis = np.abs(y) < 1e-300
    sn, cn, dn = (np.where(real_axis, r, w) for r, w in ((s1, sn), (c1, cn), (d1, dn)))
    return tuple(f.reshape(np.shape(z))[()] for f in (sn, cn, dn))

