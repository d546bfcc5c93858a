"""Jacobi elliptic functions sn, cn, dn for real and complex arguments.

Real arguments use the arithmetic-geometric mean with the descending
amplitude recursion; complex arguments are assembled from real evaluations
through the addition theorem and the imaginary-argument transformation
sn(iy,k) = i sn(y,k')/cn(y,k').  The modulus convention is k (not the
parameter m = k^2) everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field


class EllipticDomainError(ValueError):
    pass


class EllipticDivergenceError(ValueError):
    """Quarter period requested at the logarithmic singularity k = 1."""


class EllipticPoleError(ValueError):
    """Argument too close to a pole of sn/cn/dn; carries the nearest pole."""

    def __init__(self, z: complex, pole: complex):
        self.z = z
        self.pole = pole
        super().__init__(f"argument {z!r} within 1e-6 of pole at {pole!r}")


# Quadratic convergence makes 8 AGM steps plenty for double precision, but the
# scales can stall one ulp apart, so the loops are iteration-capped.
_AGM_TOL = 1e-15
_AGM_MAX_STEPS = 40


def quarter_period(k: float) -> float:
    """Complete elliptic integral K(k) by the arithmetic-geometric mean.

    The modulus is checked on every call; the AGM itself is memoized, since
    the pole search asks for the same one or two moduli on every sample."""
    if not 0.0 <= k <= 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1), got {k!r}")
    if k == 1.0:
        raise EllipticDivergenceError("K(k) diverges logarithmically as k -> 1")
    return _agm_quarter_period(k)


@functools.lru_cache(maxsize=64)
def _agm_quarter_period(k: float) -> float:
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAX_STEPS):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k with its complement and both quarter periods."""

    k: float
    k_prime: float = field(init=False)
    quarter_period_K: float = field(init=False)
    quarter_period_K_prime: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise EllipticDomainError(f"modulus must lie in [0,1], got {self.k!r}")
        kp = math.sqrt(max(0.0, 1.0 - self.k * self.k))
        object.__setattr__(self, "k_prime", kp)
        K = math.inf if self.k == 1.0 else quarter_period(self.k)
        Kp = math.inf if self.k == 0.0 else quarter_period(kp)
        object.__setattr__(self, "quarter_period_K", K)
        object.__setattr__(self, "quarter_period_K_prime", Kp)


def sn_cn_dn_real(u: float, k: float) -> tuple[float, float, float]:
    """Simultaneous sn, cn, dn at real argument.

    Descending Landen: run the AGM scales a_n, b_n, c_n, seed the amplitude
    with phi_N = 2^N a_N u, then halve back down.  dn is recovered from the
    stable identity dn^2 = k'^2 + k^2 cn^2.
    """
    if not 0.0 <= k <= 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1], got {k!r}")
    if k < 1e-14:
        return math.sin(u), math.cos(u), 1.0
    if k > 1.0 - 1e-14:
        return math.tanh(u), 1.0 / math.cosh(u), 1.0 / math.cosh(u)
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
    phi = (2.0 ** n) * a[n] * u
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, (c[i] / a[i]) * math.sin(phi)))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt((1.0 - k * k) + (k * cn) ** 2)
    return sn, cn, dn


def _sn_cn_dn_imag(y: float, k: float) -> tuple[complex, complex, complex]:
    # Jacobi imaginary transformation: values at iy from the complementary modulus.
    kp = math.sqrt(max(0.0, 1.0 - k * k))
    s, c, d = sn_cn_dn_real(y, kp)
    return 1j * s / c, 1.0 / c, d / c


def nearest_pole(z: complex, k: float) -> complex:
    """Nearest point of the pole lattice iK' + 2mK + 2inK'.

    For k = 0 the lattice recedes to infinity (sin and cos are entire)."""
    if k < 1e-14:
        return complex(z.real, math.copysign(math.inf, z.imag if z.imag else 1.0))
    K = quarter_period(k)
    Kp = quarter_period(math.sqrt(max(0.0, 1.0 - k * k)))
    m = round(z.real / (2.0 * K))
    n = round((z.imag - Kp) / (2.0 * Kp))
    return complex(2.0 * m * K, (2.0 * n + 1.0) * Kp)


def sn_cn_dn_complex(z: complex, k: float) -> tuple[complex, complex, complex]:
    """sn, cn, dn at a complex argument, away from the pole lattice."""
    if not 0.0 <= k < 1.0:
        raise EllipticDomainError(f"modulus must lie in [0,1), got {k!r}")
    z = complex(z)
    pole = nearest_pole(z, k)
    if abs(z - pole) < 1e-6:
        raise EllipticPoleError(z, pole)
    x, y = z.real, z.imag
    if abs(y) < 1e-300:
        s, c, d = sn_cn_dn_real(x, k)
        return complex(s), complex(c), complex(d)
    s1, c1, d1 = sn_cn_dn_real(x, k)
    s2, c2, d2 = _sn_cn_dn_imag(y, k)
    denom = 1.0 - (k * s1 * s2) ** 2
    sn = (s1 * c2 * d2 + s2 * c1 * d1) / denom
    cn = (c1 * c2 - s1 * d1 * s2 * d2) / denom
    dn = (d1 * d2 - k * k * s1 * c1 * s2 * c2) / denom
    return sn, cn, dn


def sn(z, k: float):
    if isinstance(z, complex):
        return sn_cn_dn_complex(z, k)[0]
    return sn_cn_dn_real(float(z), k)[0]


def cn(z, k: float):
    if isinstance(z, complex):
        return sn_cn_dn_complex(z, k)[1]
    return sn_cn_dn_real(float(z), k)[1]


def dn(z, k: float):
    if isinstance(z, complex):
        return sn_cn_dn_complex(z, k)[2]
    return sn_cn_dn_real(float(z), k)[2]
