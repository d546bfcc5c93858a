import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from symmetria.elliptic import (
    EllipticDivergenceError,
    EllipticDomainError,
    EllipticPoleError,
    quarter_period,
    sn_cn_dn_complex,
    sn_cn_dn_real,
)

# frozen from the quadrature oracle of the defining integral
# (tests/oracles.elliptic_K, cross-checked against mpmath)
K_HALF = 1.6857503548125963

# frozen from tests/oracles.sn_cn_dn_by_inversion(0.7, 0.6)
SN_07_06 = 0.6299171153234867
CN_07_06 = 0.7766623641084569
DN_07_06 = 0.9258258983286832

# frozen from i*sn(0.4, 0.8)/cn(0.4, 0.8) with the real-argument oracle
SN_I04_06 = 0.4150558768044875j


def test_quarter_period_degenerate():
    assert abs(quarter_period(0.0) - math.pi / 2.0) < 1e-15


def test_quarter_period_against_integral_oracle():
    assert abs(quarter_period(0.5) - K_HALF) < 1e-12


def test_quarter_period_divergence_and_domain():
    with pytest.raises(EllipticDivergenceError):
        quarter_period(1.0)
    with pytest.raises(EllipticDomainError):
        quarter_period(1.5)
    with pytest.raises(EllipticDomainError):
        quarter_period(-0.1)


def test_real_degenerate_moduli():
    u = np.linspace(-3.0, 3.0, 61)
    worst0 = max(abs(sn_cn_dn_real(float(x), 0.0)[0] - math.sin(x)) for x in u)
    worst1 = max(abs(sn_cn_dn_real(float(x), 1.0)[0] - math.tanh(x)) for x in u)
    assert worst0 < 1e-12
    assert worst1 < 1e-12
    s, c, d = sn_cn_dn_real(0.5, 0.0)
    assert abs(s - math.sin(0.5)) < 1e-15 and abs(c - math.cos(0.5)) < 1e-15 and d == 1.0
    s, c, d = sn_cn_dn_real(0.7, 1.0)
    assert abs(s - math.tanh(0.7)) < 1e-15 and abs(c - 1.0 / math.cosh(0.7)) < 1e-15


def test_real_against_inversion_oracle():
    s, c, d = sn_cn_dn_real(0.7, 0.6)
    assert abs(s - SN_07_06) < 1e-11
    assert abs(c - CN_07_06) < 1e-11
    assert abs(d - DN_07_06) < 1e-11


def test_real_against_mpmath_sweep():
    worst = 0.0
    for k in (0.1, 0.4, 0.8, 0.95):
        for u in (-2.7, -0.9, 0.3, 1.4, 3.8, 6.1):
            s, c, d = sn_cn_dn_real(u, k)
            worst = max(worst,
                        abs(s - float(mp.ellipfun("sn", u, k=k))),
                        abs(c - float(mp.ellipfun("cn", u, k=k))),
                        abs(d - float(mp.ellipfun("dn", u, k=k))))
    assert worst < 1e-12


def test_real_pythagorean_identities():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = float(rng.uniform(0.0, 0.99))
        u = float(rng.uniform(-8.0, 8.0))
        s, c, d = sn_cn_dn_real(u, k)
        assert abs(s * s + c * c - 1.0) < 1e-10
        assert abs(d * d + (k * s) ** 2 - 1.0) < 1e-10


def test_real_addition_theorem():
    rng = np.random.default_rng(22)
    k = 0.7
    worst = 0.0
    for _ in range(100):
        u, v = rng.uniform(-2.0, 2.0, 2)
        su, cu, du = sn_cn_dn_real(float(u), k)
        sv, cv, dv = sn_cn_dn_real(float(v), k)
        lhs = sn_cn_dn_real(float(u + v), k)[0]
        rhs = (su * cv * dv + sv * cu * du) / (1.0 - (k * su * sv) ** 2)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


def test_real_periodicity():
    for k in (0.3, 0.6, 0.9):
        K = quarter_period(k)
        for u in (-1.3, 0.4, 2.2):
            assert abs(sn_cn_dn_real(u + 4 * K, k)[0] - sn_cn_dn_real(u, k)[0]) < 1e-10


def test_complex_imaginary_transformation_value():
    s, _, _ = sn_cn_dn_complex(0.4j, 0.6)
    assert abs(s - SN_I04_06) < 1e-12


def test_complex_degenerate_modulus_is_sine():
    z = 0.3 + 0.2j
    s, c, d = sn_cn_dn_complex(z, 0.0)
    assert abs(s - cmath.sin(z)) < 1e-12
    assert abs(c - cmath.cos(z)) < 1e-12
    assert abs(d - 1.0) < 1e-12


def test_complex_identity_sweep():
    rng = np.random.default_rng(23)
    k = 0.6
    count = 0
    while count < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        try:
            s, c, d = sn_cn_dn_complex(z, k)
        except EllipticPoleError:
            continue
        if max(abs(s), abs(c), abs(d)) > 20.0:
            continue  # near-pole magnification, outside the accuracy contract
        assert abs(s * s + c * c - 1.0) < 1e-10
        assert abs(d * d + k * k * s * s - 1.0) < 1e-10
        count += 1


def test_complex_against_mpmath():
    worst = 0.0
    for k in (0.3, 0.5, 0.8):
        for z in (0.7 + 0.3j, -1.1 + 0.8j, 0.2 - 1.4j, 2.5 + 0.05j):
            s, c, d = sn_cn_dn_complex(z, k)
            zz = mp.mpc(z.real, z.imag)
            worst = max(worst,
                        abs(s - complex(mp.ellipfun("sn", zz, k=k))),
                        abs(c - complex(mp.ellipfun("cn", zz, k=k))),
                        abs(d - complex(mp.ellipfun("dn", zz, k=k))))
    assert worst < 1e-10


def test_complex_pole_error_carries_location():
    k = 0.6
    kp = math.sqrt(1 - k * k)
    pole = complex(0.0, quarter_period(kp))
    with pytest.raises(EllipticPoleError) as err:
        sn_cn_dn_complex(pole + 1e-9, k)
    assert abs(err.value.pole - pole) < 1e-12


def test_quarter_period_rejects_nan_on_every_call():
    for _ in range(2):
        with pytest.raises(EllipticDomainError):
            quarter_period(math.nan)
        with pytest.raises(EllipticDivergenceError):
            quarter_period(1.0)


# --- array arguments ---------------------------------------------------------

@pytest.mark.parametrize("k", [0.0, 5e-15, 0.4, 0.8, 1.0 - 5e-15, 1.0],
                         ids=["k0", "below_1e-14", "k0.4", "k0.8", "above_1-1e-14", "k1"])
def test_real_array_matches_scalar_and_mpmath(k):
    u = np.linspace(-6.0, 6.0, 41)
    s, c, d = sn_cn_dn_real(u, k)
    assert s.shape == c.shape == d.shape == u.shape
    grid = np.array([[mp.ellipfun(f, x, m=k * k) for f in ("sn", "cn", "dn")] for x in u],
                    dtype=float)
    assert np.max(np.abs(np.stack((s, c, d), axis=1) - grid)) < 1e-12
    for i in (0, 17, 40):
        # a scalar argument is the one-element array, bit for bit
        assert sn_cn_dn_real(float(u[i]), k) == (s[i], c[i], d[i])
        assert sn_cn_dn_real(u[i:i + 1], k)[0][0] == s[i]
    assert all(isinstance(x, float) for x in sn_cn_dn_real(0.3, k))


def test_real_array_keeps_shape_and_nan():
    u = np.array([[0.1, math.nan], [2.0, -1.0]])
    s, c, d = sn_cn_dn_real(u, 0.6)
    assert s.shape == (2, 2)
    assert np.isnan(s[0, 1]) and np.isnan(c[0, 1]) and np.isnan(d[0, 1])
    assert np.isfinite(np.delete(s.ravel(), 1)).all()


@pytest.mark.parametrize("k", [0.0, 0.3, 0.8])
def test_complex_array_matches_scalar_and_mpmath(k):
    rng = np.random.default_rng(24)
    z = rng.uniform(-2.0, 2.0, 30) + 1j * rng.uniform(-1.2, 1.2, 30)
    z[3] = 0.9  # on the real axis
    s, c, d = sn_cn_dn_complex(z, k)
    assert s.dtype == complex and s.shape == (30,)
    for i, zi in enumerate(z):
        assert sn_cn_dn_complex(complex(zi), k) == (s[i], c[i], d[i])
        zz = mp.mpc(zi.real, zi.imag)
        ref = [complex(mp.ellipfun(f, zz, k=k)) for f in ("sn", "cn", "dn")]
        scale = max(1.0, *map(abs, ref))
        assert max(abs(s[i] - ref[0]), abs(c[i] - ref[1]), abs(d[i] - ref[2])) < 1e-10 * scale
    assert (s[3], c[3], d[3]) == tuple(complex(x) for x in sn_cn_dn_real(0.9, k))


def test_complex_array_pole_names_the_first_bad_index():
    k = 0.6
    K = quarter_period(k)
    Kp = quarter_period(math.sqrt(1 - k * k))
    z = np.array([0.3 + 0.2j, 2 * K + 1j * Kp + 1e-9, 0.5j, 1j * Kp, -0.4 + 0.1j])
    with pytest.raises(EllipticPoleError, match=r"\(index 1\)") as err:
        sn_cn_dn_complex(z, k)
    assert err.value.index == 1
    assert abs(err.value.pole - complex(2 * K, Kp)) < 1e-12
    assert err.value.z == z[1]
    with pytest.raises(EllipticPoleError) as err:
        sn_cn_dn_complex(complex(z[3]), k)
    assert err.value.index is None and "index" not in str(err.value)


def _sn_cn_dn_clipped(x: np.ndarray, k: float) -> tuple:
    # the descending Landen recursion of sn_cn_dn_real with the arcsin
    # argument clipped to [-1, 1]
    a, c, b = [1.0], [k], math.sqrt(1.0 - k * k)
    for _ in range(40):
        if abs(c[-1]) <= 1e-15 * a[-1]:
            break
        a_next = 0.5 * (a[-1] + b)
        c.append(0.5 * (a[-1] - b))
        b = math.sqrt(a[-1] * b)
        a.append(a_next)
    n = len(a) - 1
    phi = (2.0 ** n) * a[n] * x
    for i in range(n, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip((c[i] / a[i]) * np.sin(phi), -1.0, 1.0)))
    cn = np.cos(phi)
    return np.sin(phi), cn, np.sqrt((1.0 - k * k) + (k * cn) ** 2)


@pytest.mark.parametrize("k", [1e-14, 1e-6, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-10,
                               1.0 - 1e-13, 1.0 - 1e-14])
def test_real_landen_needs_no_clip(k):
    # c_n < a_n and |sin| <= 1 keep the arcsin argument in [-1, 1], so the
    # unclipped recursion gives the clipped one's bits, NaN and inf included
    assert 1e-14 <= k <= 1.0 - 1e-14  # the moduli that take the Landen branch
    rng = np.random.default_rng(23)
    x = np.concatenate((rng.uniform(-60.0, 60.0, 2000), rng.uniform(-1e-8, 1e-8, 50),
                        [0.0, -0.0, 1e6, -1e15, 1e300, np.nan, np.inf, -np.inf]))
    with np.errstate(invalid="ignore"):
        got = sn_cn_dn_real(x, k)
        want = _sn_cn_dn_clipped(x, k)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert np.isnan(got[0][-3:]).all()
