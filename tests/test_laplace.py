import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from symmetria import laplace as laplace_module
from symmetria import suites
from symmetria.laplace import (
    CoordinateSingularityError,
    SingularPointError,
    calibrate_proportionality,
    exterior_family,
    exterior_family_regular_at_origin,
    flux_through_sphere,
    fundamental_solution,
    gamma_fundamental,
    integral_rep,
    kelvin_invert,
    polar_laplacian,
    solid_harmonic,
    symbol,
    unit_sphere_area,
)
from symmetria.numerics import FDStencil, accepted_rows, fd_laplacian
from symmetria.spacetime import rotation_about

from oracles import legendre_closed_form, solid_harmonic_spherical


def test_gamma_values():
    assert abs(gamma_fundamental(3, 2.0) - 1.0 / (8.0 * math.pi)) < 1e-16
    assert gamma_fundamental(2, 1.0) == 0.0
    with pytest.raises(ValueError):
        gamma_fundamental(3, 0.0)
    with pytest.raises(ValueError):
        gamma_fundamental(1, 1.0)
    # an array of radii gives the profile of each, up to the last bits numpy's
    # array and scalar kernels may round differently, and one bad radius raises
    radii = np.array([0.5, 1.0, 2.0, 7.0])
    for n in (2, 3, 4):
        loop = np.array([gamma_fundamental(n, r) for r in radii])
        assert np.abs(gamma_fundamental(n, radii) - loop).max() <= 4 * np.finfo(float).eps
    with pytest.raises(ValueError):
        gamma_fundamental(3, np.array([1.0, 0.0]))


def test_sphere_areas():
    assert abs(unit_sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(unit_sphere_area(3) - 4 * math.pi) < 1e-14


def test_fundamental_solution_harmonic_off_source():
    rng = np.random.default_rng(61)
    for n in (2, 3, 4):
        f = fundamental_solution(n, np.zeros(n))
        worst = 0.0
        for _ in range(20):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
            worst = max(worst, abs(fd_laplacian(f, x[:, None])[0]))
        assert worst < 1e-6, f"n={n}"


def test_fundamental_solution_singular_at_source():
    f = fundamental_solution(3, [1.0, 0.0, 0.0])
    with pytest.raises(SingularPointError):
        f(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("radius", [1.0, 5.0])
def test_flux_unit_and_radius_independent(n, radius):
    assert abs(flux_through_sphere(n, radius) - 1.0) < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_flux_rejects_a_bad_radius(bad):
    # a NaN radius used to pass a radius <= 0 guard and fail in the stencil,
    # with an error that named the step, not the radius
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        flux_through_sphere(3, bad)


def test_kelvin_of_constant_is_inverse_radius():
    v = kelvin_invert(lambda x: 1.0, 3)
    assert abs(v(np.array([2.0, 0.0, 0.0])) - 0.5) < 1e-15
    rng = np.random.default_rng(62)
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(0.7, 2.5) / np.linalg.norm(x)
        assert abs(fd_laplacian(v, x[:, None])[0]) < 1e-5


def test_kelvin_plane_constant_stays_constant():
    v = kelvin_invert(lambda x: 1.0, 2)
    assert abs(v(np.array([0.3, -0.8])) - 1.0) < 1e-15


def test_kelvin_of_coordinate_harmonic():
    v = kelvin_invert(lambda x: x[0], 3)
    rng = np.random.default_rng(63)
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(1.2, 3.0) / np.linalg.norm(x)
        assert abs(fd_laplacian(v, x[:, None])[0]) < 1e-5
        # v = x1/r^3 in closed form
        r = np.linalg.norm(x)
        assert abs(v(x) - x[0] / r ** 3) < 1e-12


def test_kelvin_involution():
    u = lambda x: x[0] + 0.5 * x[0] * x[1]
    w = kelvin_invert(kelvin_invert(u, 3), 3)
    rng = np.random.default_rng(64)
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(0.3, 2.0) / np.linalg.norm(x)
        assert abs(w(x) - u(x)) < 1e-10
    with pytest.raises(SingularPointError):
        kelvin_invert(u, 3)(np.zeros(3))


def test_exterior_family():
    for a in (-1.0, 0.0, 0.5, 1.0, 2.0):
        assert exterior_family(a, 1.0) == 1.0
    assert abs(exterior_family(1.0, 4.0) - 0.25) < 1e-15
    assert exterior_family_regular_at_origin(1.0)
    assert not exterior_family_regular_at_origin(0.5)
    assert not exterior_family_regular_at_origin(0.0)


def _unit(t):
    """The unit points (sqrt(1 - t^2), 0, t), one per column for an array t:
    there a solid harmonic is the Legendre value P_{n,h}(t)."""
    t = np.asarray(t, dtype=float)
    return np.stack((np.sqrt(1.0 - t * t), np.zeros_like(t), t))


def test_legendre_low_orders():
    assert abs(solid_harmonic(1, 0, _unit(0.3)) - 0.3) < 1e-15
    assert abs(solid_harmonic(2, 0, _unit(0.5)) + 0.125) < 1e-15
    assert solid_harmonic(2, 1, _unit(0.0)) == 0.0


def test_legendre_against_closed_forms():
    xs = (-0.9, -0.3, 0.0, 0.4, 0.8)
    for (n, h) in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 3)):
        vals = solid_harmonic(n, h, _unit(xs))
        for x, val in zip(xs, vals):
            assert abs(val - legendre_closed_form(n, h, x)) < 1e-12


def test_legendre_against_scipy_including_negative_order():
    rng = np.random.default_rng(65)
    for _ in range(50):
        n = int(rng.integers(0, 8))
        h = int(rng.integers(-n, n + 1)) if n else 0
        x = float(rng.uniform(-1, 1))
        ref = scipy.special.lpmv(h, n, x)
        assert abs(solid_harmonic(n, h, _unit(x)) - ref) < 1e-11 * (1 + abs(ref))
    with pytest.raises(ValueError):
        solid_harmonic(2, 3, _unit(0.1))
    with pytest.raises(ValueError):
        solid_harmonic(-1, 0, _unit(0.1))


@pytest.mark.parametrize("n,h", [(0, 0), (1, 0), (2, 1), (3, 2), (4, -3), (5, -1)])
def test_solid_harmonic_on_a_point_array_equals_the_pointwise_calls(n, h):
    points = np.random.default_rng(68).normal(size=(3, 30))
    block = solid_harmonic(n, h, points)
    assert block.shape == (30,)
    assert np.array_equal(block, [solid_harmonic(n, h, p) for p in points.T])


@pytest.mark.parametrize("n,h", [(1, 1), (2, 1), (3, 2), (4, -3)])
def test_solid_harmonic_is_accurate_near_the_z_axis(n, h):
    # 50 points 1e-6..1e-2 off the axis, where sqrt(1 - (z/r)^2) of the
    # spherical form cancels; mpmath's Ferrers function at 40 digits is the
    # reference, taken at order -m (no Gamma-function pole to step around)
    # with P_{n,m} = (-1)^m (n+m)!/(n-m)! P_{n,-m}
    m = abs(h)
    scale = 1 if h < 0 else (-1) ** m * math.factorial(n + m) // math.factorial(n - m)
    rng = np.random.default_rng(69)
    rho = 10.0 ** rng.uniform(-6.0, -2.0, 50)
    phi = rng.uniform(-math.pi, math.pi, 50)
    z = rng.choice((-1.0, 1.0), 50) * rng.uniform(0.5, 2.0, 50)
    points = np.stack((rho * np.cos(phi), rho * np.sin(phi), z))
    vals = solid_harmonic(n, h, points)
    with mpmath.workdps(40):
        for (xv, yv, zv), val in zip(points.T, vals):
            mx, my, mz = mpmath.mpf(xv), mpmath.mpf(yv), mpmath.mpf(zv)
            r = mpmath.sqrt(mx * mx + my * my + mz * mz)
            phase = (mpmath.mpc(mx, my) / mpmath.sqrt(mx * mx + my * my)) ** h
            ref = r ** n * phase * scale * mpmath.legenp(n, -m, mz / r, type=2)
            assert abs(val - complex(ref)) <= 1e-14 * abs(complex(ref)), (xv, yv, zv)


def test_proportionality_row_accepts_the_points_of_the_spherical_reference():
    # the array mask keeps the fixed draw order: at seeds 0..99 it accepts
    # the points the per-point spherical form accepts
    row = "integral_representation_proportionality"
    for seed in range(100):
        rng = suites.suite_rng(seed, "laplace")
        for (n, h) in ((1, 0), (2, 0), (2, 1), (3, 2)):
            picked = []
            for keep in (lambda x: np.abs(solid_harmonic(n, h, x.T)) > 1e-2,
                         lambda x: np.array([abs(solid_harmonic_spherical(n, h, p)) > 1e-2
                                             for p in x], dtype=bool)):
                stream = suites.field_rng(rng, row, f"points n={n} h={h}")
                picked.append(accepted_rows(lambda m: 1.5 * stream.normal(size=(m, 3)), keep, 8))
            assert np.array_equal(*picked), (seed, n, h)


def test_integral_rep_reference_values():
    assert abs(integral_rep(1, 0, (0.0, 0.0, 2.0)) - 4 * math.pi) < 1e-12
    assert abs(integral_rep(0, 0, (1.0, 2.0, 3.0)) - 2 * math.pi) < 1e-12


def _integral_rep_per_node(n, h, point, nodes=129):
    """The circle integral by composite Simpson with one scalar integrand
    evaluation per node: the reference for the array integrand."""
    xv, yv, zv = (float(c) for c in point)
    ts = np.linspace(-math.pi, math.pi, nodes)
    vals = [(zv + 1j * xv * math.cos(t) + 1j * yv * math.sin(t)) ** n * cmath.exp(1j * h * t)
            for t in ts]
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((ts[1] - ts[0]) / 3.0 * np.sum(w * np.array(vals)))


REFERENCE_POINTS = ((0.3, -1.1, 0.8), (1.7, 0.4, -0.6), (-0.9, -0.2, 1.3))


@pytest.mark.parametrize("n,h", [(1, 0), (2, 1), (3, 2), (4, -3)])
def test_integral_rep_matches_the_per_node_reference(n, h):
    for point in REFERENCE_POINTS:
        ref = _integral_rep_per_node(n, h, point)
        assert abs(integral_rep(n, h, point) - ref) <= 1e-13 * abs(ref), (n, h, point)


@pytest.mark.parametrize("n,h", [(1, 0), (2, 1), (3, 2), (4, -3)])
def test_integral_rep_on_a_point_array_equals_the_pointwise_calls(n, h):
    block = integral_rep(n, h, np.array(REFERENCE_POINTS).T)
    assert np.array_equal(block, [integral_rep(n, h, p) for p in REFERENCE_POINTS])


def test_integral_rep_proportionality():
    rng = np.random.default_rng(66)
    for (n, h) in ((1, 0), (2, 0), (2, 1), (3, 2)):
        pts = []
        while len(pts) < 10:
            cand = rng.normal(size=3) * 1.5
            if abs(solid_harmonic(n, h, cand)) > 1e-2:
                pts.append(cand)
        c, spread = calibrate_proportionality(n, h, pts)
        assert spread < 1e-8, (n, h)
        assert abs(c) > 1e-3
    # hand value: at h = 0 the x,y terms integrate out, c(1,0) = 2 pi
    c10, _ = calibrate_proportionality(1, 0, [(0.1, -0.4, 1.2), (0.9, 0.2, -0.7)])
    assert abs(c10 - 2 * math.pi) < 1e-10


def test_calibrate_proportionality_names_a_vanishing_point():
    # (1, 1, 0) lies on the nodal plane z = 0 of the (1, 0) harmonic
    with pytest.raises(ValueError, match=r"\(element 1\)$"):
        calibrate_proportionality(1, 0, [(0.1, -0.4, 1.2), (1.0, 1.0, 0.0)])


def test_integral_rep_harmonicity():
    rng = np.random.default_rng(67)
    for (n, h) in ((2, 1), (3, 2)):
        for part in (lambda z: z.real, lambda z: z.imag):
            f = lambda y, n=n, h=h, part=part: part(integral_rep(n, h, y))
            x = rng.normal(size=3)
            x *= 1.3 / np.linalg.norm(x)
            assert abs(fd_laplacian(f, x[:, None], FDStencil(step=1e-2, order=4))[0]) < 1e-5


def test_integral_rep_homogeneity_and_equivariance():
    rng = np.random.default_rng(68)
    for (n, h) in ((2, 1), (3, 2)):
        x = rng.normal(size=3)
        base = integral_rep(n, h, x)
        lam = 1.6
        assert abs(integral_rep(n, h, lam * x) - lam ** n * base) <= 1e-8 * max(1.0, abs(base) * lam ** n)
        delta = 0.8
        cd, sd = math.cos(delta), math.sin(delta)
        xr = np.array([cd * x[0] - sd * x[1], sd * x[0] + cd * x[1], x[2]])
        assert abs(integral_rep(n, h, xr) - np.exp(1j * h * delta) * base) <= 1e-8 * max(1.0, abs(base))


def test_polar_laplacian_2d():
    u = lambda r, phi: r * r
    assert abs(polar_laplacian("polar2d", u, (1.3, 0.4)) - 4.0) < 1e-9
    with pytest.raises(CoordinateSingularityError):
        polar_laplacian("polar2d", u, (1e-9, 0.0))


def test_polar_laplacian_3d_harmonic_fields():
    inv_r = lambda r, th, phi: 1.0 / r
    assert abs(polar_laplacian("spherical3d", inv_r, (1.7, 1.0, 0.3))) < 1e-5
    z_field = lambda r, th, phi: r * np.cos(th)
    assert abs(polar_laplacian("spherical3d", z_field, (1.7, 1.0, 0.3))) < 1e-5
    with pytest.raises(CoordinateSingularityError):
        polar_laplacian("spherical3d", inv_r, (1.0, 0.01, 0.0))


def test_polar_cartesian_agreement():
    f2 = lambda x: np.sin(x[0]) * np.exp(0.4 * x[1]) + x[0] * x[0] * x[1]
    u2 = lambda r, phi: f2(np.array([r * np.cos(phi), r * np.sin(phi)]))
    cart = fd_laplacian(f2, np.array([[1.1 * math.cos(0.7)], [1.1 * math.sin(0.7)]]))[0]
    assert abs(polar_laplacian("polar2d", u2, (1.1, 0.7)) - cart) < 1e-4

    f3 = lambda x: x[0] * x[1] + 0.2 * x[2] ** 3
    u3 = lambda r, th, phi: f3(np.array([r * np.sin(th) * np.cos(phi),
                                         r * np.sin(th) * np.sin(phi),
                                         r * np.cos(th)]))
    x3 = np.array([[1.4 * math.sin(1.1) * math.cos(0.5)],
                   [1.4 * math.sin(1.1) * math.sin(0.5)],
                   [1.4 * math.cos(1.1)]])
    assert abs(polar_laplacian("spherical3d", u3, (1.4, 1.1, 0.5)) - fd_laplacian(f3, x3)[0]) < 1e-4


def test_symbol():
    assert symbol([1.0, 0.0, 0.0]) == 1.0
    assert symbol([1.0, 2.0, 2.0]) == 9.0
    rng = np.random.default_rng(69)
    for _ in range(50):
        R = rotation_about(rng.normal(size=3), rng.uniform(0, 6))
        k = rng.normal(size=3)
        assert abs(symbol(R @ k) - symbol(k)) < 1e-12
    stack = rng.normal(size=(5, 3))
    assert np.array_equal(symbol(stack), [symbol(k) for k in stack])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fields_take_point_arrays(n):
    # an (n, M) array of points gives the M values of the points alone, up to
    # the last bits numpy's array and scalar kernels may round differently,
    # and a Laplacian far below the sweep tolerance
    rng = np.random.default_rng(70)
    pts = rng.normal(size=(n, 30)) + 1.5
    for f in (fundamental_solution(n, np.full(n, 0.2)), kelvin_invert(lambda y: y[0] * y[1], n)):
        values = f(pts)
        assert values.shape == (30,)
        loop = np.array([f(pts[:, i]) for i in range(30)])
        assert np.abs(values - loop).max() <= 4 * np.finfo(float).eps * np.abs(loop).max()
        assert np.abs(fd_laplacian(f, pts)).max() < 1e-5


def test_point_arrays_keep_the_singular_point_guards():
    pts = np.array([[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]])  # the second column is the origin
    with pytest.raises(SingularPointError):
        fundamental_solution(3, np.zeros(3))(pts)
    with pytest.raises(SingularPointError):
        kelvin_invert(lambda y: y[0], 3)(pts)


@pytest.mark.parametrize("nan_point", [1, 2, 3])
def test_calibrate_proportionality_propagates_nan(monkeypatch, nan_point):
    real = laplace_module.integral_rep
    calls = []

    def nan_at_point(n, h, points):
        calls.append(points)
        vals = real(n, h, points)
        vals[nan_point - 1] = complex("nan")
        return vals

    monkeypatch.setattr(laplace_module, "integral_rep", nan_at_point)
    pts = [(0.1, -0.4, 1.2), (0.9, 0.2, -0.7), (-0.5, 0.8, 0.3)]
    _, spread = calibrate_proportionality(1, 0, pts)
    assert math.isnan(spread)
    assert len(calls) == 1
