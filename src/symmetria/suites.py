"""Named verification suites.

Each suite function takes a deterministic per-suite RNG plus the run
configuration and returns a CheckReport.  Mutation controls deliberately
damage an object and pass when the damage is detected; they carry no
tolerance so the residual/tolerance consistency rule stays vacuous.
"""

from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction

import numpy as np

from . import fullerene, hopf, laplace, liealg, sklyanin, spacetime
from .numerics import FDStencil, fd_laplacian, sup_norm
from .report import Check, CheckReport

SUITE_NAMES = ("rotations", "galilei", "poincare", "conformal", "laplace",
               "fullerene", "hopf", "sklyanin")


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """Per-suite generator derived from the run seed and the suite name,
    stable under suite selection and ordering."""
    digest = hashlib.sha256(suite.encode()).digest()
    salt = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, salt)))


def _timed(check: Check, t0: float) -> Check:
    check.elapsed_ms = int(1000 * (time.perf_counter() - t0))
    return check


def _sweep_max(residuals: list) -> float:
    """Largest residual of a sweep; a NaN sample makes the result NaN, so
    the row fails instead of the sample vanishing into a running max."""
    return float(np.max(residuals))


def _residual_check(name: str, ref: str, residual: float, tol: float,
                    samples: int = 1, detail: str = "") -> Check:
    return Check(name=name, ref=ref, passed=residual <= tol, residual=float(residual),
                 tolerance=float(tol), samples=samples, detail=detail)


def _detection_check(name: str, ref: str, mutated_residual: float, threshold: float,
                     detail: str = "") -> Check:
    detected = mutated_residual > threshold
    return Check(name=name, ref=ref, passed=detected, residual=float(mutated_residual),
                 tolerance=None, samples=1,
                 detail=detail or f"mutation must push the residual above {threshold:g}")


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    return spacetime.rotation_about(rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi))


# ---------------------------------------------------------------------------


def run_rotations(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("rotations")
    t0 = time.perf_counter()
    rep.checks.append(_timed(Check(
        name="identity_is_proper", ref="orthonormality conditions on the rows of a rotation candidate",
        passed=spacetime.classify_rotation(np.eye(3)) == "proper"), t0))

    t0 = time.perf_counter()
    rep.checks.append(_timed(Check(
        name="reflection_is_improper", ref="determinant -1 component of the orthogonal group",
        passed=spacetime.classify_rotation(np.diag([1.0, 1.0, -1.0])) == "improper"), t0))

    t0 = time.perf_counter()
    worst = 0.0
    closed = True
    for _ in range(samples):
        prod = _random_rotation(rng) @ _random_rotation(rng)
        closed &= spacetime.classify_rotation(prod) == "proper"
        worst = max(worst, sup_norm(prod @ prod.T - np.eye(3)))
    rep.checks.append(_timed(Check(
        name="product_of_rotations_is_rotation",
        ref="closure of the rotation group under matrix product",
        passed=closed and worst <= tol, residual=worst, tolerance=tol,
        samples=samples), t0))

    t0 = time.perf_counter()
    sheared = np.eye(3) + np.array([[0.0, 1e-3, 0.0]] + [[0.0] * 3] * 2)
    rep.checks.append(_timed(Check(
        name="shear_rejected", ref="orthonormality conditions on the rows of a rotation candidate",
        passed=spacetime.classify_rotation(sheared) == "not_orthogonal"), t0))
    return rep


def run_galilei(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("galilei")
    structure = liealg.galilei_structure()

    t0 = time.perf_counter()
    for c in liealg.check_structure(structure):
        rep.checks.append(_timed(c, t0))
    t0 = time.perf_counter()
    rep.checks.append(_timed(Check(
        name="galilei_generator_count", ref="the ten one-parameter subgroups of the Galilei group",
        passed=structure.dimension() == 10, residual=float(structure.dimension() - 10),
        tolerance=0.0), t0))
    t0 = time.perf_counter()
    for c in liealg.verify_realization(structure, liealg.galilei_realization()):
        rep.checks.append(_timed(c, t0))

    def random_elem() -> spacetime.GalileiElement:
        return spacetime.GalileiElement(
            R=_random_rotation(rng), v=rng.normal(size=3),
            xi=rng.normal(size=3), tau=float(rng.normal()))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(samples):
        g1, g2 = random_elem(), random_elem()
        g21 = spacetime.galilei_compose(g2, g1)
        for _ in range(20):
            pt = spacetime.SpacetimePoint(float(rng.normal()), rng.normal(size=3))
            once = spacetime.galilei_apply(g21, pt)
            twice = spacetime.galilei_apply(g2, spacetime.galilei_apply(g1, pt))
            worst = max(worst, abs(once.t - twice.t), sup_norm((once.r - twice.r)[None, :]))
    rep.checks.append(_timed(_residual_check(
        "compose_matches_sequential_action",
        "Galilei multiplication law against pointwise application",
        worst, tol, samples=samples), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(samples // 2 + 1):
        g1, g2, g3 = random_elem(), random_elem(), random_elem()
        lhs = spacetime.galilei_compose(spacetime.galilei_compose(g3, g2), g1)
        rhs = spacetime.galilei_compose(g3, spacetime.galilei_compose(g2, g1))
        worst = max(worst, sup_norm(lhs.R - rhs.R), sup_norm((lhs.v - rhs.v)[None, :]),
                    sup_norm((lhs.xi - rhs.xi)[None, :]), abs(lhs.tau - rhs.tau))
    rep.checks.append(_timed(_residual_check(
        "composition_associative", "group axioms for Galilei transformations",
        worst, 1e-10, samples=samples // 2 + 1), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(samples // 2 + 1):
        g = random_elem()
        gid = spacetime.galilei_compose(g, spacetime.galilei_inverse(g))
        worst = max(worst, sup_norm(gid.R - np.eye(3)), sup_norm(gid.v[None, :]),
                    sup_norm(gid.xi[None, :]), abs(gid.tau))
    rep.checks.append(_timed(_residual_check(
        "inverse_roundtrip", "group axioms for Galilei transformations",
        worst, 1e-12, samples=samples // 2 + 1), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(samples // 2 + 1):
        g = random_elem()
        p1 = spacetime.SpacetimePoint(0.7, rng.normal(size=3))
        p2 = spacetime.SpacetimePoint(0.7, rng.normal(size=3))
        q1, q2 = spacetime.galilei_apply(g, p1), spacetime.galilei_apply(g, p2)
        worst = max(worst,
                    abs((q1.t - q2.t) - (p1.t - p2.t)),
                    abs(np.linalg.norm(q1.r - q2.r) - np.linalg.norm(p1.r - p2.r)))
    rep.checks.append(_timed(_residual_check(
        "simultaneous_distances_preserved",
        "Galilei transformations preserve time differences and simultaneous distances",
        worst, 1e-12, samples=samples // 2 + 1), t0))

    t0 = time.perf_counter()
    bad = dict(structure.constants)
    bad[("M2", "M3")] = {"M1": Fraction(-1)}
    bad[("M3", "M2")] = {"M1": Fraction(1)}
    mutated = liealg.LieStructure("galilei_mutated", structure.basis_labels, bad)
    failures = [c for c in liealg.check_structure(mutated) if c.status == "fail"]
    rep.checks.append(_timed(Check(
        name="mutation_control_bad_structure_constant",
        ref="a flipped rotation bracket must break the Jacobi identity",
        passed=bool(failures), residual=float(len(failures)), tolerance=None,
        detail=failures[0].detail if failures else "mutation went undetected"), t0))
    return rep


def run_poincare(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("poincare")
    structure = liealg.poincare_structure()

    t0 = time.perf_counter()
    for c in liealg.check_structure(structure):
        rep.checks.append(_timed(c, t0))
    t0 = time.perf_counter()
    rep.checks.append(_timed(Check(
        name="poincare_generator_count", ref="the Poincare group is a Lie group with ten parameters",
        passed=structure.dimension() == 10, residual=float(structure.dimension() - 10),
        tolerance=0.0), t0))
    t0 = time.perf_counter()
    for c in liealg.verify_realization(structure, liealg.poincare_realization()):
        rep.checks.append(_timed(c, t0))

    t0 = time.perf_counter()
    T = spacetime.PoincareElement(np.zeros(3), 0.0, np.array([0.6, 0.0, 0.0]), np.eye(3))
    out = spacetime.poincare_apply(T, spacetime.SpacetimePoint(1.0, np.zeros(3)))
    boost_res = max(abs(out.t - 1.25), abs(out.r[0] + 0.75), abs(out.r[1]), abs(out.r[2]))
    rep.checks.append(_timed(_residual_check(
        "boost_action_reference_value", "boost of the origin worldline at velocity 0.6",
        boost_res, 1e-12), t0))

    t0 = time.perf_counter()
    T1 = spacetime.PoincareElement(np.zeros(3), 0.0, np.array([0.5, 0.0, 0.0]), np.eye(3))
    T12 = spacetime.poincare_compose(T1, T1)
    rep.checks.append(_timed(_residual_check(
        "colinear_velocity_addition", "relativistic addition of parallel boost velocities",
        abs(T12.v[0] - 0.8) + abs(T12.v[1]) + abs(T12.v[2]), 1e-12), t0))

    def random_elem() -> spacetime.PoincareElement:
        v = rng.uniform(-1.0, 1.0, 3)
        v *= rng.uniform(0.0, 0.9) / max(1.0, np.linalg.norm(v))
        return spacetime.PoincareElement(rng.normal(size=3), float(rng.normal()),
                                         v, _random_rotation(rng))

    t0 = time.perf_counter()
    worst = 0.0
    worst_int = 0.0
    for _ in range(samples):
        T1, T2 = random_elem(), random_elem()
        T21 = spacetime.poincare_compose(T2, T1)
        for _ in range(20):
            pt = spacetime.SpacetimePoint(float(rng.normal()), rng.normal(size=3))
            qt = spacetime.SpacetimePoint(float(rng.normal()), rng.normal(size=3))
            once = spacetime.poincare_apply(T21, pt)
            twice = spacetime.poincare_apply(T2, spacetime.poincare_apply(T1, pt))
            worst = max(worst, abs(once.t - twice.t), float(np.max(np.abs(once.r - twice.r))))
            a1, a2 = spacetime.poincare_apply(T1, pt), spacetime.poincare_apply(T1, qt)
            worst_int = max(worst_int, abs(
                spacetime.minkowski_interval(a1.as4() - a2.as4())
                - spacetime.minkowski_interval(pt.as4() - qt.as4())))
    rep.checks.append(_timed(_residual_check(
        "compose_matches_sequential_action",
        "composition through the affine embedding against pointwise application",
        worst, tol, samples=samples), t0))
    rep.checks.append(_timed(_residual_check(
        "interval_preserved", "invariance of the Minkowski interval between event pairs",
        worst_int, tol, samples=samples), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(max(10, samples // 10)):
        T1, T2, T3 = random_elem(), random_elem(), random_elem()
        lhs = spacetime.poincare_compose(spacetime.poincare_compose(T3, T2), T1)
        rhs = spacetime.poincare_compose(T3, spacetime.poincare_compose(T2, T1))
        worst = max(worst, sup_norm(lhs.R - rhs.R), float(np.max(np.abs(lhs.v - rhs.v))),
                    float(np.max(np.abs(lhs.a - rhs.a))), abs(lhs.b - rhs.b))
    rep.checks.append(_timed(_residual_check(
        "composition_associative", "group axioms for Poincare transformations",
        worst, 1e-10, samples=max(10, samples // 10)), t0))

    t0 = time.perf_counter()
    pt = spacetime.SpacetimePoint(1.0, np.array([1.0, 2.0, 3.0]))
    pp = spacetime.discrete_apply("P", spacetime.discrete_apply("P", pt))
    tt = spacetime.discrete_apply("T", spacetime.discrete_apply("T", pt))
    ss = spacetime.discrete_apply("PT", spacetime.discrete_apply("PT", pt))
    chain = spacetime.discrete_apply("T", spacetime.discrete_apply("P", pt))
    direct = spacetime.discrete_apply("PT", pt)
    res = max(abs(pp.t - pt.t), float(np.max(np.abs(pp.r - pt.r))),
              abs(tt.t - pt.t), float(np.max(np.abs(tt.r - pt.r))),
              abs(ss.t - pt.t), float(np.max(np.abs(ss.r - pt.r))),
              abs(chain.t - direct.t), float(np.max(np.abs(chain.r - direct.r))))
    rep.checks.append(_timed(_residual_check(
        "discrete_inversions_involutive",
        "space, time, and combined inversions square to the identity and compose",
        res, 0.0), t0))
    return rep


def run_conformal(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("conformal")

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        x = rng.normal(size=4)
        omega, res = spacetime.conformal_pullback_check(spacetime.Dilation(2.0), x)
        worst = max(worst, abs(omega * omega - 0.25), res)
    rep.checks.append(_timed(_residual_check(
        "dilation_pullback_factor", "a dilation by k rescales the metric by k^-2",
        worst, 1e-8, samples=5), t0))

    t0 = time.perf_counter()
    omega, res = spacetime.conformal_pullback_check(spacetime.Dilation(1.0), rng.normal(size=4))
    rep.checks.append(_timed(_residual_check(
        "dilation_identity", "unit dilation leaves the metric alone",
        max(abs(omega - 1.0), res), 1e-8), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for x in ([2.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0], [0.5, 2.0, -1.0, 0.3]):
        omega, res = spacetime.conformal_pullback_check(spacetime.Inversion(), x)
        target = 1.0 / abs(spacetime.minkowski_interval(x))
        worst = max(worst, abs(abs(omega) - target), res)
    rep.checks.append(_timed(_residual_check(
        "inversion_pullback_factor",
        "inversion induces a conformal factor of inverse interval magnitude",
        worst, 1e-6, samples=3), t0))

    t0 = time.perf_counter()
    r_const = spacetime.conformal_flatness_check("constant", [0.0, 2.0, 0.0, 0.0], c=3.0)
    rep.checks.append(_timed(_residual_check(
        "flatness_constant_rescaling", "constant rescalings of flat space stay flat",
        r_const, 1e-4), t0))

    t0 = time.perf_counter()
    r_inv = spacetime.conformal_flatness_check("inverse_interval", [0.0, 2.0, 0.0, 0.0])
    rep.checks.append(_timed(_residual_check(
        "flatness_inverse_interval_rescaling",
        "the inverse-interval rescaling of flat space has vanishing curvature",
        r_inv, 1e-4), t0))

    t0 = time.perf_counter()
    r_exp = spacetime.conformal_flatness_check("exp_x1", [0.0, 2.0, 0.0, 0.0])
    rep.checks.append(_timed(_detection_check(
        "mutation_control_nonflat_rescaling",
        "a generic exponential rescaling must show visible curvature",
        r_exp, 1e-2), t0))

    t0 = time.perf_counter()
    worst = 0.0
    fields = [lambda y: y[1] ** 2, lambda y: y[0] ** 2 - 2.0 * y[2] ** 2,
              lambda y: y[0] * y[1] + y[3] ** 2]
    for f in fields:
        for kdil in (0.5, 2.0, 3.0):
            worst = max(worst, spacetime.dalembert_dilation_check(kdil, f, rng.normal(size=4) * 0.5))
    rep.checks.append(_timed(_residual_check(
        "wave_operator_dilation_scaling",
        "the wave operator picks up k^-2 under a dilation",
        worst, 1e-6, samples=9), t0))

    t0 = time.perf_counter()
    wave = lambda y: math.sin(y[0] - y[1])
    x = np.array([0.3, 0.7, 0.0, 0.0])
    massless = abs(spacetime.dalembert(lambda y: wave(2.0 * y), x))
    phi2 = lambda y: wave(2.0 * y)
    massive_lhs = spacetime.dalembert(phi2, x) + phi2(x)
    massive_rhs = 4.0 * (spacetime.dalembert(wave, 2.0 * x) + wave(2.0 * x))
    rep.checks.append(_timed(Check(
        name="massless_field_stays_solution",
        ref="conformal invariance singles out massless wave equations",
        passed=massless < 1e-6 and abs(massive_lhs - massive_rhs) > 1e-3,
        residual=massless, tolerance=1e-6,
        detail=f"massive scaling defect {abs(massive_lhs - massive_rhs):.3e} stays visible"), t0))
    return rep


def run_laplace(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("laplace")

    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        f = laplace.fundamental_solution(n, np.zeros(n))
        for _ in range(max(5, samples // 10)):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
            worst = max(worst, abs(fd_laplacian(f, x)))
            count += 1
    rep.checks.append(_timed(_residual_check(
        "fundamental_solution_harmonic",
        "the characteristic point singularity solves the Laplace equation off-source",
        worst, 1e-5, samples=count), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for radius in (1.0, 5.0):
            worst = max(worst, abs(laplace.flux_through_sphere(n, radius) - 1.0))
    rep.checks.append(_timed(_residual_check(
        "unit_flux_normalization",
        "the fundamental solution carries unit flux through every sphere",
        worst, 1e-8, samples=6), t0))

    t0 = time.perf_counter()
    worst = 0.0
    inputs = [lambda y: 1.0, lambda y: y[0], lambda y: y[0] * y[1]]
    for u in inputs:
        v = laplace.kelvin_invert(u, 3)
        for _ in range(max(5, samples // 20)):
            x = rng.normal(size=3)
            x *= rng.uniform(1.2, 3.0) / np.linalg.norm(x)
            worst = max(worst, abs(fd_laplacian(v, x)))
    rep.checks.append(_timed(_residual_check(
        "kelvin_transform_preserves_harmonicity",
        "unit-sphere inversion with the r^(2-n) weight maps harmonic to harmonic",
        worst, 1e-5, samples=3 * max(5, samples // 20)), t0))

    t0 = time.perf_counter()
    worst = 0.0
    u = lambda y: y[0] + 0.3 * y[1] * y[2]
    w = laplace.kelvin_invert(laplace.kelvin_invert(u, 3), 3)
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(0.4, 2.5) / np.linalg.norm(x)
        worst = max(worst, abs(w(x) - u(x)))
    rep.checks.append(_timed(_residual_check(
        "kelvin_transform_involutive", "applying the inversion twice returns the field",
        worst, 1e-10, samples=10), t0))

    t0 = time.perf_counter()
    boundary = max(abs(laplace.exterior_family(a, 1.0) - 1.0) for a in (-1.0, 0.0, 0.5, 1.0, 2.0))
    only_a1 = (laplace.exterior_family_regular_at_origin(1.0)
               and not laplace.exterior_family_regular_at_origin(0.5)
               and not laplace.exterior_family_regular_at_origin(0.0))
    rep.checks.append(_timed(Check(
        name="exterior_family_regularity",
        ref="only the pure 1/r member of the exterior family is regular at infinity",
        passed=boundary < 1e-12 and only_a1, residual=boundary, tolerance=1e-12,
        detail="boundary value 1 on the unit sphere for every parameter"), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for (n, h) in ((1, 0), (2, 0), (2, 1), (3, 2)):
        pts = []
        while len(pts) < 8:
            cand = rng.normal(size=3) * 1.5
            if abs(laplace.solid_harmonic(n, h, cand)) > 1e-2:
                pts.append(cand)
        _, spread = laplace.calibrate_proportionality(n, h, pts)
        worst = max(worst, spread)
    rep.checks.append(_timed(_residual_check(
        "integral_representation_proportionality",
        "the circle integral reproduces solid harmonics up to a fixed constant",
        worst, 1e-8, samples=32), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for (n, h) in ((2, 1), (3, 2)):
        for part in (lambda z: z.real, lambda z: z.imag):
            f = lambda y, n=n, h=h, part=part: part(laplace.integral_rep(n, h, y))
            for _ in range(3):
                x = rng.normal(size=3)
                x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
                worst = max(worst, abs(fd_laplacian(f, x, FDStencil(step=1e-2, order=4))))
    rep.checks.append(_timed(_residual_check(
        "integral_representation_harmonic",
        "real and imaginary parts of the superposition integral are harmonic",
        worst, 1e-5, samples=12), t0))

    t0 = time.perf_counter()
    worst_h = 0.0
    worst_a = 0.0
    for (n, h) in ((2, 1), (3, 2)):
        x = rng.normal(size=3)
        lam = 1.7
        base = laplace.integral_rep(n, h, x)
        scaled = laplace.integral_rep(n, h, lam * x)
        worst_h = max(worst_h, abs(scaled - lam ** n * base) / max(1.0, abs(base)))
        # rotate the azimuth by delta
        delta = 0.9
        c, s = math.cos(delta), math.sin(delta)
        xr = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1], x[2]])
        rotated = laplace.integral_rep(n, h, xr)
        worst_a = max(worst_a, abs(rotated - np.exp(1j * h * delta) * base) / max(1.0, abs(base)))
    rep.checks.append(_timed(_residual_check(
        "homogeneity_degree_n", "the superposition integral is homogeneous of the polynomial degree",
        worst_h, 1e-8, samples=2), t0))
    rep.checks.append(_timed(_residual_check(
        "azimuthal_equivariance", "rotating the azimuth multiplies the integral by a phase",
        worst_a, 1e-8, samples=2), t0))

    t0 = time.perf_counter()
    f2 = lambda xv: math.sin(xv[0]) * math.exp(0.4 * xv[1]) + xv[0] * xv[0] * xv[1]
    u2 = lambda r, phi: f2(np.array([r * math.cos(phi), r * math.sin(phi)]))
    polar = laplace.polar_laplacian("polar2d", u2, (1.1, 0.7))
    cart = fd_laplacian(f2, np.array([1.1 * math.cos(0.7), 1.1 * math.sin(0.7)]))
    worst = abs(polar - cart)
    f3 = lambda xv: xv[0] * xv[1] + 0.2 * xv[2] ** 3
    u3 = lambda r, th, phi: f3(np.array([r * math.sin(th) * math.cos(phi),
                                         r * math.sin(th) * math.sin(phi),
                                         r * math.cos(th)]))
    sph = laplace.polar_laplacian("spherical3d", u3, (1.4, 1.1, 0.5))
    x3 = np.array([1.4 * math.sin(1.1) * math.cos(0.5),
                   1.4 * math.sin(1.1) * math.sin(0.5), 1.4 * math.cos(1.1)])
    worst = max(worst, abs(sph - fd_laplacian(f3, x3)))
    rep.checks.append(_timed(_residual_check(
        "polar_cartesian_agreement",
        "the polar and spherical Laplacian formulas match the Cartesian operator",
        worst, 1e-4, samples=2), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        R = _random_rotation(rng)
        kvec = rng.normal(size=3)
        worst = max(worst, abs(laplace.symbol(R @ kvec) - laplace.symbol(kvec)))
    rep.checks.append(_timed(_residual_check(
        "symbol_rotation_invariant",
        "the symbol is the squared frequency length, a rotation invariant",
        worst, 1e-12, samples=50), t0))
    return rep


def run_fullerene(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("fullerene")
    g = fullerene.build_truncated_icosahedron()

    t0 = time.perf_counter()
    census = fullerene.face_census(g)
    expected = {"V": 60, "E": 90, "F": 32, "pentagons": 12, "hexagons": 20}
    rep.checks.append(_timed(Check(
        name="face_census", ref="sixty vertices and thirty-two faces, twelve pentagonal",
        passed=census == expected, residual=float(sum(abs(census[k] - expected[k]) for k in expected)),
        tolerance=0.0, detail=str(census)), t0))

    t0 = time.perf_counter()
    rep.checks.append(_timed(_residual_check(
        "euler_characteristic", "V - E + F = 2 for a sphere-like polyhedron",
        abs(fullerene.euler_check(g) - 2), 0.0), t0))

    t0 = time.perf_counter()
    rep.checks.append(_timed(Check(
        name="three_regular", ref="every carbon site carries three bonds",
        passed=set(g.degree_sequence()) == {3}), t0))

    t0 = time.perf_counter()
    ok, witness = fullerene.isolated_pentagon_check(g)
    rep.checks.append(_timed(Check(
        name="isolated_pentagons", ref="every pentagon is completely surrounded by hexagons",
        passed=ok, detail="" if ok else f"adjacent pentagon pair {witness}"), t0))

    t0 = time.perf_counter()
    bonds = fullerene.kekule(g)
    doubles = {e for e, kind in bonds.items() if kind == "double"}
    hh = set(fullerene.hex_hex_edges(g))
    per_vertex = [0] * 60
    for (a, b) in doubles:
        per_vertex[a] += 1
        per_vertex[b] += 1
    rep.checks.append(_timed(Check(
        name="kekule_assignment",
        ref="valences satisfied by two single bonds and one double bond",
        passed=(len(doubles) == 30 and doubles == hh and all(c == 1 for c in per_vertex)),
        residual=float(len(doubles) - 30), tolerance=0.0,
        detail="30 double bonds, all on hexagon-hexagon edges"), t0))

    t0 = time.perf_counter()
    ef = g.edge_face_map()
    sizes = [len(f) for f in g.faces]
    ph = sum(1 for e, fs in ef.items() if {sizes[fs[0]], sizes[fs[1]]} == {5, 6})
    rep.checks.append(_timed(Check(
        name="edge_partition", ref="bond types split sixty pentagon-hexagon from thirty hexagon-hexagon edges",
        passed=(ph == 60 and len(hh) == 30), residual=float(abs(ph - 60) + abs(len(hh) - 30)),
        tolerance=0.0), t0))

    t0 = time.perf_counter()
    centroid = np.mean(np.array([v for v in g.vertices]), axis=0)
    radii = [float(np.linalg.norm(v - centroid)) for v in g.vertices]
    rep.checks.append(_timed(_residual_check(
        "vertex_transitive_embedding", "all sites equidistant from the cage center",
        max(radii) - min(radii), 1e-9, samples=60), t0))

    t0 = time.perf_counter()
    order = fullerene.automorphism_order(g)
    rep.checks.append(_timed(Check(
        name="automorphism_order", ref="the truncated icosahedron realizes full icosahedral symmetry",
        passed=order == 120, residual=float(order - 120), tolerance=0.0,
        detail=f"combinatorial group order {order}"), t0))

    t0 = time.perf_counter()
    # control fixtures with pentagon pairs sharing edges
    dodeca = fullerene.dodecahedron_graph()
    ok_dodeca, _ = fullerene.isolated_pentagon_check(dodeca)
    mutated_faces = [list(f) for f in g.faces]
    pent = [i for i, f in enumerate(mutated_faces) if len(f) == 5]
    mutated_faces[pent[0]] = list(mutated_faces[pent[1]])
    mutated = fullerene.PolyhedralGraph(vertices=g.vertices, edges=g.edges,
                                        faces=mutated_faces)
    ok_mut, _ = fullerene.isolated_pentagon_check(mutated)
    ok_mut = ok_mut or ok_dodeca
    rep.checks.append(_timed(Check(
        name="mutation_control_merged_pentagons",
        ref="pentagon pairs sharing an edge must be reported unstable",
        passed=not ok_mut, tolerance=None,
        detail="duplicated pentagon creates a pentagon-pentagon edge"), t0))

    t0 = time.perf_counter()
    dropped = fullerene.PolyhedralGraph(vertices=g.vertices, edges=g.edges,
                                        faces=g.faces[:-1])
    rep.checks.append(_timed(Check(
        name="mutation_control_deleted_face",
        ref="removing a face must break the Euler count",
        passed=fullerene.euler_check(dropped) != 2, tolerance=None,
        detail=f"V-E+F = {fullerene.euler_check(dropped)}"), t0))
    return rep


def run_hopf(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("hopf")

    t0 = time.perf_counter()
    worst_base = 0.0
    worst_cop = 0.0
    worst_coass = 0.0
    for j in (0.5, 1.0, 1.5):
        for q in (0.7, 1.3, 2.0):
            r = hopf.uq_su2_rep(j, q)
            worst_base = max(worst_base, hopf.relations_residual(r.H, r.Xp, r.Xm, q))
            c = hopf.coproduct_rep(r)
            worst_cop = max(worst_cop, hopf.relations_residual(c.H, c.Xp, c.Xm, q))
            worst_coass = max(worst_coass, hopf.coassociativity_residual(r))
    rep.checks.append(_timed(_residual_check(
        "deformed_su2_relations", "ladder commutators of the q-deformed enveloping algebra",
        worst_base, 1e-11, samples=9), t0))
    rep.checks.append(_timed(_residual_check(
        "coproduct_is_homomorphism", "the coproduct images satisfy the same relations",
        worst_cop, 1e-10, samples=9), t0))
    rep.checks.append(_timed(_residual_check(
        "coassociativity", "both iterated coproducts agree on the triple tensor space",
        worst_coass, 1e-10, samples=9), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.7, 1.3, 2.0):
        r = hopf.uq_su2_rep(0.5, q)
        worst = max(worst, max(hopf.counit_antipode_residuals(r).values()))
        r1 = hopf.uq_su2_rep(1.0, q)
        worst = max(worst, max(hopf.counit_antipode_residuals(r1).values()))
    cp, cm = hopf.antipode_convention_solve(1.3)
    convention_ok = abs(cp + 1.3) < 1e-12 and abs(cm + 1.0 / 1.3) < 1e-12
    rep.checks.append(_timed(Check(
        name="counit_antipode_axioms",
        ref="counit and antipode composites collapse to the unit times the counit",
        passed=worst <= 1e-11 and convention_ok, residual=worst, tolerance=1e-11,
        samples=6, detail=f"antipode powers solved on the 2x2 block: ({cp:.6g}, {cm:.6g})"), t0))

    t0 = time.perf_counter()
    qs = [1 + 10.0 ** (-e) for e in (2, 3, 4, 5)]
    classical = hopf.uq_su2_rep(0.5, 1 + 1e-12)
    one = np.eye(2, dtype=complex)
    additive = np.kron(classical.Xp, one) + np.kron(one, classical.Xp)
    errs = []
    for q in qs:
        c = hopf.coproduct_rep(hopf.uq_su2_rep(0.5, q))
        errs.append(sup_norm(c.Xp - additive))
    slope = float(np.polyfit(np.log([q - 1 for q in qs]), np.log(errs), 1)[0])
    rep.checks.append(_timed(Check(
        name="coproduct_classical_limit",
        ref="the deformed coproduct returns to the additive one as q approaches 1",
        passed=abs(slope - 1.0) <= 0.2, residual=abs(slope - 1.0), tolerance=0.2,
        samples=len(qs), detail=f"log-log slope {slope:.4f}"), t0))

    t0 = time.perf_counter()
    ops = hopf.planck_scale_ops(256, 5.0, 1.0, 2.0)
    rep.checks.append(_timed(_residual_check(
        "position_momentum_deformed_commutator",
        "the grid pair reproduces the exponentially deformed commutator",
        hopf.planck_commutator_residual(ops), 1e-5), t0))

    t0 = time.perf_counter()
    rep.checks.append(_timed(_residual_check(
        "deformed_coproduct_homomorphism",
        "the twisted momentum coproduct preserves the deformed commutator",
        hopf.planck_coproduct_residual(ops), 1e-5), t0))
    return rep


def run_sklyanin(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("sklyanin")
    p_cl = sklyanin.ClassicalRParams(rho=1.0, k=0.5)
    p_q = sklyanin.QuantumRParams(eta=0.3, k=0.5)

    t0 = time.perf_counter()
    J = sklyanin.classical_quadric(p_cl)
    worst = 0.0
    for u, _ in sklyanin.sweep_samples(rng, p_cl.k, 20):
        w = sklyanin.classical_w(u, p_cl)
        for (a, b), val in J.items():
            worst = max(worst, abs(w[a - 1] ** 2 - w[b - 1] ** 2 - val))
    rep.checks.append(_timed(_residual_check(
        "classical_quadric_constancy",
        "squared classical weights differ by constants on the quadric",
        worst, 1e-10, samples=20), t0))

    t0 = time.perf_counter()
    ref = sklyanin.quantum_curve(p_q, u_ref=0.7)
    worst = 0.0
    for u, _ in sklyanin.sweep_samples(rng, p_q.k, 20):
        cur = sklyanin.quantum_curve(p_q, u_ref=u)
        worst = max(worst, max(abs(cur[key] - ref[key]) for key in ref))
    rep.checks.append(_timed(_residual_check(
        "quantum_curve_constancy",
        "the quantum weights lie on a spectral-parameter-independent curve",
        worst, 1e-9, samples=20), t0))

    t0 = time.perf_counter()
    worst = _sweep_max([sklyanin.cybe_residual(u, v, p_cl)
                        for u, v in sklyanin.sweep_samples(rng, p_cl.k, samples)])
    rep.checks.append(_timed(_residual_check(
        "classical_yang_baxter", "the elliptic classical r-matrix solves its Yang-Baxter equation",
        worst, tol, samples=samples), t0))

    t0 = time.perf_counter()
    residuals = [sklyanin.qybe_residual(u, v, p_q)
                 for u, v in sklyanin.sweep_samples(rng, p_q.k, samples)]
    p_q0 = sklyanin.QuantumRParams(eta=0.3, k=0.0)
    residuals += [sklyanin.qybe_residual(u, v, p_q0)
                  for u, v in sklyanin.sweep_samples(rng, 0.0, 20)]
    rep.checks.append(_timed(_residual_check(
        "quantum_yang_baxter", "the elliptic quantum R-matrix solves its Yang-Baxter equation",
        _sweep_max(residuals), tol, samples=samples + 20), t0))

    t0 = time.perf_counter()
    r2 = sklyanin.rep2()
    residuals = []
    for eta in (0.2, 0.3):
        for k in (0.0, 0.3, 0.5):
            pq = sklyanin.QuantumRParams(eta=eta, k=k)
            residuals += [sklyanin.rll_residual(u, v, r2, pq)
                          for u, v in sklyanin.sweep_samples(rng, k, max(5, samples // 20))]
    rep.checks.append(_timed(_residual_check(
        "exchange_relation_pauli",
        "the Pauli generating matrix intertwines with the quantum R-matrix",
        _sweep_max(residuals), tol, samples=6 * max(5, samples // 20)), t0))

    t0 = time.perf_counter()
    rep.checks.append(_timed(_residual_check(
        "quadratic_relations_pauli", "the Pauli representation satisfies the quadratic algebra exactly",
        sklyanin.sklyanin_residual(r2), 0.0), t0))

    t0 = time.perf_counter()
    worst = 0.0
    worst_sa = 0.0
    for _ in range(3):
        Jt = rng.uniform(0.5, 3.0, 3)
        r3 = sklyanin.rep3(*Jt)
        worst = max(worst, sklyanin.sklyanin_residual(r3))
        worst_sa = max(worst_sa, max(sup_norm(S - S.conj().T) for S in r3.S))
    rep.checks.append(_timed(_residual_check(
        "quadratic_relations_threedim",
        "the explicit three-dimensional representation satisfies the quadratic algebra",
        worst, 1e-12, samples=3), t0))
    rep.checks.append(_timed(_residual_check(
        "threedim_self_adjoint", "the three-dimensional generators are self-adjoint for positive couplings",
        worst_sa, 1e-12, samples=3), t0))

    t0 = time.perf_counter()
    summed = sklyanin.sklyanin_residual(sklyanin.rep3(1.0, 2.0, 3.0), convention="summed")
    rep.checks.append(_timed(Check(
        name="index_convention_discrimination",
        ref="the free-sum reading of the quadratic relations collapses by antisymmetry",
        passed=summed > 1e-3, residual=summed, tolerance=None,
        detail="cyclic triples satisfy the relations; the free double sum does not"), t0))

    t0 = time.perf_counter()
    worst = 0.0
    n_int = 0
    while n_int < 20:
        a = tuple(int(z) for z in rng.integers(-5, 6, 4))
        b = tuple(int(z) for z in rng.integers(-5, 6, 4))
        if a == b:
            continue
        table = sklyanin.poisson_tensor(sklyanin.PoissonTensorSpec(a=a, b=b))
        if sklyanin.poisson_jacobi_defect(table):
            worst = 1.0
        n_int += 1
    special = sklyanin.poisson_tensor(sklyanin.PoissonTensorSpec(a=(1, 2, 5, 9), b=(0, 1, 1, 1)))
    term_ok = True
    c = sklyanin._coord
    # cyclic (j,k,l): {x_k,x_l} = x_0 x_j and {x_k,x_0} = (a_j - a_l) x_j x_l
    expect = {
        (1, 2): c(0) * c(3), (2, 3): c(0) * c(1), (3, 1): c(0) * c(2),
        (1, 0): (c(2) * c(3)).scale(9 - 5), (2, 0): (c(1) * c(3)).scale(2 - 9),
        (3, 0): (c(1) * c(2)).scale(5 - 2),
    }
    for key, val in expect.items():
        if special[key] - val:
            term_ok = False
    rep.checks.append(_timed(Check(
        name="volume_contraction_poisson_tensor",
        ref="quadratic brackets from volume contraction satisfy the Jacobi identity exactly",
        passed=(worst == 0.0 and term_ok), residual=worst, tolerance=0.0, samples=20,
        detail="special coefficients reproduce the quadratic bracket term by term"), t0))

    t0 = time.perf_counter()
    worst = 0.0
    for (u, v) in sklyanin.sweep_samples(rng, p_cl.k, 5):
        worst = max(worst, sklyanin.classical_sklyanin_bracket_residual(p_cl, u, v))
    worst0 = sklyanin.classical_sklyanin_bracket_residual(
        sklyanin.ClassicalRParams(rho=1.0, k=0.0), 0.9, 0.4)
    rep.checks.append(_timed(_residual_check(
        "classical_bracket_exchange_identity",
        "the quadratic Poisson brackets reproduce the classical exchange relation",
        max(worst, worst0), 1e-8, samples=6), t0))

    t0 = time.perf_counter()
    probe = sklyanin.classical_limit_probe(0.8, p_cl, [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)])
    slopes_ok = (probe["e1_slope"] >= 1.9 and probe["e2_slope"] >= 1.9
                 and probe["e3_slope"] >= 3.8)
    rep.checks.append(_timed(Check(
        name="classical_limit_orders",
        ref="quantum weights, R-matrix, and curve constants degenerate at their stated orders",
        passed=slopes_ok,
        residual=float(min(probe["e1_slope"], probe["e2_slope"], probe["e3_slope"] / 2.0)),
        tolerance=None, samples=5,
        detail=(f"slopes e1={probe['e1_slope']:.3f}, e2={probe['e2_slope']:.3f}, "
                f"e3={probe['e3_slope']:.3f}")), t0))

    t0 = time.perf_counter()
    u, v = 1.1, 0.4
    w_uv = sklyanin.classical_w(u - v, p_cl)
    mutated = np.zeros((4, 4), dtype=complex)
    for a, wv in enumerate((w_uv[0] * 1.01, w_uv[1], w_uv[2]), start=1):
        mutated += wv * sklyanin.SIGMA_PAIR[a]
    r12 = sklyanin._embed_pair(mutated, (0, 1))
    r13 = sklyanin._embed_pair(sklyanin.classical_r(u, p_cl), (0, 2))
    r23 = sklyanin._embed_pair(sklyanin.classical_r(v, p_cl), (1, 2))
    res = sup_norm(sklyanin.commutator(r12, r13) + sklyanin.commutator(r12, r23)
                   + sklyanin.commutator(r13, r23))
    rep.checks.append(_timed(_detection_check(
        "mutation_control_perturbed_weight",
        "scaling one classical weight must break the Yang-Baxter identity",
        res, 1e-3), t0))

    t0 = time.perf_counter()
    r3 = sklyanin.rep3(1.0, 2.0, 3.0)
    flipped = sklyanin.SklyaninRep(dim=3, S=(r3.S[0], r3.S[1], r3.S[2], -r3.S[3]), J=r3.J)
    rep.checks.append(_timed(_detection_check(
        "mutation_control_flipped_generator",
        "negating one generator must break the quadratic relations",
        sklyanin.sklyanin_residual(flipped), 1e-3), t0))

    t0 = time.perf_counter()
    res3 = min(sklyanin.rll_residual(u, v, r3, p_q) for (u, v) in sklyanin.sweep_samples(rng, p_q.k, 5))
    rep.checks.append(_timed(Check(
        name="exchange_relation_threedim_exploratory",
        ref="whether the three-dimensional representation intertwines at this normalization is left open",
        passed=True, status="skipped", residual=res3, tolerance=None,
        detail="reported informatively; only the quadratic relations are asserted"), t0))
    return rep


SUITES = {
    "rotations": run_rotations,
    "galilei": run_galilei,
    "poincare": run_poincare,
    "conformal": run_conformal,
    "laplace": run_laplace,
    "fullerene": run_fullerene,
    "hopf": run_hopf,
    "sklyanin": run_sklyanin,
}


def run_suites(names, seed: int, tol: float, samples: int) -> list:
    reports = []
    for name in names:
        reports.append(SUITES[name](suite_rng(seed, name), tol, samples))
    return reports
