"""Named verification suites.

Each suite function takes a deterministic per-suite RNG plus the run
configuration and returns a CheckReport whose rows are recorded with
``CheckReport.check``.  No row draws from that generator: each drawn
field of a row comes from its own keyed stream (``field_rng``), drawn as
one block, so a sample does not depend on the sample count or on the
other rows.  Mutation controls (``detect=``) deliberately damage
an object and pass when the damage is detected; they carry no tolerance.
"""

from __future__ import annotations

import functools
import math

try:  # the builtin module: hashlib would load OpenSSL
    from _sha256 import sha256
except ImportError:  # CPython 3.12+ names it _sha2
    from hashlib import sha256

import numpy as np

from . import fullerene, hopf, laplace, liealg, sklyanin, spacetime
from .numerics import FDStencil, accepted_rows, fd_laplacian, kron, sup_norm
from .report import CheckReport

SUITE_NAMES = ("rotations", "galilei", "poincare", "conformal", "laplace",
               "fullerene", "hopf", "sklyanin")


def _salt(text: str) -> int:
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big")


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """Per-suite generator derived from the run seed and the suite name,
    stable under suite selection and ordering."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, _salt(suite))))


def field_rng(rng: np.random.Generator, row: str, field: str) -> np.random.Generator:
    """The keyed stream of one drawn field of one row: the suite generator's
    entropy, with its spawn key extended by a sha256 salt of (row, field).

    Each field is drawn as one block with the sample on its leading axis,
    and a generator fills a block in order, so sample i of a row is the
    same at every sample count above i.  Fields of one distribution may
    share a block: each sample is one row of it."""
    seq = rng.bit_generator.seed_seq
    key = (*seq.spawn_key, _salt(f"{row}/{field}"))
    return np.random.default_rng(
        np.random.SeedSequence(seq.entropy, spawn_key=key, pool_size=seq.pool_size))


def _rotations(rng: np.random.Generator, row: str, shape: tuple) -> np.ndarray:
    """A `shape` stack of random 3x3 rotations: normal axes, angles uniform
    in [0, 2 pi)."""
    axis = field_rng(rng, row, "rotation axis").normal(size=(*shape, 3))
    angle = field_rng(rng, row, "rotation angle").uniform(0.0, 2.0 * math.pi, shape)
    return spacetime.rotation_about(axis, angle)


def _galilei_elements(rng: np.random.Generator, row: str, count: int, per_sample: int) -> list:
    """`per_sample` stacks of `count` random Galilei elements; v, xi and tau
    are normal and share one block."""
    R = _rotations(rng, row, (count, per_sample))
    vxt = field_rng(rng, row, "galilei v xi tau").normal(size=(count, per_sample, 7))
    return [spacetime.GalileiElement(R[:, j], vxt[:, j, :3], vxt[:, j, 3:6], vxt[:, j, 6])
            for j in range(per_sample)]


def _poincare_elements(rng: np.random.Generator, row: str, count: int, per_sample: int) -> list:
    """`per_sample` stacks of `count` random Poincare elements.  v is drawn in
    the box [-1, 1)^3 and scaled to a speed factor in [0, 0.9) times at most
    1/|v|; v and the factor share one uniform block, a and b one normal
    block."""
    R = _rotations(rng, row, (count, per_sample))
    box = field_rng(rng, row, "poincare v speed").uniform(
        (-1.0, -1.0, -1.0, 0.0), (1.0, 1.0, 1.0, 0.9), (count, per_sample, 4))
    ab = field_rng(rng, row, "poincare a b").normal(size=(count, per_sample, 4))
    v = box[..., :3]
    v = v * (box[..., 3] / np.maximum(1.0, spacetime.vector_norm(v)))[..., None]
    return [spacetime.PoincareElement(ab[:, j, :3], ab[:, j, 3], v[:, j], R[:, j])
            for j in range(per_sample)]


def _shell_points(rng: np.random.Generator, row: str, shape: tuple, n: int,
                  lo: float, hi: float) -> np.ndarray:
    """A `shape` stack of points of R^n (the last axis) in isotropic
    directions, at radii uniform in [lo, hi)."""
    x = field_rng(rng, row, f"direction{n}").normal(size=(*shape, n))
    radius = field_rng(rng, row, f"radius{n}").uniform(lo, hi, shape)
    return x * (radius / spacetime.vector_norm(x))[..., None]


def run_rotations(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("rotations")
    with rep.check("identity_is_proper",
                   "orthonormality conditions on the rows of a rotation candidate") as c:
        c.require(spacetime.classify_rotation(np.eye(3)) == "proper")

    with rep.check("reflection_is_improper", "determinant -1 component of the orthogonal group") as c:
        c.require(spacetime.classify_rotation(np.diag([1.0, 1.0, -1.0])) == "improper")

    with rep.check("product_of_rotations_is_rotation",
                   "closure of the rotation group under matrix product", tol=tol, samples=samples) as c:
        R = _rotations(rng, c.name, (samples, 2))
        prod = R[:, 0] @ R[:, 1]
        c.require((spacetime.classify_rotation(prod) == "proper").all())
        c.observe(np.abs(prod @ np.swapaxes(prod, -1, -2) - np.eye(3)))

    with rep.check("shear_rejected",
                   "orthonormality conditions on the rows of a rotation candidate") as c:
        sheared = np.eye(3) + np.array([[0.0, 1e-3, 0.0]] + [[0.0] * 3] * 2)
        c.require(spacetime.classify_rotation(sheared) == "not_orthogonal")
    return rep


def _algebra_rows(rep: CheckReport, name: str, make_structure, make_realization,
                  count_ref: str):
    """The four exact rows of a ten-generator Lie algebra: antisymmetry and
    Jacobi identity of the table that make_structure() builds, its
    generator count, and the phase-space realization that
    make_realization() builds.  Each row calls the builder inside its own
    block, so a builder that raises fails those rows, not the run; the
    table is built once.  Returns the cached builder."""
    structure = functools.cache(make_structure)
    with rep.check(f"{name}_antisymmetry", "bracket antisymmetry of the structure-constant table",
                   tol=0.0) as c:
        jacobi = c.sibling(f"{name}_jacobi", "Jacobi identity of the structure-constant table",
                           tol=0.0)
        bad_pairs, bad_triples = liealg.check_structure(structure())
        c.observe(len(bad_pairs))
        c.detail = f"violations at {bad_pairs[:3]}" if bad_pairs else "exact"
        jacobi.observe(len(bad_triples))
        jacobi.detail = f"violating triples {bad_triples[:5]}" if bad_triples else "exact"

    with rep.check(f"{name}_generator_count", count_ref, tol=0.0) as c:
        c.observe(abs(structure().dimension() - 10))

    with rep.check(f"{name}_realization", "phase-space realization reproduces the bracket table",
                   tol=0.0) as c:
        mismatches = liealg.verify_realization(structure(), make_realization())
        c.observe(len(mismatches))
        c.detail = ("; ".join(f"{{{a},{b}}} off by {liealg.format_quadratic(d)}"
                              for a, b, d in mismatches[:4])
                    or "all brackets reproduced exactly")
    return structure


def run_galilei(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("galilei")
    structure = _algebra_rows(rep, "galilei", liealg.galilei_structure, liealg.galilei_realization,
                              "the ten one-parameter subgroups of the Galilei group")

    with rep.check("compose_matches_sequential_action",
                   "Galilei multiplication law against pointwise application",
                   tol=tol, samples=samples) as c:
        # per pair: two elements and 20 events (t, x, y, z)
        g1, g2 = _galilei_elements(rng, c.name, samples, 2)
        g21 = spacetime.galilei_compose(g2, g1)
        events = field_rng(rng, c.name, "events").normal(size=(samples, 20, 4))
        once = spacetime.apply_events(g21, events)
        twice = spacetime.apply_events(g2, spacetime.apply_events(g1, events))
        c.observe(np.abs(once - twice))

    half = samples // 2 + 1
    with rep.check("composition_associative", "group axioms for Galilei transformations",
                   tol=1e-10, samples=half) as c:
        g1, g2, g3 = _galilei_elements(rng, c.name, half, 3)
        lhs = spacetime.galilei_compose(spacetime.galilei_compose(g3, g2), g1)
        rhs = spacetime.galilei_compose(g3, spacetime.galilei_compose(g2, g1))
        c.observe(np.abs(lhs.R - rhs.R), np.abs(lhs.v - rhs.v),
                  np.abs(lhs.xi - rhs.xi), np.abs(lhs.tau - rhs.tau))

    with rep.check("inverse_roundtrip", "group axioms for Galilei transformations",
                   tol=1e-12, samples=half) as c:
        (g,) = _galilei_elements(rng, c.name, half, 1)
        gid = spacetime.galilei_compose(g, spacetime.galilei_inverse(g))
        c.observe(np.abs(gid.R - np.eye(3)), np.abs(gid.v), np.abs(gid.xi), np.abs(gid.tau))

    with rep.check("simultaneous_distances_preserved",
                   "Galilei transformations preserve time differences and simultaneous distances",
                   tol=1e-12, samples=half) as c:
        # per element: two events at t = 0.7
        (g,) = _galilei_elements(rng, c.name, half, 1)
        r = field_rng(rng, c.name, "positions").normal(size=(half, 2, 3))
        events = np.concatenate((np.full((half, 2, 1), 0.7), r), axis=-1)
        q = spacetime.apply_events(g, events)
        c.observe(np.abs((q[:, 0, 0] - q[:, 1, 0]) - (events[:, 0, 0] - events[:, 1, 0])),
                  np.abs(spacetime.vector_norm(q[:, 0, 1:] - q[:, 1, 1:])
                         - spacetime.vector_norm(events[:, 0, 1:] - events[:, 1, 1:])))

    with rep.check("mutation_control_bad_structure_constant",
                   "a flipped rotation bracket must break the Jacobi identity", detect=0.0) as c:
        table = structure()
        bad = table.constants.copy()
        m1, m2, m3 = map(table.basis_labels.index, ("M1", "M2", "M3"))
        bad[m2, m3, m1], bad[m3, m2, m1] = -1, 1
        mutated = liealg.LieStructure("galilei_mutated", table.basis_labels, bad)
        _, bad_triples = liealg.check_structure(mutated)
        c.observe(bool(bad_triples))
        c.detail = (f"violating triples {bad_triples[:5]}" if bad_triples
                    else "mutation went undetected")
    return rep


def run_poincare(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("poincare")
    _algebra_rows(rep, "poincare", liealg.poincare_structure, liealg.poincare_realization,
                  "the Poincare group is a Lie group with ten parameters")

    with rep.check("boost_action_reference_value",
                   "boost of the origin worldline at velocity 0.6", tol=1e-12) as c:
        T = spacetime.PoincareElement(np.zeros(3), 0.0, np.array([0.6, 0.0, 0.0]), np.eye(3))
        out = spacetime.apply_events(T, [[1.0, 0, 0, 0]])[0]
        c.observe(abs(out[0] - 1.25), abs(out[1] + 0.75), abs(out[2]), abs(out[3]))

    with rep.check("colinear_velocity_addition",
                   "relativistic addition of parallel boost velocities", tol=1e-12) as c:
        T1 = spacetime.PoincareElement(np.zeros(3), 0.0, np.array([0.5, 0.0, 0.0]), np.eye(3))
        T12 = spacetime.poincare_compose(T1, T1)
        c.observe(abs(T12.v[0] - 0.8) + abs(T12.v[1]) + abs(T12.v[2]))

    with rep.check("compose_matches_sequential_action",
                   "composition through the affine embedding against pointwise application",
                   tol=tol, samples=samples) as c:
        interval = c.sibling("interval_preserved",
                             "invariance of the Minkowski interval between event pairs",
                             tol=tol, samples=samples)
        # per pair: two elements and 20 event pairs, columns (pt.t, pt.r, qt.t, qt.r)
        T1, T2 = _poincare_elements(rng, c.name, samples, 2)
        T21 = spacetime.poincare_compose(T2, T1)
        pairs = field_rng(rng, c.name, "event pairs").normal(size=(samples, 20, 8))
        pt, qt = pairs[..., :4], pairs[..., 4:]
        moved = spacetime.apply_events(T1, pairs.reshape(samples, -1, 4))
        moved = moved.reshape(pairs.shape)
        a1, a2 = moved[..., :4], moved[..., 4:]
        once = spacetime.apply_events(T21, pt)
        twice = spacetime.apply_events(T2, a1)
        c.observe(np.abs(once - twice))
        interval.observe(np.abs(spacetime.minkowski_interval(a1 - a2)
                                - spacetime.minkowski_interval(pt - qt)))

    n_assoc = max(10, samples // 10)
    with rep.check("composition_associative", "group axioms for Poincare transformations",
                   tol=1e-10, samples=n_assoc) as c:
        T1, T2, T3 = _poincare_elements(rng, c.name, n_assoc, 3)
        lhs = spacetime.poincare_compose(spacetime.poincare_compose(T3, T2), T1)
        rhs = spacetime.poincare_compose(T3, spacetime.poincare_compose(T2, T1))
        c.observe(np.abs(lhs.R - rhs.R), np.abs(lhs.v - rhs.v),
                  np.abs(lhs.a - rhs.a), np.abs(lhs.b - rhs.b))

    with rep.check("discrete_inversions_involutive",
                   "space, time, and combined inversions square to the identity and compose",
                   tol=0.0) as c:
        pt = np.array([[1.0, 1.0, 2.0, 3.0]])
        pp = spacetime.discrete_apply("P", spacetime.discrete_apply("P", pt))
        tt = spacetime.discrete_apply("T", spacetime.discrete_apply("T", pt))
        ss = spacetime.discrete_apply("PT", spacetime.discrete_apply("PT", pt))
        chain = spacetime.discrete_apply("T", spacetime.discrete_apply("P", pt))
        direct = spacetime.discrete_apply("PT", pt)
        for got, want in ((pp, pt), (tt, pt), (ss, pt), (chain, direct)):
            c.observe(np.abs(got - want))
    return rep


def run_conformal(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("conformal")

    with rep.check("dilation_pullback_factor", "a dilation by k rescales the metric by k^-2",
                   tol=1e-8, samples=5) as c:
        x = field_rng(rng, c.name, "x").normal(size=(5, 4))
        omega, res = spacetime.conformal_pullback_check(spacetime.Dilation(2.0), x.T)
        c.observe(np.abs(omega * omega - 0.25), res)

    with rep.check("dilation_identity", "unit dilation leaves the metric alone", tol=1e-8) as c:
        omega, res = spacetime.conformal_pullback_check(spacetime.Dilation(1.0),
                                                        field_rng(rng, c.name, "x").normal(size=(4, 1)))
        c.observe(np.abs(omega - 1.0), res)

    with rep.check("inversion_pullback_factor",
                   "inversion induces a conformal factor of inverse interval magnitude",
                   tol=1e-6, samples=3) as c:
        x = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0], [0.5, 2.0, -1.0, 0.3]])
        omega, res = spacetime.conformal_pullback_check(spacetime.Inversion(), x.T)
        target = 1.0 / np.abs(spacetime.minkowski_interval(x))
        c.observe(np.abs(np.abs(omega) - target), res)

    with rep.check("flatness_constant_rescaling", "constant rescalings of flat space stay flat",
                   tol=1e-4) as c:
        c.observe(spacetime.conformal_flatness_check("constant", [0.0, 2.0, 0.0, 0.0]))

    with rep.check("flatness_inverse_interval_rescaling",
                   "the inverse-interval rescaling of flat space has vanishing curvature",
                   tol=1e-4) as c:
        c.observe(spacetime.conformal_flatness_check("inverse_interval", [0.0, 2.0, 0.0, 0.0]))

    with rep.check("mutation_control_nonflat_rescaling",
                   "a generic exponential rescaling must show visible curvature", detect=1e-2) as c:
        c.observe(spacetime.conformal_flatness_check("exp_x1", [0.0, 2.0, 0.0, 0.0]))

    with rep.check("wave_operator_dilation_scaling",
                   "the wave operator picks up k^-2 under a dilation", tol=1e-6, samples=9) as c:
        fields = [lambda y: y[1] ** 2, lambda y: y[0] ** 2 - 2.0 * y[2] ** 2,
                  lambda y: y[0] * y[1] + y[3] ** 2]
        points = field_rng(rng, c.name, "x").normal(size=(3, 3, 4)) * 0.5
        for f, at in zip(fields, points):
            for kdil, x in zip((0.5, 2.0, 3.0), at):
                c.observe(spacetime.dalembert_dilation_check(kdil, f, x[:, None]))

    with rep.check("massless_field_stays_solution",
                   "conformal invariance singles out massless wave equations", tol=1e-6) as c:
        wave = lambda y: np.sin(y[0] - y[1])
        x = np.array([[0.3], [0.7], [0.0], [0.0]])
        c.observe(abs(spacetime.dalembert(lambda y: wave(2.0 * y), x)))
        phi2 = lambda y: wave(2.0 * y)
        massive_lhs = spacetime.dalembert(phi2, x) + phi2(x)
        massive_rhs = 4.0 * (spacetime.dalembert(wave, 2.0 * x) + wave(2.0 * x))
        massive_gap = abs(massive_lhs - massive_rhs)[0]
        c.require(massive_gap > 1e-3)
        c.detail = f"massive scaling defect {massive_gap:.3e} stays visible"
    return rep


def run_laplace(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("laplace")

    per_dim = max(5, samples // 10)
    with rep.check("fundamental_solution_harmonic",
                   "the characteristic point singularity solves the Laplace equation off-source",
                   tol=1e-5, samples=3 * per_dim) as c:
        for n in (2, 3, 4):
            x = _shell_points(rng, c.name, (per_dim,), n, 0.5, 3.0)
            c.observe(np.abs(fd_laplacian(laplace.fundamental_solution(n, np.zeros(n)), x.T)))

    with rep.check("unit_flux_normalization",
                   "the fundamental solution carries unit flux through every sphere",
                   tol=1e-8, samples=6) as c:
        for n in (2, 3, 4):
            for radius in (1.0, 5.0):
                c.observe(abs(laplace.flux_through_sphere(n, radius) - 1.0))

    per_field = max(5, samples // 20)
    with rep.check("kelvin_transform_preserves_harmonicity",
                   "unit-sphere inversion with the r^(2-n) weight maps harmonic to harmonic",
                   tol=1e-5, samples=3 * per_field) as c:
        x = _shell_points(rng, c.name, (per_field, 3), 3, 1.2, 3.0)
        for j, u in enumerate((lambda y: 1.0, lambda y: y[0], lambda y: y[0] * y[1])):
            c.observe(np.abs(fd_laplacian(laplace.kelvin_invert(u, 3), x[:, j].T)))

    with rep.check("kelvin_transform_involutive", "applying the inversion twice returns the field",
                   tol=1e-10, samples=10) as c:
        u = lambda y: y[0] + 0.3 * y[1] * y[2]
        w = laplace.kelvin_invert(laplace.kelvin_invert(u, 3), 3)
        x = _shell_points(rng, c.name, (10,), 3, 0.4, 2.5).T
        c.observe(np.abs(w(x) - u(x)))

    with rep.check("exterior_family_regularity",
                   "only the pure 1/r member of the exterior family is regular at infinity",
                   tol=1e-12, detail="boundary value 1 on the unit sphere for every parameter") as c:
        c.observe(*(abs(laplace.exterior_family(a, 1.0) - 1.0)
                    for a in (-1.0, 0.0, 0.5, 1.0, 2.0)))
        c.require(laplace.exterior_family_regular_at_origin(1.0)
                  and not laplace.exterior_family_regular_at_origin(0.5)
                  and not laplace.exterior_family_regular_at_origin(0.0))

    with rep.check("integral_representation_proportionality",
                   "the circle integral reproduces solid harmonics up to a fixed constant",
                   tol=1e-8, samples=32) as c:
        for (n, h) in ((1, 0), (2, 0), (2, 1), (3, 2)):
            # points where the reference harmonic is not near a node
            stream = field_rng(rng, c.name, f"points n={n} h={h}")
            pts = accepted_rows(lambda m: 1.5 * stream.normal(size=(m, 3)),
                                lambda x: np.abs(laplace.solid_harmonic(n, h, x.T)) > 1e-2, 8)
            c.observe(laplace.calibrate_proportionality(n, h, pts)[1])

    with rep.check("integral_representation_harmonic",
                   "real and imaginary parts of the superposition integral are harmonic",
                   tol=1e-5, samples=12) as c:
        x = _shell_points(rng, c.name, (3, 2, 2), 3, 0.5, 2.0)
        for i, (n, h) in enumerate(((2, 1), (3, 2))):
            for j, part in enumerate((lambda z: z.real, lambda z: z.imag)):
                f = lambda y, n=n, h=h, part=part: part(laplace.integral_rep(n, h, y))
                c.observe(np.abs(fd_laplacian(f, x[:, i, j].T, FDStencil(step=1e-2, order=4))))

    with rep.check("homogeneity_degree_n",
                   "the superposition integral is homogeneous of the polynomial degree",
                   tol=1e-8, samples=2) as c:
        azimuthal = c.sibling("azimuthal_equivariance",
                              "rotating the azimuth multiplies the integral by a phase",
                              tol=1e-8, samples=2)
        for (n, h), x in zip(((2, 1), (3, 2)), field_rng(rng, c.name, "x").normal(size=(2, 3))):
            lam, delta = 1.7, 0.9
            cos_d, sin_d = math.cos(delta), math.sin(delta)
            xr = np.array([cos_d * x[0] - sin_d * x[1], sin_d * x[0] + cos_d * x[1], x[2]])
            base, scaled, rotated = laplace.integral_rep(n, h, np.stack((x, lam * x, xr), 1)).tolist()
            c.observe(abs(scaled - lam ** n * base) / max(1.0, abs(base)))
            azimuthal.observe(abs(rotated - np.exp(1j * h * delta) * base) / max(1.0, abs(base)))

    with rep.check("polar_cartesian_agreement",
                   "the polar and spherical Laplacian formulas match the Cartesian operator",
                   tol=1e-4, samples=2) as c:
        f2 = lambda xv: np.sin(xv[0]) * np.exp(0.4 * xv[1]) + xv[0] * xv[0] * xv[1]
        u2 = lambda r, phi: f2(np.array([r * np.cos(phi), r * np.sin(phi)]))
        polar = laplace.polar_laplacian("polar2d", u2, (1.1, 0.7))
        cart = fd_laplacian(f2, np.array([[1.1 * math.cos(0.7)], [1.1 * math.sin(0.7)]]))
        c.observe(abs(polar - cart))
        f3 = lambda xv: xv[0] * xv[1] + 0.2 * xv[2] ** 3
        u3 = lambda r, th, phi: f3(np.array([r * np.sin(th) * np.cos(phi),
                                             r * np.sin(th) * np.sin(phi),
                                             r * np.cos(th)]))
        sph = laplace.polar_laplacian("spherical3d", u3, (1.4, 1.1, 0.5))
        x3 = np.array([[1.4 * math.sin(1.1) * math.cos(0.5)],
                       [1.4 * math.sin(1.1) * math.sin(0.5)], [1.4 * math.cos(1.1)]])
        c.observe(abs(sph - fd_laplacian(f3, x3)))

    with rep.check("symbol_rotation_invariant",
                   "the symbol is the squared frequency length, a rotation invariant",
                   tol=1e-12, samples=50) as c:
        R = _rotations(rng, c.name, (50,))
        kvec = field_rng(rng, c.name, "k").normal(size=(50, 3))
        c.observe(np.abs(laplace.symbol((R @ kvec[..., None])[..., 0]) - laplace.symbol(kvec)))
    return rep


def run_fullerene(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("fullerene")
    g = fullerene.build_truncated_icosahedron()

    with rep.check("face_census", "sixty vertices and thirty-two faces, twelve pentagonal",
                   tol=0.0) as c:
        census = fullerene.face_census(g)
        expected = {"V": 60, "E": 90, "F": 32, "pentagons": 12, "hexagons": 20}
        c.observe(sum(abs(census[k] - expected[k]) for k in expected))
        c.require(census == expected)
        c.detail = str(census)

    with rep.check("euler_characteristic", "V - E + F = 2 for a sphere-like polyhedron", tol=0.0) as c:
        c.observe(abs(fullerene.euler_check(g) - 2))

    with rep.check("three_regular", "every carbon site carries three bonds") as c:
        c.require(set(g.degree_sequence()) == {3})

    with rep.check("isolated_pentagons", "every pentagon is completely surrounded by hexagons") as c:
        ok, witness = fullerene.isolated_pentagon_check(g)
        c.require(ok)
        c.detail = "" if ok else f"adjacent pentagon pair {witness}"

    with rep.check("kekule_assignment", "valences satisfied by two single bonds and one double bond",
                   tol=0.0, detail="30 double bonds, all on hexagon-hexagon edges") as c:
        bonds = fullerene.kekule(g)
        doubles = {e for e, kind in bonds.items() if kind == "double"}
        hh = set(fullerene.hex_hex_edges(g))
        c.observe(abs(len(doubles) - 30))
        # every site carries exactly one double bond
        c.require(doubles == hh and sorted(v for e in doubles for v in e) == list(range(60)))

    with rep.check("edge_partition",
                   "bond types split sixty pentagon-hexagon from thirty hexagon-hexagon edges",
                   tol=0.0) as c:
        sizes = [len(f) for f in g.faces]
        ph = sum(1 for fs in g.edge_faces.values() if {sizes[fs[0]], sizes[fs[1]]} == {5, 6})
        c.observe(abs(ph - 60) + abs(len(hh) - 30))

    with rep.check("vertex_transitive_embedding", "all sites equidistant from the cage center",
                   tol=1e-9, samples=60) as c:
        sites = np.array(g.vertices)
        c.observe(np.ptp(spacetime.vector_norm(sites - sites.mean(axis=0))))

    with rep.check("automorphism_order",
                   "the truncated icosahedron realizes full icosahedral symmetry", tol=0.0) as c:
        order = fullerene.automorphism_order(g)
        c.observe(abs(order - 120))
        c.detail = f"combinatorial group order {order}"

    with rep.check("mutation_control_merged_pentagons",
                   "pentagon pairs sharing an edge must be reported unstable",
                   detail="duplicated pentagon creates a pentagon-pentagon edge") as c:
        ok_dodeca, _ = fullerene.isolated_pentagon_check(fullerene.dodecahedron_graph())
        mutated_faces = [list(f) for f in g.faces]
        pent = [i for i, f in enumerate(mutated_faces) if len(f) == 5]
        mutated_faces[pent[0]] = list(mutated_faces[pent[1]])
        mutated = fullerene.PolyhedralGraph(vertices=g.vertices, edges=g.edges,
                                            faces=mutated_faces)
        ok_mut, _ = fullerene.isolated_pentagon_check(mutated)
        c.require(not (ok_mut or ok_dodeca))

    with rep.check("mutation_control_deleted_face", "removing a face must break the Euler count") as c:
        dropped = fullerene.PolyhedralGraph(vertices=g.vertices, edges=g.edges,
                                            faces=g.faces[:-1])
        c.require(fullerene.euler_check(dropped) != 2)
        c.detail = f"V-E+F = {fullerene.euler_check(dropped)}"
    return rep


def run_hopf(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("hopf")

    with rep.check("deformed_su2_relations", "ladder commutators of the q-deformed enveloping algebra",
                   tol=1e-11, samples=9) as c:
        coproduct = c.sibling("coproduct_is_homomorphism",
                              "the coproduct images satisfy the same relations", tol=1e-10, samples=9)
        coassociativity = c.sibling("coassociativity",
                                    "both iterated coproducts agree on the triple tensor space",
                                    tol=1e-10, samples=9)
        for j in (0.5, 1.0, 1.5):
            for q in (0.7, 1.3, 2.0):
                r = hopf.uq_su2_rep(j, q)
                c.observe(hopf.relations_residual(r))
                square = hopf.coproduct_rep(r)
                coproduct.observe(hopf.relations_residual(square))
                coassociativity.observe(hopf.coassociativity_residual(r, square))

    with rep.check("counit_antipode_axioms",
                   "counit and antipode composites collapse to the unit times the counit",
                   tol=1e-11, samples=6) as c:
        for q in (0.7, 1.3, 2.0):
            for j in (0.5, 1.0):
                c.observe(*hopf.counit_antipode_residuals(hopf.uq_su2_rep(j, q)).values())
        cp, cm = hopf.antipode_convention_solve(1.3)
        c.require(abs(cp + 1.3) < 1e-12 and abs(cm + 1.0 / 1.3) < 1e-12)
        c.detail = f"antipode powers solved on the 2x2 block: ({cp:.6g}, {cm:.6g})"

    with rep.check("coproduct_classical_limit",
                   "the deformed coproduct returns to the additive one as q approaches 1",
                   tol=0.2, samples=4) as c:
        qs = [1 + 10.0 ** (-e) for e in (2, 3, 4, 5)]
        classical = hopf.uq_su2_rep(0.5, 1 + 1e-12)
        one = np.eye(2, dtype=complex)
        additive = kron(classical.Xp, one) + kron(one, classical.Xp)
        errs = [sup_norm(hopf.coproduct_rep(hopf.uq_su2_rep(0.5, q)).Xp - additive) for q in qs]
        slope = float(np.polyfit(np.log([q - 1 for q in qs]), np.log(errs), 1)[0])
        c.observe(abs(slope - 1.0))
        c.detail = f"log-log slope {slope:.4f}"

    with rep.check("position_momentum_deformed_commutator",
                   "the grid pair reproduces the exponentially deformed commutator", tol=1e-5) as c:
        coproduct = c.sibling("deformed_coproduct_homomorphism",
                              "the twisted momentum coproduct preserves the deformed commutator",
                              tol=1e-5)
        ops = hopf.planck_scale_ops(256, 5.0, 1.0, 2.0)
        c.observe(hopf.planck_commutator_residual(ops))
        coproduct.observe(hopf.planck_coproduct_residual(ops))
    return rep


def _sweep(rng: np.random.Generator, row: str, field: str, k: float, count: int) -> np.ndarray:
    """The u and v arrays of `count` sweep pairs at modulus k, drawn from the
    keyed stream of (row, field)."""
    return sklyanin.sweep_samples(field_rng(rng, row, field), k, count).T


def run_sklyanin(rng: np.random.Generator, tol: float, samples: int) -> CheckReport:
    rep = CheckReport("sklyanin")
    p_cl = sklyanin.ClassicalRParams(rho=1.0, k=0.5)
    p_q = sklyanin.QuantumRParams(eta=0.3, k=0.5)

    with rep.check("classical_quadric_constancy",
                   "squared classical weights differ by constants on the quadric",
                   tol=1e-10, samples=20) as c:
        u, _ = _sweep(rng, c.name, "pairs", p_cl.k, 20)
        w = sklyanin.classical_w(u, p_cl)
        for (a, b), val in sklyanin.classical_quadric(p_cl).items():
            c.observe(np.abs(w[a - 1] ** 2 - w[b - 1] ** 2 - val))

    with rep.check("quantum_curve_constancy",
                   "the quantum weights lie on a spectral-parameter-independent curve",
                   tol=1e-9, samples=20) as c:
        ref = sklyanin.quantum_curve(p_q, u_ref=0.7)
        cur = sklyanin.quantum_curve(p_q, u_ref=_sweep(rng, c.name, "pairs", p_q.k, 20)[0])
        c.observe(*(np.abs(cur[key] - ref[key]) for key in ref))

    with rep.check("classical_yang_baxter",
                   "the elliptic classical r-matrix solves its Yang-Baxter equation",
                   tol=tol, samples=samples) as c:
        c.observe(sklyanin.cybe_residual(*_sweep(rng, c.name, "pairs", p_cl.k, samples), p_cl))

    with rep.check("quantum_yang_baxter",
                   "the elliptic quantum R-matrix solves its Yang-Baxter equation",
                   tol=tol, samples=samples + 20) as c:
        c.observe(sklyanin.qybe_residual(*_sweep(rng, c.name, "pairs", p_q.k, samples), p_q))
        p_q0 = sklyanin.QuantumRParams(eta=0.3, k=0.0)
        c.observe(sklyanin.qybe_residual(*_sweep(rng, c.name, "pairs k=0", 0.0, 20), p_q0))

    per_point = max(5, samples // 20)
    r2 = sklyanin.rep2()
    with rep.check("exchange_relation_pauli",
                   "the Pauli generating matrix intertwines with the quantum R-matrix",
                   tol=tol, samples=6 * per_point) as c:
        for eta in (0.2, 0.3):
            for k in (0.0, 0.3, 0.5):
                pq = sklyanin.QuantumRParams(eta=eta, k=k)
                uv = _sweep(rng, c.name, f"pairs eta={eta} k={k}", k, per_point)
                c.observe(sklyanin.rll_residual(*uv, r2, pq))

    with rep.check("quadratic_relations_pauli",
                   "the Pauli representation satisfies the quadratic algebra exactly", tol=0.0) as c:
        c.observe(sklyanin.sklyanin_residual(r2))

    with rep.check("quadratic_relations_threedim",
                   "the explicit three-dimensional representation satisfies the quadratic algebra",
                   tol=1e-12, samples=3) as c:
        self_adjoint = c.sibling("threedim_self_adjoint",
                                 "the three-dimensional generators are self-adjoint for positive couplings",
                                 tol=1e-12, samples=3)
        for couplings in field_rng(rng, c.name, "couplings").uniform(0.5, 3.0, (3, 3)):
            r3 = sklyanin.rep3(*couplings)
            c.observe(sklyanin.sklyanin_residual(r3))
            self_adjoint.observe(*(sup_norm(S - S.conj().T) for S in r3.S))

    with rep.check("index_convention_discrimination",
                   "the free-sum reading of the quadratic relations collapses by antisymmetry",
                   detect=1e-3,
                   detail="cyclic triples satisfy the relations; the free double sum does not") as c:
        c.observe(sklyanin.sklyanin_residual(sklyanin.rep3(1.0, 2.0, 3.0), convention="summed"))

    with rep.check("volume_contraction_poisson_tensor",
                   "quadratic brackets from volume contraction satisfy the Jacobi identity exactly",
                   tol=0.0, samples=20,
                   detail="special coefficients reproduce the quadratic bracket term by term") as c:
        stream = field_rng(rng, c.name, "a b")
        pairs = accepted_rows(lambda m: stream.integers(-5, 6, (m, 2, 4)),
                              lambda ab: (ab[:, 0] != ab[:, 1]).any(axis=1), 20)
        defect = sklyanin.poisson_jacobi_defect(sklyanin.poisson_tensor(pairs[:, 0], pairs[:, 1]))
        c.observe(defect.any(axis=(-2, -1)).astype(float))
        special = sklyanin.poisson_tensor((1, 2, 5, 9), (0, 1, 1, 1))
        # cyclic (j,k,l): {x_k,x_l} = x_0 x_j and {x_k,x_0} = (a_j - a_l) x_j x_l
        expect = np.zeros((4, 4, 4, 4), dtype=np.int64)
        for k, l, i, j, coeff in ((1, 2, 0, 3, 1), (2, 3, 0, 1, 1), (3, 1, 0, 2, 1),
                                  (1, 0, 2, 3, 9 - 5), (2, 0, 1, 3, 2 - 9), (3, 0, 1, 2, 5 - 2)):
            expect[k, l, i, j], expect[l, k, i, j] = coeff, -coeff
        c.require(np.array_equal(special, expect))

    with rep.check("classical_bracket_exchange_identity",
                   "the quadratic Poisson brackets reproduce the classical exchange relation",
                   tol=1e-8, samples=6) as c:
        u, v = sklyanin.sweep_samples(field_rng(rng, c.name, "pairs"), p_cl.k, 5).T
        c.observe(sklyanin.classical_sklyanin_bracket_residual(p_cl, u, v),
                  sklyanin.classical_sklyanin_bracket_residual(
                      sklyanin.ClassicalRParams(rho=1.0, k=0.0), 0.9, 0.4))

    with rep.check("classical_limit_orders",
                   "quantum weights, R-matrix, and curve constants degenerate at their stated orders",
                   samples=5) as c:
        probe = sklyanin.classical_limit_probe(0.8, p_cl,
                                               [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)])
        slopes = (probe["e1_slope"], probe["e2_slope"], probe["e3_slope"] / 2.0)
        c.require(all(s >= 1.9 for s in slopes))
        c.observe(np.min(slopes))
        c.detail = (f"slopes e1={probe['e1_slope']:.3f}, e2={probe['e2_slope']:.3f}, "
                    f"e3={probe['e3_slope']:.3f}")

    with rep.check("mutation_control_perturbed_weight",
                   "scaling one classical weight must break the Yang-Baxter identity",
                   detect=1e-3) as c:
        u, v = 1.1, 0.4
        w = np.stack(sklyanin.classical_w(np.array([u - v, u, v]), p_cl), axis=-1)[:, None]
        w[0, 0, 0] *= 1.01
        c.observe(sklyanin._table_sup(sklyanin._CYBE_TABLE, w))

    r3 = sklyanin.rep3(1.0, 2.0, 3.0)
    with rep.check("mutation_control_flipped_generator",
                   "negating one generator must break the quadratic relations", detect=1e-3) as c:
        flipped = sklyanin.SklyaninRep(dim=3, S=(r3.S[0], r3.S[1], r3.S[2], -r3.S[3]), J=r3.J)
        c.observe(sklyanin.sklyanin_residual(flipped))

    with rep.check("exchange_relation_threedim_exploratory",
                   "whether the three-dimensional representation intertwines at this "
                   "normalization is left open", skipped=True,
                   detail="reported informatively; only the quadratic relations are asserted") as c:
        c.observe(np.min(sklyanin.rll_residual(*_sweep(rng, c.name, "pairs", p_q.k, 5), r3, p_q)))
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
    return [SUITES[name](suite_rng(seed, name), tol, samples) for name in names]
