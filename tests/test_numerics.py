import math
import re

import numpy as np
import pytest

from symmetria.numerics import (
    CENTRAL_STENCILS,
    LAPLACIAN_STENCIL,
    FDStencil,
    QuadratureEvaluationError,
    accepted_rows,
    as_matrix,
    fd_jacobian,
    fd_laplacian,
    fd_partials,
    integrate_periodic,
    kron,
    sup_norm,
)
from oracles import fd_partial_by_nodes

# value of int_{-pi}^{pi} (1 + i cos t)^3 e^{-it} dt from a dense trapezoid
# oracle at 1e5 nodes (tests/oracles.trapezoid_integral); equals 9i pi/4
OSCILLATORY_INTEGRAL = 7.068583470577033j


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_as_matrix_rejects_nonfinite(bad, part):
    # one part of one entry is not finite, the other part is
    m = np.array([[1.0, 0.5 + 0.5j], [0.0, 1.0]])
    getattr(m, part)[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        as_matrix(m)
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


def test_kron_equals_numpy_kron_bitwise():
    rng = np.random.default_rng(90)
    # every side pair from 1 to 9, and the (d^2, d) legs of the coassociativity
    # check for spins 1/2 to 2
    shapes = [(m, n) for m in range(1, 10) for n in range(1, 10)]
    shapes += [(d * d, d) for d in range(2, 6)]
    for m, n in shapes:
        for complex_entries in (False, True):
            a, b = rng.normal(size=(2, m, m)), rng.normal(size=(2, n, n))
            if complex_entries:
                a, b = a[0] + 1j * a[1], b[0] + 1j * b[1]
            else:
                a, b = a[0], b[0]
            assert np.array_equal(kron(a, b), np.kron(a, b)), (m, n)
            assert np.array_equal(kron(a, b[:1]), np.kron(a, b[:1])), (m, n)


def test_quadrature_rule_validation():
    # composite Simpson needs an odd node count of at least 3
    for nodes in (1, 2, 10):
        with pytest.raises(ValueError, match="nodes|node count"):
            integrate_periodic(np.cos, 0.0, 1.0, nodes)
    assert abs(integrate_periodic(np.ones_like, 0.0, 1.0, 3) - 1.0) < 1e-15


def test_integrate_cos_squared():
    val = integrate_periodic(lambda t: np.cos(t) ** 2, -math.pi, math.pi, 65)
    assert abs(val - math.pi) < 1e-10


def test_integrate_full_period_oscillation():
    val = integrate_periodic(lambda t: np.cos(t) + 1j * np.sin(t), -math.pi, math.pi)
    assert abs(val) < 1e-12


def test_integrate_against_trapezoid_oracle():
    f = lambda t: (1 + 1j * np.cos(t)) ** 3 * (np.cos(-t) + 1j * np.sin(-t))
    val = integrate_periodic(f, -math.pi, math.pi)
    assert abs(val - OSCILLATORY_INTEGRAL) < 1e-9


def test_integrate_convergence_order():
    f = lambda t: np.exp(np.sin(3 * t))
    ref = integrate_periodic(f, -math.pi, math.pi, 2049)
    e1 = abs(integrate_periodic(f, -math.pi, math.pi, 17) - ref)
    e2 = abs(integrate_periodic(f, -math.pi, math.pi, 33) - ref)
    assert e2 < e1 / 8.0


def test_integrate_nonfinite_propagates_node():
    def f(t):
        with np.errstate(divide="ignore"):
            return np.where(t == 0.0, math.inf, 1.0 / t)

    with pytest.raises(QuadratureEvaluationError) as err:
        integrate_periodic(f, -1.0, 1.0, 5)
    assert err.value.node == 0.0


def test_integrate_names_the_first_of_several_nonfinite_nodes():
    # nodes -1, -0.5, 0, 0.5, 1: the value is NaN at 0 and infinite at 0.5 and 1
    def f(t):
        return np.where(t > 0.25, math.inf, np.where(t == 0.0, math.nan, 1.0 + t))

    with pytest.raises(QuadratureEvaluationError) as err:
        integrate_periodic(f, -1.0, 1.0, 5)
    assert err.value.node == 0.0
    assert math.isnan(err.value.value.real)


def test_integrate_a_stack_names_the_point_and_node_of_the_first_nonfinite_value():
    # three integrands on nodes -1, -0.5, 0, 0.5, 1: the second is NaN at 0.5,
    # the third infinite at -1
    def f(t):
        vals = np.stack((1.0 + t, 1.0 + t, 1.0 + t))
        vals[1, 3] = math.nan
        vals[2, 0] = math.inf
        return vals

    with pytest.raises(QuadratureEvaluationError, match="of point 1") as err:
        integrate_periodic(f, -1.0, 1.0, 5)
    assert err.value.node == 0.5 and err.value.point == 1
    assert math.isnan(err.value.value.real)
    finite = integrate_periodic(lambda t: np.stack((1.0 + t, t * t)), -1.0, 1.0, 5)
    assert finite.shape == (2,) and np.allclose(finite, [2.0, 2.0 / 3.0])


def test_integrand_is_called_once_on_the_node_array():
    calls = []

    def f(t):
        calls.append(t)
        return np.ones_like(t)

    val = integrate_periodic(f, 0.0, 2.0, 9)
    assert abs(val - 2.0) < 1e-15
    assert len(calls) == 1 and np.array_equal(calls[0], np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_stencil_rejects_a_non_finite_step(bad):
    with pytest.raises(ValueError, match="step must be finite and positive"):
        FDStencil(step=bad)


@pytest.mark.parametrize("deriv,order,degree", [(1, 2, 2), (1, 4, 4), (2, 2, 3), (2, 4, 5)])
def test_central_stencils_exact_to_their_degree(deriv, order, degree):
    # each table entry differentiates polynomials of degree <= order + deriv - 1
    # exactly; a step of 0.5 keeps the cancellation noise below 1e-12
    assert (deriv, order) in CENTRAL_STENCILS
    rng = np.random.default_rng(7)
    poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
    want = float(poly.deriv(deriv)(0.4))
    stencil = FDStencil(step=0.5, order=order)
    point = [[0.7], [0.4], [-1.2]]
    scalar = fd_partials(lambda q: poly(q[1]) + q[0] * q[2], point, stencil, deriv)[1, 0]
    assert abs(scalar - want) < 1e-12
    vector = fd_partials(lambda q: np.stack([poly(q[1]), -2.0 * poly(q[1]), q[0] * q[2]], -1),
                         point, stencil, deriv)[1, 0]
    assert vector.shape == (3,)
    assert sup_norm(vector - [want, -2.0 * want, 0.0]) < 1e-12
    single = fd_partials(lambda r: poly(r[0]), [[0.4]], stencil, deriv)[0, 0]
    assert abs(single - want) < 1e-12
    # one degree higher the truncation error shows: the order is not better
    # than the table claims
    above = np.polynomial.Polynomial([0.0] * (degree + 1) + [1.0])
    miss = fd_partials(lambda r: above(r[0]), [[0.4]], stencil, deriv)[0, 0]
    assert abs(miss - above.deriv(deriv)(0.4)) > 1e-3


@pytest.mark.parametrize("deriv,order,degree", [(1, 2, 2), (1, 4, 4), (2, 2, 3), (2, 4, 5)])
def test_fd_partials_exact_on_polynomials(deriv, order, degree):
    # every axis of every point from one call; degree <= order + deriv - 1
    rng = np.random.default_rng(17)
    polys = [np.polynomial.Polynomial(rng.normal(size=degree + 1)) for _ in range(3)]
    pts = rng.uniform(-1.0, 1.0, (3, 6))
    calls = []

    def f(y):
        calls.append(y.shape)
        return polys[0](y[0]) + polys[1](y[1]) + polys[2](y[2]) + y[0] * y[1] * y[2]

    got = fd_partials(f, pts, FDStencil(step=0.5, order=order), deriv)
    assert calls == [(3, 3 * len(CENTRAL_STENCILS[deriv, order][0]) * 6)]
    assert got.shape == (3, 6)
    for axis, poly in enumerate(polys):
        want = poly.deriv(deriv)(pts[axis])
        if deriv == 1:  # the triple product's first partial
            want = want + np.prod(np.delete(pts, axis, axis=0), axis=0)
        assert np.abs(got[axis] - want).max() < 1e-11


def test_fd_partials_of_a_tensor_field():
    # values (K, 2, 2) per point come back as (n, M, 2, 2)
    def f(y):
        return np.stack((np.stack((y[0] * y[1], y[1] ** 2), -1),
                         np.stack((np.sin(y[0]), 3.0 * y[0] + y[1]), -1)), -2)

    pts = np.random.default_rng(18).normal(size=(2, 5))
    got = fd_partials(f, pts, FDStencil(step=1e-3, order=4))
    x, y = pts
    want = np.array([[[y, 0 * x], [np.cos(x), 3 + 0 * x]], [[x, 2 * y], [0 * x, 1 + 0 * x]]])
    assert got.shape == (2, 5, 2, 2)
    assert np.abs(got - np.moveaxis(want, -1, 1)).max() < 1e-10


@pytest.mark.parametrize("shape", [(4,), (2, 3, 1)], ids=["1d", "3d"])
def test_fd_partials_names_a_bad_point_shape(shape):
    message = f"points must be an (n, M) array, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fd_partials(lambda y: y[0], np.zeros(shape), LAPLACIAN_STENCIL)
    with pytest.raises(ValueError, match="points must be an"):
        fd_jacobian(lambda y: y, np.zeros(shape))


@pytest.mark.parametrize("deriv,order", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_fd_partials_equals_stacked_fd_partial(deriv, order):
    # the same nodes as one field call per node, summed in the same order:
    # equal bit for bit, a -0.0 coordinate at the centre included
    f = lambda y: np.stack((y[0] * y[1] - y[2] ** 3, np.copysign(1.0, y[2]) * y[0]), -1)
    pts = np.random.default_rng(19).normal(size=(3, 7))
    pts[2, 3] = -0.0
    stencil = FDStencil(step=1e-2, order=order)
    got = fd_partials(f, pts, stencil, deriv)
    want = np.stack([fd_partial_by_nodes(f, pts, axis, stencil, deriv) for axis in range(3)])
    assert np.array_equal(got, want)


def test_every_derivative_is_one_field_call():
    # each evaluator calls its field once, on the whole stencil cloud (one
    # call per node would be 8 for the Jacobian, 20 for the wave operator,
    # and 8 and 12 for the polar and spherical Laplacians)
    from symmetria.laplace import polar_laplacian
    from symmetria.spacetime import dalembert

    def calls(evaluate, field):
        count = []
        evaluate(lambda *args: count.append(1) or field(*args))
        return len(count)

    assert calls(lambda f: fd_jacobian(f, [[0.1], [0.2], [0.3], [0.4]]), lambda x: 2.0 * x) == 1
    assert calls(lambda f: dalembert(f, [[0.1], [0.2], [0.3], [0.4]]), lambda y: y[0] * y[1]) == 1
    assert calls(lambda u: polar_laplacian("polar2d", u, (1.3, 0.4)),
                 lambda r, phi: r * np.cos(phi)) == 1
    assert calls(lambda u: polar_laplacian("spherical3d", u, (1.7, 1.0, 0.3)),
                 lambda r, th, phi: r * np.cos(th)) == 1


def test_fd_laplacian_quadratic_exact():
    u = lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2
    val = fd_laplacian(u, [[0.3], [-0.7], [1.1]], FDStencil(step=0.25, order=4))[0]
    assert abs(val - 6.0) < 1e-12


@pytest.mark.parametrize("order,degree", [(2, 3), (4, 5)])
def test_fd_laplacian_polynomial_exactness(order, degree):
    # exact on polynomials of degree <= order + 1; larger step keeps the
    # cancellation noise below 1e-12
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=degree + 1)
    u = lambda x: sum(c * x[0] ** p for p, c in enumerate(coeffs))
    expected = sum(p * (p - 1) * c * 0.4 ** (p - 2) for p, c in enumerate(coeffs) if p >= 2)
    val = fd_laplacian(u, [[0.4], [0.0]], FDStencil(step=0.5, order=order))[0]
    assert abs(val - expected) < 1e-12


def test_fd_laplacian_inverse_radius():
    u = lambda x: 1.0 / np.sqrt(np.sum(x * x, axis=0))
    val = fd_laplacian(u, [[1.0], [1.0], [1.0]], FDStencil(step=1e-3, order=4))[0]
    assert abs(val) < 1e-6


def test_fd_laplacian_cubic_axis():
    u = lambda x: x[0] ** 3
    val = fd_laplacian(u, [[2.0], [0.0], [0.0]], FDStencil(step=1e-3, order=2))[0]
    assert abs(val - 12.0) < 1e-5


def test_fd_laplacian_on_a_point_array_matches_each_point():
    # products and sums round the same way per point and per array, so the
    # M Laplacians of an (n, M) array are those of the points alone
    u = lambda x: x[0] * x[0] * x[0] * x[1] - 2.0 * x[1] * x[2] * x[2] + x[0] * x[2]
    pts = np.random.default_rng(6).normal(size=(3, 40))
    values = fd_laplacian(u, pts)
    assert values.shape == (40,)
    assert np.array_equal(values, [fd_laplacian(u, pts[:, i:i + 1])[0] for i in range(40)])
    assert np.abs(values - (6.0 * pts[0] * pts[1] - 4.0 * pts[1])).max() < 1e-5


def test_fd_laplacian_on_a_point_array_within_rounding():
    # the (n, M) form of a field whose array arithmetic rounds differently
    # still agrees with the pointwise form to the rounding that the
    # stencil amplifies: 64 ulps of the field over h^2
    u = lambda x: 1.0 / np.sqrt(np.sum(x * x, axis=0))
    pts = np.random.default_rng(7).normal(size=(3, 40)) + 2.0
    bound = 64 * np.finfo(float).eps / LAPLACIAN_STENCIL.step ** 2
    loop = [fd_laplacian(u, pts[:, i:i + 1])[0] for i in range(40)]
    assert np.abs(fd_laplacian(u, pts) - loop).max() <= bound


def test_accepted_rows_replays_the_one_at_a_time_loop():
    keep = lambda rows: rows[:, 0] + rows[:, 1] > 0.8
    for count in (0, 1, 7, 200):
        block, scalar = np.random.default_rng(8), np.random.default_rng(8)
        rows = accepted_rows(lambda m: block.random((m, 2)), keep, count)
        loop = []
        while len(loop) < count:
            row = scalar.random((1, 2))
            if keep(row)[0]:
                loop.append(row[0])
        assert np.array_equal(rows, np.array(loop).reshape(count, 2))
        assert block.random() == scalar.random()


def test_fd_jacobian_identity_and_linear():
    ident = fd_jacobian(lambda x: x, [[0.2, 1.0], [0.4, -2.0], [-0.1, 0.5]])
    assert ident.shape == (2, 3, 3)
    assert sup_norm(ident - np.eye(3)) < 1e-10
    M = np.array([[1.0, 2.0], [3.0, -1.0]])
    jac = fd_jacobian(lambda x: M @ x, [[0.5], [0.7]])
    assert jac.shape == (1, 2, 2)
    assert sup_norm(jac - M) < 1e-9


def test_fd_jacobian_inversion_matches_symbolic_oracle():
    # d/dx [-x / eta(x,x)] at x = (2,0,0,0) is diag(-1/4, 1/4, 1/4, 1/4):
    # differentiate -x_a / s with s = -t^2 + |r|^2 by hand
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def inversion(x):
        s = np.sum(x * (eta @ x), axis=0)
        return -x / s

    jac = fd_jacobian(inversion, [[2.0], [0.0], [0.0], [0.0]])[0]
    assert sup_norm(jac - np.diag([-0.25, 0.25, 0.25, 0.25])) < 1e-7
