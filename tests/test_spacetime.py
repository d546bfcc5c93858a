import math

import numpy as np
import pytest

from oracles import riemann_sup_by_index_loops
from symmetria import spacetime, suites
from symmetria.numerics import CURVATURE_STENCIL, FDStencil
from symmetria.spacetime import (
    DISCRETE,
    RESCALINGS,
    CompositionError,
    Dilation,
    GalileiElement,
    Inversion,
    NullConeError,
    PoincareElement,
    apply_events,
    boost_matrix,
    classify_rotation,
    conformal_flatness_check,
    conformal_pullback_check,
    dalembert,
    dalembert_dilation_check,
    discrete_apply,
    galilei_compose,
    galilei_inverse,
    minkowski_interval,
    poincare_compose,
    rotation_about,
)


def random_galilei(rng):
    return GalileiElement(R=rotation_about(rng.normal(size=3), rng.uniform(0, 6)),
                          v=rng.normal(size=3), xi=rng.normal(size=3),
                          tau=float(rng.normal()))


def random_poincare(rng):
    v = rng.uniform(-1, 1, 3)
    v *= rng.uniform(0.0, 0.9) / max(1.0, float(np.linalg.norm(v)))
    return PoincareElement(a=rng.normal(size=3), b=float(rng.normal()), v=v,
                           R=rotation_about(rng.normal(size=3), rng.uniform(0, 6)))


# --- rotations --------------------------------------------------------------

def test_classify_identity_and_reflection():
    assert classify_rotation(np.eye(3)) == "proper"
    assert classify_rotation(np.diag([1.0, 1.0, -1.0])) == "improper"
    assert classify_rotation(np.eye(3) * 1.001) == "not_orthogonal"


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_classify_rotation_rejects_a_bad_tolerance(tol):
    # a NaN tolerance read eye(3) as not orthogonal, an infinite one a shear as proper
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        classify_rotation(np.eye(3), tol)


def test_rotation_product_is_proper():
    rz = rotation_about([0, 0, 1], 0.3)
    rx = rotation_about([1, 0, 0], 0.5)
    assert classify_rotation(rz @ rx) == "proper"


def test_rotation_products_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        a = rotation_about(rng.normal(size=3), rng.uniform(0, 6))
        b = rotation_about(rng.normal(size=3), rng.uniform(0, 6))
        assert classify_rotation(a @ b) == "proper"


# --- Galilei ----------------------------------------------------------------

def test_galilei_identity_and_time_shift():
    X = np.array([[1.0, 0.3, -0.2, 0.9]])
    assert np.array_equal(apply_events(GalileiElement.identity(), X), X)
    shift = GalileiElement(np.eye(3), np.zeros(3), np.zeros(3), 2.0)
    assert np.array_equal(apply_events(shift, [[1.0, 0, 0, 0]]), [[3.0, 0, 0, 0]])


def test_galilei_hand_example():
    g = GalileiElement(rotation_about([0, 0, 1], math.pi / 2),
                       np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), 1.0)
    out = apply_events(g, [[2.0, 1.0, 0, 0]])[0]
    assert abs(out[0] - 3.0) < 1e-15
    assert np.max(np.abs(out[1:] - np.array([2.0, 2.0, 0.0]))) < 1e-15


def test_galilei_compose_identity_and_boosts():
    rng = np.random.default_rng(42)
    g = random_galilei(rng)
    gi = galilei_compose(GalileiElement.identity(), g)
    assert np.max(np.abs(gi.R - g.R)) == 0.0 and gi.tau == g.tau
    b1 = GalileiElement(np.eye(3), np.array([0.2, 0, 0]), np.zeros(3), 0.0)
    b2 = GalileiElement(np.eye(3), np.array([0.5, 0.1, 0]), np.zeros(3), 0.0)
    assert np.max(np.abs(galilei_compose(b2, b1).v - np.array([0.7, 0.1, 0.0]))) < 1e-15


def test_galilei_compose_matches_action():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(50):
        g1, g2 = random_galilei(rng), random_galilei(rng)
        X = rng.normal(size=(20, 4))
        once = apply_events(galilei_compose(g2, g1), X)
        twice = apply_events(g2, apply_events(g1, X))
        worst = max(worst, float(np.max(np.abs(once - twice))))
    assert worst < 1e-12


def test_galilei_associativity():
    rng = np.random.default_rng(44)
    for _ in range(30):
        g1, g2, g3 = (random_galilei(rng) for _ in range(3))
        lhs = galilei_compose(galilei_compose(g3, g2), g1)
        rhs = galilei_compose(g3, galilei_compose(g2, g1))
        assert np.max(np.abs(lhs.R - rhs.R)) < 1e-12
        assert np.max(np.abs(lhs.v - rhs.v)) < 1e-12
        assert np.max(np.abs(lhs.xi - rhs.xi)) < 1e-12
        assert abs(lhs.tau - rhs.tau) < 1e-12


def test_galilei_inverse():
    rng = np.random.default_rng(45)
    ident = galilei_inverse(GalileiElement.identity())
    assert np.max(np.abs(ident.R - np.eye(3))) == 0.0
    pure = GalileiElement(np.eye(3), np.zeros(3), np.array([1.0, -2.0, 3.0]), 0.0)
    assert np.max(np.abs(galilei_inverse(pure).xi + pure.xi)) == 0.0
    for _ in range(20):
        g = random_galilei(rng)
        gid = galilei_compose(g, galilei_inverse(g))
        assert np.max(np.abs(gid.R - np.eye(3))) < 1e-12
        assert np.max(np.abs(gid.v)) < 1e-12
        assert np.max(np.abs(gid.xi)) < 1e-12
        assert abs(gid.tau) < 1e-12


def test_galilei_preserves_simultaneous_distance():
    rng = np.random.default_rng(46)
    for _ in range(30):
        g = random_galilei(rng)
        X = np.concatenate((np.full((2, 1), 0.4), rng.normal(size=(2, 3))), axis=1)
        q = apply_events(g, X)
        assert abs(q[0, 0] - q[1, 0]) < 1e-15
        d_before, d_after = np.linalg.norm(X[0, 1:] - X[1, 1:]), np.linalg.norm(q[0, 1:] - q[1, 1:])
        assert abs(d_after - d_before) < 1e-12


# --- Poincare ---------------------------------------------------------------

def test_poincare_validation():
    with pytest.raises(ValueError):
        PoincareElement(np.zeros(3), 0.0, np.array([1.0, 0, 0]), np.eye(3))
    with pytest.raises(ValueError):
        PoincareElement(np.zeros(3), 0.0, np.zeros(3), np.diag([1.0, 1.0, -1.0]))


def test_boost_reference_values():
    T = PoincareElement(np.zeros(3), 0.0, np.array([0.6, 0, 0]), np.eye(3))
    out = apply_events(T, [[1.0, 0, 0, 0]])[0]
    assert abs(out[0] - 1.25) < 1e-15
    assert np.max(np.abs(out[1:] - np.array([-0.75, 0.0, 0.0]))) < 1e-15
    X = np.array([[0.3, 1.0, 1.0, 1.0]])
    assert np.array_equal(apply_events(PoincareElement.identity(), X), X)


def test_poincare_interval_preservation():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(100):
        T = random_poincare(rng)
        X = rng.normal(size=(2, 4))
        a = apply_events(T, X)
        worst = max(worst, abs(minkowski_interval(a[0] - a[1]) - minkowski_interval(X[0] - X[1])))
    assert worst < 1e-10


def test_poincare_compose_identity_and_action():
    rng = np.random.default_rng(48)
    T = random_poincare(rng)
    TI = poincare_compose(T, PoincareElement.identity())
    assert np.max(np.abs(TI.v - T.v)) < 1e-12 and np.max(np.abs(TI.R - T.R)) < 1e-12
    worst = 0.0
    for _ in range(30):
        T1, T2 = random_poincare(rng), random_poincare(rng)
        X = rng.normal(size=(20, 4))
        once = apply_events(poincare_compose(T2, T1), X)
        twice = apply_events(T2, apply_events(T1, X))
        worst = max(worst, float(np.max(np.abs(once - twice))))
    assert worst < 1e-10


def test_poincare_velocity_addition():
    T1 = PoincareElement(np.zeros(3), 0.0, np.array([0.5, 0, 0]), np.eye(3))
    out = poincare_compose(T1, T1)
    assert np.max(np.abs(out.v - np.array([0.8, 0.0, 0.0]))) < 1e-12


def test_poincare_associativity():
    rng = np.random.default_rng(49)
    for _ in range(20):
        T1, T2, T3 = (random_poincare(rng) for _ in range(3))
        lhs = poincare_compose(poincare_compose(T3, T2), T1)
        rhs = poincare_compose(T3, poincare_compose(T2, T1))
        assert np.max(np.abs(lhs.v - rhs.v)) < 1e-10
        assert np.max(np.abs(lhs.R - rhs.R)) < 1e-10
        assert np.max(np.abs(lhs.a - rhs.a)) < 1e-10
        assert abs(lhs.b - rhs.b) < 1e-10


def test_discrete_operations():
    X = np.array([[1.0, 1.0, 2.0, 3.0]])
    assert np.array_equal(discrete_apply("P", X), [[1.0, -1.0, -2.0, -3.0]])
    assert np.array_equal(discrete_apply("T", discrete_apply("T", X)), X)
    assert np.array_equal(discrete_apply("PT", [[1.0, 1.0, 0, 0]]), [[-1.0, -1.0, 0, 0]])
    assert np.array_equal(discrete_apply("T", discrete_apply("P", X)), discrete_apply("PT", X))
    with pytest.raises(ValueError, match="unknown discrete operation"):
        discrete_apply("C", X)


def test_discrete_matrices_compose_square_to_one_and_validate_events():
    assert np.array_equal(DISCRETE["P"] @ DISCRETE["T"], DISCRETE["PT"])
    for M in DISCRETE.values():
        assert np.array_equal(M @ M, np.eye(4))
    for bad in ([[0.0, math.nan, 0.0, 0.0]], np.zeros((5, 3))):
        with pytest.raises(ValueError, match="events"):
            discrete_apply("P", bad)


# --- element validation -----------------------------------------------------

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("field, value", [
    ("a", [NAN, 0.0, 0.0]), ("a", [0.0, INF, 0.0]), ("a", [0.0, 0.0]),
    ("b", NAN), ("b", -INF),
    ("v", [NAN, 0.0, 0.0]), ("v", [0.0, 0.0, INF]), ("v", [0.1, 0.0]),
    ("R", np.diag([1.0, NAN, 1.0])), ("R", np.diag([INF, 1.0, 1.0])),
])
def test_poincare_element_rejects_non_finite_parameters(field, value):
    params = {"a": np.zeros(3), "b": 0.0, "v": np.zeros(3), "R": np.eye(3)}
    params[field] = value
    with pytest.raises(ValueError):
        PoincareElement(**params)


@pytest.mark.parametrize("field, value", [
    ("R", np.diag([1.0, 1.0, NAN])), ("R", np.diag([1.0, INF, 1.0])),
    ("v", [0.0, NAN, 0.0]), ("v", [INF, 0.0, 0.0]), ("v", [0.0, 0.0]),
    ("xi", [0.0, 0.0, NAN]), ("xi", [-INF, 0.0, 0.0]),
    ("tau", NAN), ("tau", INF),
])
def test_galilei_element_rejects_non_finite_parameters(field, value):
    params = {"R": np.eye(3), "v": np.zeros(3), "xi": np.zeros(3), "tau": 0.0}
    params[field] = value
    with pytest.raises(ValueError):
        GalileiElement(**params)


# --- NaN guards in poincare_compose ------------------------------------------

def _nan_in_homogeneous(monkeypatch, row, col):
    real = spacetime._homogeneous

    def poisoned(T):
        L = real(T)
        L[row, col] = NAN
        return L

    monkeypatch.setattr(spacetime, "_homogeneous", poisoned)


def _boosts():
    return (PoincareElement(np.zeros(3), 0.0, np.array([0.3, 0.0, 0.0]), np.eye(3)),
            PoincareElement(np.zeros(3), 0.0, np.array([0.0, 0.4, 0.0]), np.eye(3)))


def test_compose_rejects_nan_time_time_entry(monkeypatch):
    T2, T1 = _boosts()
    _nan_in_homogeneous(monkeypatch, 0, 0)
    with pytest.raises(CompositionError, match="time-time"):
        poincare_compose(T2, T1)


def test_compose_rejects_nan_boost_velocity(monkeypatch):
    T2, T1 = _boosts()
    # a NaN in row 1 of each factor reaches L[1, 0] but not L[0, 0]
    _nan_in_homogeneous(monkeypatch, 1, 3)
    with pytest.raises(CompositionError, match="velocity"):
        poincare_compose(T2, T1)


def test_compose_rejects_nan_factor_residual(monkeypatch):
    T2, T1 = _boosts()
    real = spacetime.boost_matrix
    calls = []

    def nan_on_third(v):
        # calls 1 and 2 build the factors' homogeneous blocks; call 3 undoes
        # the extracted boost.  A NaN in its time row spoils the time row of
        # the factor residual and leaves the rotation block finite, so only
        # a NaN-sticky fold of the residual terms can catch it
        calls.append(v)
        L = real(v)
        if len(calls) == 3:
            L[..., 0, 2] = NAN
        return L

    monkeypatch.setattr(spacetime, "boost_matrix", nan_on_third)
    with pytest.raises(CompositionError, match="does not factor"):
        poincare_compose(T2, T1)
    assert len(calls) == 3


# --- (N, 4) event kernels ----------------------------------------------------

def poincare_reference(T, X):
    """Per event: boost(v) diag(1, R) x + (b, a)."""
    L = boost_matrix(T.v) @ np.block([[np.ones((1, 1)), np.zeros((1, 3))],
                                      [np.zeros((3, 1)), T.R]])
    return np.array([L @ x + np.concatenate(([T.b], T.a)) for x in X])


def galilei_reference(g, X):
    """Per event: (t + tau, R r + v t + xi)."""
    return np.array([np.concatenate(([x[0] + g.tau], g.R @ x[1:] + g.v * x[0] + g.xi))
                     for x in X])


def slow_poincare(rng):
    v = rng.normal(size=3)
    v *= rng.uniform(0.0, 1e-8) / np.linalg.norm(v)
    return PoincareElement(a=rng.normal(size=3), b=float(rng.normal()), v=v,
                           R=rotation_about(rng.normal(size=3), rng.uniform(0, 6)))


@pytest.mark.parametrize("make", [random_poincare, slow_poincare], ids=["random", "small_v"])
def test_poincare_kernel_matches_per_event_reference(make):
    rng = np.random.default_rng(52)
    for _ in range(50):
        T = make(rng)
        if make is slow_poincare:
            assert np.linalg.norm(T.v) < spacetime._SMALL_V
        X = rng.normal(size=(20, 4))
        got = apply_events(T, X)
        assert got.shape == (20, 4)
        assert np.max(np.abs(got - poincare_reference(T, X))) <= 1e-14


@pytest.mark.parametrize("scale", [1.0, 1e-9], ids=["random", "small_v"])
def test_galilei_kernel_matches_per_event_reference(scale):
    rng = np.random.default_rng(54)
    for _ in range(50):
        g = random_galilei(rng)
        g = GalileiElement(g.R, g.v * scale, g.xi, g.tau)
        X = rng.normal(size=(20, 4))
        got = apply_events(g, X)
        assert got.shape == (20, 4)
        assert np.max(np.abs(got - galilei_reference(g, X))) <= 1e-14


@pytest.mark.parametrize("element", [PoincareElement.identity(), GalileiElement.identity()],
                         ids=["poincare", "galilei"])
@pytest.mark.parametrize("bad", [
    [[0.0, NAN, 0.0, 0.0]], [[INF, 0.0, 0.0, 0.0]], np.zeros(4), np.zeros((5, 3)),
], ids=["nan", "inf", "one_dim", "three_columns"])
def test_kernels_reject_bad_events(element, bad):
    with pytest.raises(ValueError, match="events"):
        apply_events(element, np.asarray(bad, dtype=float))


def test_galilei_parameter_laws_match_the_affine_matrices():
    # the composition and inverse formulas against the 5x5 matrices they
    # should multiply as, on 250 random pairs
    rng = np.random.default_rng(55)
    g1 = _stack([random_galilei(rng) for _ in range(250)])
    g2 = _stack([random_galilei(rng) for _ in range(250)])
    assert np.max(np.abs(galilei_compose(g2, g1).affine() - g2.affine() @ g1.affine())) <= 1e-13
    assert np.max(np.abs(g1.affine() @ galilei_inverse(g1).affine() - np.eye(5))) <= 1e-13


def test_minkowski_interval_folds_over_the_last_axis():
    rng = np.random.default_rng(56)
    X = rng.normal(size=(20, 4))
    stacked = minkowski_interval(X)
    assert stacked.shape == (20,)
    assert [float(s) for s in stacked] == [minkowski_interval(x) for x in X]
    assert isinstance(minkowski_interval(X[0]), float)
    assert minkowski_interval([1.0, 1.0, 0.0, 0.0]) == 0.0


def test_minkowski_interval_bits_do_not_depend_on_the_stack_layout():
    # y.T of a (4, K) array is a strided (K, 4) stack, and each of its rows
    # a strided event: both must give the bits of a contiguous event
    y = np.random.default_rng(57).normal(size=(4, 5000))
    assert not y.T.flags.c_contiguous
    per_event = [minkowski_interval(e.copy()) for e in y.T]
    assert [float(s) for s in minkowski_interval(y.T)] == per_event
    assert [minkowski_interval(e) for e in y.T] == per_event


def _poison_second_pair(monkeypatch, row):
    """Put a NaN into event `row` of the second element pair's block in
    every (pairs, events, 4) stack the event kernel maps for the Poincare
    compose sweep (three stacked calls)."""
    real = spacetime.apply_events
    blocks = []

    def poisoned(T, X):
        out = real(T, X)
        if np.ndim(X) == 3:
            blocks.append(X)
            out[1, row, 1] = NAN
        return out

    monkeypatch.setattr(spacetime, "apply_events", poisoned)
    return blocks


def test_nan_event_fails_poincare_compose_sweep_rows(monkeypatch):
    # The last row of each block is never mapped again: it is an output of
    # T21 or T2, or the qt half of T1's (pt, qt) block.
    blocks = _poison_second_pair(monkeypatch, -1)
    report = suites.run_poincare(suites.suite_rng(42, "poincare"), 1e-9, 5)
    assert [len(X) for X in blocks] == [5, 5, 5]
    failed = {c.name: c for c in report.checks if c.status == "fail"}
    assert set(failed) == {"compose_matches_sequential_action", "interval_preserved"}
    for c in failed.values():
        assert math.isnan(c.residual) and c.samples == 5


def test_nan_event_fed_to_the_next_element_is_rejected(monkeypatch):
    # Row 0 of T1's block is pt, which T2 then maps: the kernel refuses it,
    # naming the second pair, and the refusal fails the sweep's row and its
    # sibling.
    _poison_second_pair(monkeypatch, 0)
    report = suites.run_poincare(suites.suite_rng(42, "poincare"), 1e-9, 5)
    failed = {c.name: c for c in report.checks if c.status == "fail"}
    assert set(failed) == {"compose_matches_sequential_action", "interval_preserved"}
    for c in failed.values():
        assert c.detail.startswith("ValueError: events must be an (N, 4) array")
        assert c.detail.endswith("(element 1)")
    assert len(report.checks) == 10


def test_block_draws_replay_the_sequential_draws():
    """A normal block holds the numbers, in order, of one (t, r) draw per
    event: a generator fills a block row by row, which is what keeps a
    row's sample i the same at every sample count."""
    for suite, width in (("poincare", 8), ("galilei", 4)):
        block = suites.suite_rng(42, suite).normal(size=(20, width))
        rng = suites.suite_rng(42, suite)
        rows = []
        for _ in range(20):
            row = []
            for _ in range(width // 4):
                row += [rng.normal(), *rng.normal(size=3)]
            rows.append(row)
        assert np.array_equal(block, np.array(rows))


# --- conformal --------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_dilation_rejects_a_non_finite_factor(bad):
    # a NaN factor used to pass the guard and give a NaN pullback
    with pytest.raises(ValueError, match="finite and positive"):
        Dilation(bad)


def test_dilation_pullback():
    rng = np.random.default_rng(50)
    omega, res = conformal_pullback_check(Dilation(2.0), rng.normal(size=(5, 4)).T)
    assert omega.shape == res.shape == (5,)
    assert (np.abs(omega * omega - 0.25) < 1e-8).all()
    assert (res < 1e-8).all()
    (omega,), (res,) = conformal_pullback_check(Dilation(1.0), rng.normal(size=(4, 1)))
    assert abs(omega - 1.0) < 1e-10 and res < 1e-8


def test_inversion_pullback_matches_interval():
    (omega,), (res,) = conformal_pullback_check(Inversion(), [[2.0], [0.0], [0.0], [0.0]])
    assert abs(abs(omega) - 0.25) < 1e-6
    assert res < 1e-6
    # omega carries the sign of the interval inside the light cone
    assert omega < 0.0


@pytest.mark.parametrize("cmap", [Dilation(2.0), Inversion()], ids=["dilation", "inversion"])
def test_pullback_nan_column_stays_nan_beside_finite_ones(cmap):
    # a NaN fit gives a NaN omega and residual, which fail the row; the
    # finite columns are bit for bit what each gives alone
    x = np.array([[2.0, 0.0, 0.0, 0.0], [math.nan, 1.0, 0.0, 0.0], [0.5, 2.0, -1.0, 0.3]]).T
    omega, res = conformal_pullback_check(cmap, x)
    assert math.isnan(omega[1]) and math.isnan(res[1])
    for j in (0, 2):
        alone = conformal_pullback_check(cmap, x[:, j:j + 1])
        assert (omega[j], res[j]) == (alone[0][0], alone[1][0])


def test_inversion_rejects_null_cone():
    with pytest.raises(NullConeError):
        Inversion().inverse_apply(np.array([1.0, 1.0, 0.0, 0.0]))
    # every column of a (4, K) array is tested, and the first null one named
    cols = np.array([[2.0, 0.0, 0.0, 0.0], [0.5, 2.0, -1.0, 0.3], [1.0, 0.0, 1.0, 0.0]]).T
    with pytest.raises(NullConeError, match=r"\(element 2\)"):
        Inversion().inverse_apply(cols)


def test_inversion_involutive():
    inv = Inversion()
    x = np.array([0.4, 1.7, -0.6, 0.2])
    assert np.max(np.abs(inv.inverse_apply(inv.inverse_apply(x)) - x)) < 1e-12
    # a (4, K) array maps column by column
    cols = np.stack((x, 2.0 * x, [2.0, 0.0, 0.0, 0.0]), axis=1)
    assert np.array_equal(inv.inverse_apply(cols), np.stack([inv.inverse_apply(c) for c in cols.T], 1))


def test_flatness_checks():
    x = [0.0, 2.0, 0.0, 0.0]
    assert conformal_flatness_check("constant", x) < 1e-4
    assert conformal_flatness_check("inverse_interval", x) < 1e-4
    assert conformal_flatness_check("exp_x1", x) > 1e-2


@pytest.mark.parametrize("kind", sorted(RESCALINGS))
@pytest.mark.parametrize("x", [(0.0, 2.0, 0.0, 0.0), (0.3, 1.7, -0.4, 0.9),
                               (-0.5, 0.8, 1.3, -0.6)])
def test_einsum_curvature_matches_index_loop_oracle(kind, x):
    # both Richardson levels of conformal_flatness_check
    omega = RESCALINGS[kind]
    for h in (CURVATURE_STENCIL.step, CURVATURE_STENCIL.step / 2.0):
        got = spacetime._riemann_sup(omega, np.array(x), FDStencil(step=h, order=2))
        want = riemann_sup_by_index_loops(omega, x, h)
        assert abs(got - want) <= 1e-12 * want, (kind, x, h, got, want)
    if kind == "exp_x1":
        assert want > 0.5  # the control rescaling is visibly curved at every point


@pytest.mark.parametrize("kind", sorted(RESCALINGS))
def test_rescalings_on_point_arrays_equal_the_pointwise_values(kind):
    pts = np.random.default_rng(58).normal(size=(4, 64)) + [[0.0], [2.0], [0.0], [0.0]]
    got = RESCALINGS[kind](pts)
    assert got.shape == (64,)
    assert np.array_equal(got, [RESCALINGS[kind](pts[:, i].copy()) for i in range(64)])


def test_riemann_evaluates_the_rescaling_four_times():
    # two metric calls per Christoffel evaluation (its stencil cloud and its
    # centre), and two Christoffel evaluations (the outer cloud and x)
    calls = []

    def omega(y):
        calls.append(y.shape)
        return RESCALINGS["inverse_interval"](y)

    spacetime._riemann_sup(omega, np.array([0.3, 1.7, -0.4, 0.9]), CURVATURE_STENCIL)
    assert calls == [(4, 64), (4, 8), (4, 8), (4, 1)]


def test_flatness_null_cone_rejected():
    with pytest.raises(NullConeError):
        conformal_flatness_check("inverse_interval", [1.0, 1.0, 0.0, 0.0])


def test_dalembert_dilation_scaling():
    field = lambda y: y[1] ** 2
    for k in (0.5, 1.0, 2.0, 3.0):
        assert dalembert_dilation_check(k, field, [[0.1], [0.2], [-0.3], [0.4]])[0] < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0], ids=["nan", "inf", "zero", "negative"])
def test_dalembert_dilation_check_rejects_a_bad_factor(bad):
    # a NaN factor used to pass a k <= 0 guard and give a NaN residual
    with pytest.raises(ValueError, match="finite and positive"):
        dalembert_dilation_check(bad, lambda y: y[1] ** 2, [[0.1], [0.2], [-0.3], [0.4]])


def test_massless_wave_stays_solution():
    wave = lambda y: np.sin(y[0] - y[1])
    x = np.array([[0.3], [0.7], [0.0], [0.0]])
    for k in (1.0, 2.0):
        scaled = lambda y: wave(k * y)
        assert abs(dalembert(scaled, x)[0]) < 1e-6
    # the massive combination box + m^2 does not scale homogeneously
    k = 2.0
    phi = lambda y: wave(k * y)
    lhs = dalembert(phi, x) + phi(x)
    rhs = k * k * (dalembert(wave, k * x) + wave(k * x))
    assert abs(lhs - rhs)[0] > 1e-3


# --- stacked elements ----------------------------------------------------------

def _stack(elements):
    """The elements as one stacked element of their type."""
    return type(elements[0])(**{f: np.array([vars(e)[f] for e in elements]) for f in vars(elements[0])})


def test_stacked_laws_equal_the_per_element_laws():
    rng = np.random.default_rng(57)
    for make, compose in ((random_galilei, galilei_compose), (random_poincare, poincare_compose)):
        firsts, seconds = [make(rng) for _ in range(6)], [make(rng) for _ in range(6)]
        stacked = compose(_stack(seconds), _stack(firsts))
        for i, (g2, g1) in enumerate(zip(seconds, firsts)):
            one = compose(g2, g1)
            for f, value in vars(one).items():
                assert np.array_equal(vars(stacked)[f][i], value), f
    gs = [random_galilei(rng) for _ in range(6)]
    inv = galilei_inverse(_stack(gs))
    for i, g in enumerate(gs):
        assert np.array_equal(inv.R[i], galilei_inverse(g).R)
        assert np.array_equal(inv.xi[i], galilei_inverse(g).xi)
    X = rng.normal(size=(6, 20, 4))
    for make in (random_galilei, random_poincare):
        elements = [make(rng) for _ in range(6)]
        block = apply_events(_stack(elements), X)
        for i, e in enumerate(elements):
            assert np.array_equal(block[i], apply_events(e, X[i]))


def test_stacked_rotations_and_classification():
    rng = np.random.default_rng(58)
    axes, angles = rng.normal(size=(8, 3)), rng.uniform(0, 6, 8)
    R = rotation_about(axes, angles)
    for i in range(8):
        assert np.array_equal(R[i], rotation_about(axes[i], angles[i]))
    R[2] = np.diag([1.0, 1.0, -1.0])
    R[5] = np.eye(3) * 1.001
    R[6, 0, 0] = NAN
    kinds = classify_rotation(R)
    assert list(kinds) == ["proper", "proper", "improper", "proper", "proper",
                           "not_orthogonal", "not_orthogonal", "proper"]
    assert [classify_rotation(m) for m in R] == list(kinds)


def test_stacked_elements_name_the_first_bad_element():
    rng = np.random.default_rng(59)
    T = _stack([random_poincare(rng) for _ in range(5)])
    with pytest.raises(ValueError, match=r"\|v\| < 1 \(element 3\)"):
        PoincareElement(T.a, T.b, np.where(np.arange(5)[:, None] >= 3, 0.7, T.v), T.R)
    b = T.b.copy()
    b[4] = INF
    with pytest.raises(ValueError, match=r"finite \(element 4\)"):
        PoincareElement(T.a, b, T.v, T.R)
    R = T.R.copy()
    R[1] = -R[1]
    with pytest.raises(ValueError, match=r"proper orthogonal \(element 1\)"):
        PoincareElement(T.a, T.b, T.v, R)
    g = _stack([random_galilei(rng) for _ in range(5)])
    xi = g.xi.copy()
    xi[2, 1] = NAN
    with pytest.raises(ValueError, match=r"finite \(element 2\)"):
        GalileiElement(g.R, g.v, xi, g.tau)
    with pytest.raises(ValueError, match="events"):
        apply_events(g, rng.normal(size=(20, 4)))


def test_stacked_compose_names_the_element_that_leaves_the_light_cone():
    rng = np.random.default_rng(60)
    elements = [random_poincare(rng) for _ in range(5)]
    # two boosts at 1 - 1e-12 compose to a speed that rounds to 1
    fast = PoincareElement(np.zeros(3), 0.0, np.array([1.0 - 1e-12, 0.0, 0.0]), np.eye(3))
    elements[2] = fast
    with pytest.raises(CompositionError, match=r"\|v\| >= 1.*\(element 2\)"):
        poincare_compose(_stack(elements), _stack(elements))
    with pytest.raises(CompositionError, match="velocity") as err:
        poincare_compose(fast, fast)
    assert "element" not in str(err.value)


# --- validation: one boolean mask, one rotation test per composition ---------

def test_is_proper_agrees_with_classify_rotation():
    rng = np.random.default_rng(61)
    R = rotation_about(rng.normal(size=(10, 3)), rng.uniform(0, 6, 10))
    R[1] = np.diag([1.0, 1.0, -1.0])
    R[2] = -R[2]
    R[3, 0, 1] += 1e-3          # sheared
    R[4] *= 1.0 + 1e-9          # off orthogonal by more than ROTATION_TOL
    R[5, 2, 2] = NAN
    R[6, 1, 0] = INF
    R[7, 0, 0] = -INF
    proper = spacetime._is_proper(R)
    assert proper.dtype == bool
    assert list(proper) == [True, False, False, False, False, False, False, False, True, True]
    assert np.array_equal(proper, classify_rotation(R) == "proper")
    assert list(np.flatnonzero(classify_rotation(R) == "improper")) == [1, 2]
    for tol in (1e-8, 1e-12):
        assert np.array_equal(spacetime._is_proper(R, tol), classify_rotation(R, tol) == "proper")
    assert [bool(spacetime._is_proper(m)) for m in R] == list(proper)


def test_compose_tests_the_rotation_once_at_rotation_tol(monkeypatch):
    # the boost that undoes the extracted one (call 3) leaves element 3's
    # rotation block 1e-9 off orthogonal: inside the 1e-8 factoring bound,
    # outside ROTATION_TOL, so the compose guard itself must reject it
    rng = np.random.default_rng(62)
    T2, T1 = (_stack([random_poincare(rng) for _ in range(5)]) for _ in range(2))
    real = spacetime.boost_matrix
    calls = []

    def drifting_undo(v):
        calls.append(v)
        L = real(v)
        if len(calls) == 3:
            L[3, 1:, 1:] *= 1.0 + 1e-9
        return L

    monkeypatch.setattr(spacetime, "boost_matrix", drifting_undo)
    with pytest.raises(CompositionError, match=r"does not factor.*\(element 3\)"):
        poincare_compose(T2, T1)
    assert len(calls) == 3


@pytest.mark.parametrize("group", ["galilei", "poincare"])
def test_a_chain_of_compositions_stays_proper(group):
    rng = np.random.default_rng(63)
    if group == "galilei":
        compose, elements = galilei_compose, [random_galilei(rng) for _ in range(1000)]
    else:
        compose = poincare_compose
        # small boosts, so that the composed rapidity stays of order one
        elements = [PoincareElement(rng.normal(size=3), float(rng.normal()),
                                    rng.uniform(-0.03, 0.03, 3),
                                    rotation_about(rng.normal(size=3), rng.uniform(0, 6)))
                    for _ in range(1000)]
    g = elements[0]
    for e in elements[1:]:
        g = compose(e, g)
        assert spacetime._is_proper(g.R)


def test_constructors_still_reject_a_shear_a_nan_and_a_fast_boost():
    rng = np.random.default_rng(64)
    T = _stack([random_poincare(rng) for _ in range(5)])
    g = _stack([random_galilei(rng) for _ in range(5)])
    sheared, nan = T.R.copy(), T.R.copy()
    sheared[1, 0, 1] += 1e-6
    nan[2, 2, 2] = NAN
    with pytest.raises(ValueError, match=r"proper orthogonal \(element 1\)"):
        PoincareElement(T.a, T.b, T.v, sheared)
    with pytest.raises(ValueError, match=r"finite \(element 2\)"):
        PoincareElement(T.a, T.b, T.v, nan)
    with pytest.raises(ValueError, match=r"proper orthogonal \(element 1\)"):
        GalileiElement(sheared, g.v, g.xi, g.tau)
    with pytest.raises(ValueError, match=r"finite \(element 2\)"):
        GalileiElement(nan, g.v, g.xi, g.tau)
    for speed in (1.0, 1.5):
        v = T.v.copy()
        v[4] = [0.0, speed, 0.0]
        with pytest.raises(ValueError, match=r"\|v\| < 1 \(element 4\)"):
            PoincareElement(T.a, T.b, v, T.R)


def test_compose_rejects_a_translation_that_overflows():
    # finite factors whose translations sum past the largest float
    rng = np.random.default_rng(65)
    T = _stack([random_poincare(rng) for _ in range(5)])
    a = T.a.copy()
    a[3] = [1e308, 0.0, 0.0]
    far = PoincareElement(a, T.b, np.zeros((5, 3)), np.broadcast_to(np.eye(3), (5, 3, 3)))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"finite \(element 3\)"):
        poincare_compose(far, far)
