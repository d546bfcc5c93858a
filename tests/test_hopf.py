import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symmetria import hopf as hopf_module
from symmetria.hopf import (
    UqSu2Rep,
    antipode_convention_solve,
    coassociativity_residual,
    coproduct_rep,
    counit_antipode_residuals,
    planck_commutator_residual,
    planck_coproduct_residual,
    planck_scale_ops,
    q_number,
    relations_residual,
    uq_su2_rep,
)
from symmetria.numerics import CENTRAL_STENCILS, sup_norm

SPINS = (0.5, 1.0, 1.5)
QS = (0.7, 1.3, 2.0)


def test_q_number_basics():
    assert q_number(1, 1.7) == 1.0
    q = 1.4
    assert abs(q_number(2, q) - (q ** 2 - q ** -2) / (q - 1 / q)) < 1e-15
    # q-numbers deform integers quadratically
    assert abs(q_number(3, 1.001) - 3.0) < 1e-4


def test_rep_validation():
    with pytest.raises(ValueError):
        uq_su2_rep(0.5, 1.0)
    with pytest.raises(ValueError):
        uq_su2_rep(0.3, 1.5)
    with pytest.raises(ValueError):
        uq_su2_rep(0.5, -2.0)


def test_rep_rejects_nan_or_non_square_generators():
    rep = uq_su2_rep(1.0, 1.3)
    bad = rep.Xp.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        UqSu2Rep(q=rep.q, h=rep.h, Xp=bad, Xm=rep.Xm)
    with pytest.raises(ValueError, match="3x3"):
        UqSu2Rep(q=rep.q, h=rep.h, Xp=rep.Xp, Xm=rep.Xm[:, :2])
    with pytest.raises(ValueError, match="3x3"):
        UqSu2Rep(q=rep.q, h=rep.h, Xp=rep.Xp, Xm=np.eye(2))
    ok = UqSu2Rep(q=rep.q, h=[2, 0, -2], Xp=rep.Xp.real, Xm=rep.Xm)
    assert ok.h.dtype == float and ok.Xp.dtype == complex and ok.dim == 3


def test_spin_half_commutator_is_h():
    # X+ X- - X- X+ = diag(1, -1) = H exactly at j = 1/2, any q
    for q in QS:
        rep = uq_su2_rep(0.5, q)
        assert sup_norm((rep.Xp @ rep.Xm - rep.Xm @ rep.Xp) - np.diag(rep.h)) == 0.0


def test_ladder_relation_exact():
    for j in SPINS:
        rep = uq_su2_rep(j, 1.3)
        H = np.diag(rep.h)
        assert sup_norm(H @ rep.Xp - rep.Xp @ H - 2 * rep.Xp) < 1e-13
        assert sup_norm(H @ rep.Xm - rep.Xm @ H + 2 * rep.Xm) < 1e-13


@pytest.mark.parametrize("j", SPINS)
@pytest.mark.parametrize("q", QS)
def test_defining_relations(j, q):
    rep = uq_su2_rep(j, q)
    assert relations_residual(rep) < 1e-11


@pytest.mark.parametrize("j", SPINS)
@pytest.mark.parametrize("q", QS)
def test_coproduct_images_satisfy_relations(j, q):
    rep = uq_su2_rep(j, q)
    assert relations_residual(coproduct_rep(rep)) < 1e-10


def test_coproduct_h_additive_exactly():
    rep = uq_su2_rep(1.0, 1.5)
    cp = coproduct_rep(rep)
    one, H = np.eye(3, dtype=complex), np.diag(rep.h)
    assert sup_norm(np.diag(cp.h) - (np.kron(H, one) + np.kron(one, H))) == 0.0


def test_coproduct_classical_limit_point():
    rep = uq_su2_rep(0.5, 1.0 + 1e-6)
    cp = coproduct_rep(rep)
    one = np.eye(2, dtype=complex)
    additive = np.kron(rep.Xp, one) + np.kron(one, rep.Xp)
    assert sup_norm(cp.Xp - additive) < 1e-5


def test_coproduct_classical_limit_slope():
    qs = [1 + 10.0 ** (-e) for e in (2, 3, 4, 5)]
    classical = uq_su2_rep(0.5, 1 + 1e-12)
    one = np.eye(2, dtype=complex)
    additive = np.kron(classical.Xp, one) + np.kron(one, classical.Xp)
    errs = [sup_norm(coproduct_rep(uq_su2_rep(0.5, q)).Xp - additive) for q in qs]
    slope = float(np.polyfit(np.log([q - 1 for q in qs]), np.log(errs), 1)[0])
    assert abs(slope - 1.0) < 0.2


@pytest.mark.parametrize("j", SPINS)
@pytest.mark.parametrize("q", QS)
def test_coassociativity(j, q):
    rep = uq_su2_rep(j, q)
    assert coassociativity_residual(rep, coproduct_rep(rep)) < 1e-10


def test_coassociativity_continuity_near_one():
    rep = uq_su2_rep(0.5, 1 + 1e-8)
    assert coassociativity_residual(rep, coproduct_rep(rep)) < 1e-7


def test_counit_antipode_axioms():
    for q in QS:
        for j in (0.5, 1.0):
            res = counit_antipode_residuals(uq_su2_rep(j, q))
            assert max(res.values()) < 1e-11, (j, q, res)


def test_antipode_convention_from_2x2_solve():
    for q in (0.7, 1.3, 2.0):
        cp, cm = antipode_convention_solve(q)
        assert abs(cp + q) < 1e-12
        assert abs(cm + 1.0 / q) < 1e-12


def test_fd_weights_order8_central():
    # the table entry behind GridOperatorPair.derivative against the exact
    # fractions of the 9-point first derivative, offsets -4..4
    offsets, weights, divisor = CENTRAL_STENCILS[1, 8]
    exact = dict(zip(range(-4, 5), (Fraction(1, 280), Fraction(-4, 105), Fraction(1, 5),
                                    Fraction(-4, 5), 0, Fraction(4, 5), Fraction(-1, 5),
                                    Fraction(4, 105), Fraction(-1, 280))))
    assert sorted(offsets) == [-4, -3, -2, -1, 1, 2, 3, 4]
    assert all(Fraction(w) / Fraction(divisor) == exact[off] for off, w in zip(offsets, weights))


def test_interior_stencil_exact_on_degree8():
    ops = planck_scale_ops(64, 1.0, 1.0, 2.0)
    x = ops.x[ops.interior()]
    for deg in range(9):
        err = np.max(np.abs(ops.derivative(ops.x ** deg) - deg * x ** max(deg - 1, 0)))
        assert err < 1e-8, deg


def test_planck_scale_ops_holds_no_array_larger_than_the_grid():
    ops = planck_scale_ops(256, 5.0, 1.0, 2.0)
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2
    assert all(a.size <= ops.N for a in arrays)


def test_run_hopf_peak_memory_stays_small():
    # dense 256x256 complex grid operators alone would be 1 MB each
    from symmetria import suites

    rng = suites.suite_rng(42, "hopf")  # outside the trace: it may import numpy.random
    tracemalloc.start()
    try:
        suites.run_hopf(rng, 1e-9, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_planck_validation():
    with pytest.raises(ValueError):
        planck_scale_ops(32, 5.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        planck_scale_ops(128, 5.0, 1.0, 0.001)


@pytest.mark.parametrize("hbar, l", [
    (0.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
    (1.0, 0.0), (1.0, -2.0), (1.0, math.nan), (1.0, math.inf),
], ids=["hbar_zero", "hbar_nan", "hbar_inf", "l_zero", "l_negative", "l_nan", "l_inf"])
def test_planck_scale_ops_rejects_parameters_that_void_the_residuals(hbar, l):
    # hbar = 0 scales both residuals to exactly 0 whatever the operators
    with pytest.raises(ValueError):
        planck_scale_ops(128, 5.0, hbar, l)


def test_planck_commutator_interior():
    ops = planck_scale_ops(256, 5.0, 1.0, 2.0)
    assert planck_commutator_residual(ops) < 1e-6


def test_planck_commutator_converges_with_resolution():
    res_small = planck_commutator_residual(planck_scale_ops(128, 5.0, 1.0, 2.0))
    res_large = planck_commutator_residual(planck_scale_ops(256, 5.0, 1.0, 2.0))
    # order-8 stencils: halving the spacing should gain far more than 2^4
    assert res_large < res_small / 16.0


def test_planck_flat_limit():
    # large l: the deformation diagonal collapses toward zero like x/l
    ops = planck_scale_ops(128, 5.0, 1.0, 1e6)
    assert np.max(np.abs(ops.deform)) < 1e-5


def test_planck_coproduct_homomorphism():
    ops = planck_scale_ops(256, 5.0, 1.0, 2.0)
    assert planck_coproduct_residual(ops) < 1e-5


def test_coproduct_of_two_representations():
    half, one = uq_su2_rep(0.5, 1.3), uq_su2_rep(1.0, 1.3)
    cp = coproduct_rep(half, one)
    assert cp.dim == 6 and cp.Xp.shape == (6, 6)
    assert relations_residual(cp) < 1e-12
    same = coproduct_rep(half, half)
    assert np.array_equal(same.Xp, coproduct_rep(half).Xp)
    with pytest.raises(ValueError):
        coproduct_rep(half, uq_su2_rep(0.5, 2.0))


def test_rep_rejects_bad_weights_and_ladder_shapes():
    rep = uq_su2_rep(1.0, 1.3)
    with pytest.raises(ValueError, match="1-D"):
        UqSu2Rep(q=rep.q, h=np.diag(rep.h), Xp=rep.Xp, Xm=rep.Xm)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            UqSu2Rep(q=rep.q, h=[2.0, bad, -2.0], Xp=rep.Xp, Xm=rep.Xm)
    with pytest.raises(ValueError, match="Xp must be 3x3"):
        UqSu2Rep(q=rep.q, h=rep.h, Xp=uq_su2_rep(0.5, 1.3).Xp, Xm=rep.Xm)
    with pytest.raises(ValueError, match="Xp must be 3x3"):
        UqSu2Rep(q=rep.q, h=rep.h, Xp=rep.Xp[:2], Xm=rep.Xm)


def test_a_wrong_coproduct_fails_coassociativity(monkeypatch):
    # the right leg of Delta(h) counted twice: both iterated coproducts must
    # go through coproduct_rep, so the defect shows on h and on X+-
    real = hopf_module.coproduct_rep

    def doubled_right_leg(rep, right=None):
        right = rep if right is None else right
        pair = real(rep, right)
        return UqSu2Rep(pair.q, (rep.h[:, None] + 2.0 * right.h).ravel(), pair.Xp, pair.Xm)

    rep = uq_su2_rep(1.0, 1.3)
    assert coassociativity_residual(rep, real(rep)) < 1e-10
    monkeypatch.setattr(hopf_module, "coproduct_rep", doubled_right_leg)
    assert coassociativity_residual(rep, hopf_module.coproduct_rep(rep)) > 1.0


def test_wrong_counit_is_detected(monkeypatch):
    # eps(K^-1) = eps(q^(-H/2)) = 0 instead of 1: the spin-0 representation's
    # K^-1 letter zeroed
    real = hopf_module._letters

    def wrong_counit(rep):
        out = real(rep)
        return {**out, "Kinv": 0.0 * out["Kinv"]} if rep.dim == 1 else out

    monkeypatch.setattr(hopf_module, "_letters", wrong_counit)
    for j in (0.5, 1.0):
        res = counit_antipode_residuals(uq_su2_rep(j, 1.3))
        assert res["counit_Xp"] > 1e-3 and res["counit_Xm"] > 1e-3
        assert res["counit_h"] == 0.0


def _antipode_residuals(res):
    return [v for k, v in res.items() if k.startswith("antipode_")]


def test_swapped_coproduct_legs_fail_only_the_antipode(monkeypatch):
    # the opposite coproduct X+- x K^-1 + K x X+- is a coproduct too, so the
    # relations and coassociativity hold; S(X+-) = -q^(+-1) X+- is not its
    # antipode, and the antipode rows apply S to the DELTA that runs
    from symmetria import suites

    for x, pairs in list(hopf_module.DELTA.items()):
        monkeypatch.setitem(hopf_module.DELTA, x, tuple((b, a) for a, b in pairs))
    for q in QS:
        for j in (0.5, 1.0):
            rep = uq_su2_rep(j, q)
            res = counit_antipode_residuals(rep)
            assert min(_antipode_residuals(res)) > 1e-3, (j, q, res)
            assert max(res["counit_h"], res["counit_Xp"], res["counit_Xm"]) < 1e-12
            square = coproduct_rep(rep)
            assert coassociativity_residual(rep, square) < 1e-10
            assert relations_residual(square) < 1e-10
    status = {row.name: row.status for row in suites.run_hopf(suites.suite_rng(42, "hopf"), 1e-9, 20).checks}
    assert status["counit_antipode_axioms"] == "fail"
    for name in ("deformed_su2_relations", "coproduct_is_homomorphism", "coassociativity"):
        assert status[name] == "pass", name


def test_wrong_antipode_is_detected(monkeypatch):
    # S(X+-) = -q^(-+1) X+-: the powers of q exchanged
    real = hopf_module._antipode

    def wrong_antipode(rep):
        return {**real(rep), "Xp": -(1.0 / rep.q) * rep.Xp, "Xm": -rep.q * rep.Xm}

    monkeypatch.setattr(hopf_module, "_antipode", wrong_antipode)
    for q in QS:
        for j in (0.5, 1.0):
            res = counit_antipode_residuals(uq_su2_rep(j, q))
            assert min(_antipode_residuals(res)) > 1e-3, (j, q, res)


def test_nan_propagates_through_relations_residual():
    rep = uq_su2_rep(1.0, 1.3)
    # the constructor rejects a NaN q, so it is set past the constructor to
    # check the residual itself; only the [X+, X-] defect sees q, so the
    # NaN is the last of the three
    object.__setattr__(rep, "q", float("nan"))
    with np.errstate(invalid="ignore"):
        assert np.isnan(relations_residual(rep))


@pytest.mark.parametrize("q", [float("nan"), float("inf"), 0.0, -1.3, 1.0])
def test_rep_rejects_a_bad_deformation_parameter(q):
    message = "undeformed" if q == 1.0 else "finite and positive"
    rep = uq_su2_rep(0.5, 1.3)
    with pytest.raises(ValueError, match=message):
        UqSu2Rep(q, rep.h, rep.Xp, rep.Xm)
    with pytest.raises(ValueError, match=message):
        uq_su2_rep(0.0, q)


def test_nan_propagates_through_coassociativity(monkeypatch):
    real = hopf_module.sup_norm
    calls = []

    def nan_on_second(m):
        calls.append(m)
        return float("nan") if len(calls) == 2 else real(m)

    monkeypatch.setattr(hopf_module, "sup_norm", nan_on_second)
    rep = uq_su2_rep(1.0, 1.3)
    assert np.isnan(coassociativity_residual(rep, coproduct_rep(rep)))
    assert len(calls) == 3


def test_nan_propagates_through_planck_residuals():
    broken = planck_scale_ops(128, 5.0, 1.0, 2.0)
    broken.deform[broken.N // 2] = np.nan
    assert np.isnan(planck_commutator_residual(broken))
    assert np.isnan(planck_coproduct_residual(broken))
