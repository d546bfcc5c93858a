import json
import math

import mpmath as mp
import numpy as np
import pytest
from oracles import (classical_weights, quadratic_jacobi_holds_on_grid, sklyanin_exchange_defect,
                     sweep_samples_by_scalar_loop)

from symmetria import cli, suites
from symmetria import sklyanin as sklyanin_module
from symmetria.elliptic import EllipticPoleError
from symmetria.numerics import sup_norm
from symmetria.sklyanin import (
    CYCLIC,
    SIGMA,
    SWEEP_MARGIN,
    ClassicalRParams,
    PoissonTensorSpec,
    QuantumRParams,
    SklyaninRep,
    classical_limit_probe,
    classical_quadric,
    classical_r,
    classical_sklyanin_bracket_residual,
    classical_w,
    cybe_residual,
    poisson_jacobi_defect,
    poisson_tensor,
    quantum_R,
    quantum_W,
    quantum_curve,
    qybe_residual,
    rep2,
    rep3,
    rll_residual,
    sklyanin_residual,
    sweep_samples,
    L_operator,
    _embed_pair,
    _rll_factors,
)

SWAP = np.zeros((4, 4), dtype=complex)
for i in range(2):
    for j in range(2):
        SWAP[2 * i + j, 2 * j + i] = 1.0


def test_classical_w_trigonometric_point():
    p = ClassicalRParams(rho=1.0, k=0.0)
    w = classical_w(math.pi / 4, p)
    assert abs(w[0] - math.sqrt(2)) < 1e-14
    assert abs(w[1] - math.sqrt(2)) < 1e-14
    assert abs(w[2] - 1.0) < 1e-14


def test_classical_w_pole_error():
    p = ClassicalRParams(rho=1.0, k=0.5)
    with pytest.raises(EllipticPoleError):
        classical_w(0.0, p)


def test_quadric_constancy():
    for k in (0.0, 0.5, 0.8):
        p = ClassicalRParams(rho=1.3, k=k)
        J = classical_quadric(p)
        for u in np.linspace(0.2, 2.8, 20):
            w = classical_w(float(u), p)
            for (a, b), val in J.items():
                assert abs(w[a - 1] ** 2 - w[b - 1] ** 2 - val) < 1e-10


def test_classical_r_symmetric_and_odd_at_k0():
    p = ClassicalRParams(rho=1.0, k=0.0)
    r = classical_r(0.7, p)
    assert sup_norm(r - r.T) < 1e-13
    assert sup_norm(classical_r(-0.7, p) + r) < 1e-12


def test_classical_r_assembly():
    p = ClassicalRParams(rho=1.0, k=0.3)
    u = 0.9
    w = classical_w(u, p)
    manual = sum(w[a - 1] * np.kron(SIGMA[a], SIGMA[a]) for a in (1, 2, 3))
    assert sup_norm(classical_r(u, p) - manual) == 0.0


def test_cybe_residual_small():
    rng = np.random.default_rng(71)
    for k in (0.0, 0.5):
        p = ClassicalRParams(rho=1.0, k=k)
        worst = max(cybe_residual(u, v, p) for u, v in sweep_samples(rng, k, 20))
        assert worst < 1e-10 if k == 0.0 else worst < 1e-9


def test_cybe_detects_perturbation():
    p = ClassicalRParams(rho=1.0, k=0.5)
    u, v = 1.1, 0.4
    w = classical_w(u - v, p)
    mutated = sum(wv * np.kron(SIGMA[a], SIGMA[a])
                  for a, wv in enumerate((w[0] * 1.01, w[1], w[2]), start=1))
    r12 = _embed_pair(mutated, (0, 1))
    r13 = _embed_pair(classical_r(u, p), (0, 2))
    r23 = _embed_pair(classical_r(v, p), (1, 2))
    residual = sup_norm(r12 @ r13 @ np.eye(8) - r13 @ r12)  # noqa: F841 sanity shape
    total = sup_norm((r12 @ r13 - r13 @ r12) + (r12 @ r23 - r23 @ r12) + (r13 @ r23 - r23 @ r13))
    assert total > 1e-3


def test_quantum_W_regular_point():
    p = QuantumRParams(eta=0.3, k=0.5)
    W = quantum_W(0.0, p)
    assert max(abs(W[a] - 1.0) for a in range(3)) < 1e-12


def test_quantum_W_zero_of_sn_names_its_condition():
    with pytest.raises(EllipticPoleError) as err:
        quantum_W(0.0, QuantumRParams(eta=1e-13, k=0.5))
    assert str(err.value) == ("argument 1e-13j has |sn(u + i eta)| = 1e-13 < 1e-12, "
                              "a pole of the quantum weights")
    assert err.value.index is None
    u = np.array([0.4, 0.0, 0.0])
    with pytest.raises(EllipticPoleError, match=r"\(index 1\) has \|sn\(u \+ i eta\)\| = ") as err:
        quantum_W(u, QuantumRParams(eta=1e-13, k=0.5))
    assert err.value.index == 1


def test_quantum_W_k0_collapses_dn_weight():
    p = QuantumRParams(eta=0.4, k=0.0)
    W = quantum_W(0.9, p)
    assert abs(W[0] - W[1]) < 1e-12
    # W1 = sin(i eta)/sin(u + i eta) in the trigonometric limit
    expected = complex(mp.sin(mp.mpc(0, 0.4)) / mp.sin(mp.mpc(0.9, 0.4)))
    assert abs(W[0] - expected) < 1e-12


def test_quantum_R_regular_point_is_twice_swap():
    p = QuantumRParams(eta=0.3, k=0.5)
    assert sup_norm(quantum_R(0.0, p) - 2.0 * SWAP) < 1e-12


def test_quantum_R_against_mpmath_oracle():
    # rebuild the R entries from mpmath's theta-based elliptic functions
    eta, k, u = 0.3, 0.5, 0.7
    p = QuantumRParams(eta=eta, k=k)
    z = mp.mpc(u, eta)
    ze = mp.mpc(0, eta)
    sn_z, cn_z, dn_z = (complex(mp.ellipfun(n, z, k=k)) for n in ("sn", "cn", "dn"))
    sn_e, cn_e, dn_e = (complex(mp.ellipfun(n, ze, k=k)) for n in ("sn", "cn", "dn"))
    W_ref = (sn_e / sn_z, (dn_z / sn_z) * (sn_e / dn_e), (cn_z / sn_z) * (sn_e / cn_e))
    R_ref = np.eye(4, dtype=complex) + sum(W_ref[a - 1] * np.kron(SIGMA[a], SIGMA[a])
                                           for a in (1, 2, 3))
    assert sup_norm(quantum_R(u, p) - R_ref) < 1e-9


def test_quantum_R_small_eta_linear():
    k = 0.5
    u = 0.8
    norms = [sup_norm(quantum_R(u, QuantumRParams(eta=e, k=k)) - np.eye(4))
             for e in (0.1, 0.05, 0.025)]
    assert norms[1] < 0.6 * norms[0]
    assert norms[2] < 0.6 * norms[1]


def test_curve_constancy():
    p = QuantumRParams(eta=0.3, k=0.5)
    ref = quantum_curve(p, u_ref=0.3)
    for u in (0.3, 0.9, 1.6):
        cur = quantum_curve(p, u_ref=u)
        for key in ref:
            assert abs(cur[key] - ref[key]) < 1e-9


def test_qybe_residual_small():
    rng = np.random.default_rng(72)
    for (eta, k, tol) in ((0.3, 0.0, 1e-10), (0.3, 0.5, 1e-9)):
        p = QuantumRParams(eta=eta, k=k)
        worst = max(qybe_residual(u, v, p) for u, v in sweep_samples(rng, k, 20))
        assert worst < tol


def test_qybe_v0_braid_reduction():
    p = QuantumRParams(eta=0.3, k=0.5)
    u = 1.1
    r12 = _embed_pair(quantum_R(u, p), (0, 1))
    r13 = _embed_pair(quantum_R(u, p), (0, 2))
    p23 = _embed_pair(2.0 * SWAP, (1, 2))
    assert sup_norm(r12 @ r13 @ p23 - p23 @ r13 @ r12) < 1e-12


def _kron_reference(m4, legs):
    # expand m4 in the product basis e_ij x e_kl and place each factor on
    # its leg with plain Kronecker products
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    ops = [np.eye(2, dtype=complex)] * 3
                    ops[legs[0]] = np.outer(np.eye(2)[i], np.eye(2)[j])
                    ops[legs[1]] = np.outer(np.eye(2)[k], np.eye(2)[l])
                    out += m4[2 * i + k, 2 * j + l] * np.kron(np.kron(ops[0], ops[1]), ops[2])
    return out


def test_embed_pair_matches_kron_reference():
    rng = np.random.default_rng(77)
    for _ in range(5):
        m4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert sup_norm(_embed_pair(m4, (0, 1)) - np.kron(m4, np.eye(2))) <= 1e-14
        assert sup_norm(_embed_pair(m4, (1, 2)) - np.kron(np.eye(2), m4)) <= 1e-14
        for legs in ((0, 1), (0, 2), (1, 2), (2, 0)):
            assert sup_norm(_embed_pair(m4, legs) - _kron_reference(m4, legs)) <= 1e-14, legs


def test_embed_pair_validates_its_input():
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        _embed_pair(bad, (0, 1))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        _embed_pair(bad, (0, 2))
    with pytest.raises(ValueError):
        _embed_pair(np.eye(8), (0, 1))
    with pytest.raises(ValueError):
        _embed_pair(np.eye(4), (1, 1))


def test_rll_factors_match_kron_reference():
    p = QuantumRParams(eta=0.3, k=0.5)
    one_2 = np.eye(2, dtype=complex)
    u, v = 0.9, 0.4
    for r in (rep2(), rep3(1.0, 2.0, 3.0)):
        weights = [np.stack(quantum_W(x, p), axis=-1) for x in (u - v, u, v)]
        R, Lp, Lpp = _rll_factors(*weights, r)
        assert sup_norm(R - np.kron(quantum_R(u - v, p), np.eye(r.dim))) <= 1e-14
        for L, w, aux in ((Lp, u, lambda s: np.kron(s, one_2)),
                          (Lpp, v, lambda s: np.kron(one_2, s))):
            W = (1.0,) + quantum_W(w, p)
            ref = sum(W[a] * np.kron(aux(SIGMA[a]), r.S[a]) for a in range(4))
            assert sup_norm(L - ref) <= 1e-14


def test_rep_rejects_non_finite_or_misshapen_generators():
    r = rep2()
    bad = r.S[1].copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        SklyaninRep(dim=2, S=(r.S[0], bad, r.S[2], r.S[3]), J=r.J)
    with pytest.raises(ValueError):
        SklyaninRep(dim=3, S=r.S, J=r.J)


@pytest.mark.parametrize("name, row", [
    ("cybe_residual", "classical_yang_baxter"),
    ("qybe_residual", "quantum_yang_baxter"),
    ("rll_residual", "exchange_relation_pauli"),
])
def test_nan_sample_fails_sweep_row(monkeypatch, name, row):
    real = getattr(sklyanin_module, name)
    calls = []

    def nan_at_third_sample(*args):
        # the sweep hands the kernel whole u, v arrays; the third sample of
        # its first call goes NaN, with samples after it in the same array
        calls.append(args)
        out = real(*args)
        if len(calls) == 1:
            out[2] = float("nan")
        return out

    monkeypatch.setattr(sklyanin_module, name, nan_at_third_sample)
    report = suites.run_sklyanin(suites.suite_rng(42, "sklyanin"), 1e-9, 20)
    assert len(calls[0][0]) > 3
    status = {c.name: c.status for c in report.checks}
    assert status[row] == "fail"
    assert sum(s == "fail" for s in status.values()) == 1


def test_rep2_relations_exact():
    assert sklyanin_residual(rep2()) == 0.0


def test_rep2_bracket_identities_by_hand():
    # [sigma_a, sigma_b] = 2i eps sigma_c equals i [1, sigma_c]_+ = 2i sigma_c
    S = rep2().S
    for a, b, c in CYCLIC:
        lhs = S[a] @ S[b] - S[b] @ S[a]
        assert sup_norm(lhs - 2j * S[c]) == 0.0


def test_rep3_relations_and_selfadjointness():
    rng = np.random.default_rng(73)
    for _ in range(3):
        J = rng.uniform(0.5, 3.0, 3)
        r = rep3(*J)
        assert sklyanin_residual(r) < 1e-12
        for S in r.S:
            assert sup_norm(S - S.conj().T) < 1e-12


def test_rep3_requires_positive_couplings():
    with pytest.raises(ValueError):
        rep3(1.0, -2.0, 3.0)


def test_rep3_mutation_detected():
    r = rep3(1.0, 2.0, 3.0)
    flipped = SklyaninRep(dim=3, S=(r.S[0], r.S[1], r.S[2], -r.S[3]), J=r.J)
    assert sklyanin_residual(flipped) > 1e-3


def test_summed_index_convention_fails():
    # the free double sum contracts the antisymmetric couplings with the
    # symmetric anticommutators, forcing [S_a, S_0] = 0, false in 3 dims
    assert sklyanin_residual(rep3(1.0, 2.0, 3.0), convention="summed") > 1e-3


def test_L_operator_shapes_and_regular_point():
    p = QuantumRParams(eta=0.3, k=0.5)
    assert L_operator(0.0, rep2(), p).shape == (4, 4)
    assert sup_norm(L_operator(0.0, rep2(), p) - 2.0 * SWAP) < 1e-12
    r3 = rep3(1.0, 2.0, 3.0)
    assert L_operator(0.7, r3, p).shape == (6, 6)
    # hand assembly at one sample point
    W = quantum_W(0.7, p)
    manual = np.kron(SIGMA[0], r3.S[0]) + sum(W[a - 1] * np.kron(SIGMA[a], r3.S[a])
                                           for a in (1, 2, 3))
    assert sup_norm(L_operator(0.7, r3, p) - manual) == 0.0


def test_rll_pauli_grid():
    rng = np.random.default_rng(74)
    r2 = rep2()
    for eta in (0.2, 0.3):
        for k in (0.0, 0.3, 0.5):
            p = QuantumRParams(eta=eta, k=k)
            worst = max(rll_residual(u, v, r2, p) for u, v in sweep_samples(rng, k, 10))
            assert worst < 1e-9, (eta, k)


def test_rll_mutation_detected():
    p = QuantumRParams(eta=0.3, k=0.5)
    r = rep2()
    scaled = SklyaninRep(dim=2, S=(r.S[0], 1.05 * r.S[1], r.S[2], r.S[3]), J=r.J)
    assert rll_residual(0.9, 0.4, scaled, p) > 1e-3


def test_poisson_tensor_zero_for_equal_specs():
    C = poisson_tensor(PoissonTensorSpec(a=(1, 2, 3, 4), b=(1, 2, 3, 4)))
    assert C.shape == (4, 4, 4, 4) and not C.any()


def test_poisson_tensor_special_case_term_for_term():
    # b = (0,1,1,1), a = (1,a1,a2,a3): cyclic triples (j,k,l) give
    # {x_k,x_l} = x_0 x_j and {x_k,x_0} = (a_j - a_l) x_j x_l
    a = (1, 2, 5, 9)
    C = poisson_tensor(PoissonTensorSpec(a=a, b=(0, 1, 1, 1)))
    expect = np.zeros((4, 4, 4, 4), dtype=np.int64)
    for k, l, i, j, coeff in ((1, 2, 0, 3, 1), (2, 3, 0, 1, 1), (3, 1, 0, 2, 1),
                              (1, 0, 2, 3, a[3] - a[2]), (2, 0, 1, 3, a[1] - a[3]),
                              (3, 0, 1, 2, a[2] - a[1])):
        expect[k, l, i, j], expect[l, k, i, j] = coeff, -coeff
    assert np.array_equal(C, expect)


def test_poisson_tensor_and_jacobi_defect_are_integer_arrays():
    C = poisson_tensor(PoissonTensorSpec(a=(3, -1, 4, 2), b=(0, 5, -2, 1)))
    D = poisson_jacobi_defect(C)
    assert C.dtype == np.int64 and D.dtype == np.int64
    assert D.shape == (4,) * 6 and not D.any()


def test_poisson_tensor_spec_rejects_non_integers_and_overflowing_entries():
    with pytest.raises(ValueError):
        PoissonTensorSpec(a=(1, 2, 3, 0.5), b=(0, 1, 1, 1))
    with pytest.raises(ValueError):
        PoissonTensorSpec(a=(1, 2, 3, 4097), b=(0, 1, 1, 1))
    # the largest allowed entries keep the Jacobi sums exact
    C = poisson_tensor(PoissonTensorSpec(a=(4096, -4096, 4096, 1), b=(-4096, 4096, 1, 4096)))
    assert np.abs(C).max() <= sklyanin_module.TENSOR_BOUND
    assert not poisson_jacobi_defect(C).any()


def test_jacobi_defect_rejects_non_antisymmetric_tensors():
    C = poisson_tensor(PoissonTensorSpec(a=(1, 2, 5, 9), b=(0, 1, 1, 1)))
    C[1, 2, 0, 3] += 1
    with pytest.raises(ValueError):
        poisson_jacobi_defect(C)
    with pytest.raises(ValueError):
        poisson_jacobi_defect(C.astype(float))
    C[2, 1, 0, 3] = -C[1, 2, 0, 3] + 2 ** 27
    C[1, 2, 0, 3] += -(2 ** 27)
    with pytest.raises(ValueError):
        poisson_jacobi_defect(C)


def test_poisson_tensor_jacobi_exact():
    rng = np.random.default_rng(75)
    done = 0
    while done < 20:
        a = tuple(int(z) for z in rng.integers(-5, 6, 4))
        b = tuple(int(z) for z in rng.integers(-5, 6, 4))
        if a == b:
            continue
        assert not poisson_jacobi_defect(poisson_tensor(PoissonTensorSpec(a=a, b=b))).any(), (a, b)
        done += 1


def test_jacobi_defect_matches_grid_oracle():
    rng = np.random.default_rng(77)
    done = 0
    while done < 50:
        a = tuple(int(z) for z in rng.integers(-5, 6, 4))
        b = tuple(int(z) for z in rng.integers(-5, 6, 4))
        if a == b:
            continue
        C = poisson_tensor(PoissonTensorSpec(a=a, b=b))
        assert quadratic_jacobi_holds_on_grid(C) == (not poisson_jacobi_defect(C).any()), (a, b)
        done += 1
    # one coefficient changed (antisymmetrically) breaks the identity
    C = poisson_tensor(PoissonTensorSpec(a=(1, 2, 5, 9), b=(0, 1, 1, 1)))
    C[1, 2, 0, 3] += 1
    C[2, 1, 0, 3] -= 1
    assert not quadratic_jacobi_holds_on_grid(C)
    assert poisson_jacobi_defect(C).any()


def test_jacobi_defect_coefficients_of_a_broken_bracket():
    # {x0, x1} = x1 x2, {x1, x2} = x0 x2, {x0, x2} = 0; by hand, over (0, 1, 2):
    # {x0, {x1, x2}} = {x0, x0 x2} = 0, {x1, {x2, x0}} = 0 and
    # {x2, {x0, x1}} = {x2, x1 x2} = x2 {x2, x1} = -x0 x2^2
    C = np.zeros((4, 4, 4, 4), dtype=np.int64)
    C[0, 1, 1, 2], C[1, 0, 1, 2] = 1, -1
    C[1, 2, 0, 2], C[2, 1, 0, 2] = 1, -1
    D = poisson_jacobi_defect(C)
    assert D[0, 1, 2, 0, 2, 2] == -1 and np.count_nonzero(D[0, 1, 2]) == 1
    assert D[1, 2, 0, 0, 2, 2] == -1 and D[1, 0, 2, 0, 2, 2] == 1
    assert not quadratic_jacobi_holds_on_grid(C)


def test_classical_bracket_exchange_identity():
    for k in (0.0, 0.5):
        p = ClassicalRParams(rho=1.0, k=k)
        for (u, v) in ((0.9, 0.4), (1.3, 0.7)):
            assert classical_sklyanin_bracket_residual(p, u, v) < 1e-8


def _scaled_quadric(monkeypatch, pair, factor):
    real = sklyanin_module.classical_quadric

    def scaled(p):
        J = real(p)
        return {**J, pair: factor * J[pair]}

    monkeypatch.setattr(sklyanin_module, "classical_quadric", scaled)


def test_classical_bracket_detects_mutations(monkeypatch):
    p = ClassicalRParams(rho=1.0, k=0.5)
    for pair in ((1, 2), (1, 3), (2, 3)):
        with monkeypatch.context() as m:
            _scaled_quadric(m, pair, 1.01)
            assert classical_sklyanin_bracket_residual(p, 0.9, 0.4) > 1e-3, pair


def _oracle_quadric(rho, k):
    # J_ab = w_a^2 - w_b^2 from the inversion-oracle weights at one argument
    w = classical_weights(0.8, rho, k)
    return {(a, b): w[a - 1] ** 2 - w[b - 1] ** 2 for a, b in ((1, 2), (1, 3), (2, 3))}


@pytest.mark.parametrize("k", [0.0, 0.5])
def test_exchange_residual_matches_pointwise_oracle(monkeypatch, k):
    points = np.random.default_rng(78).normal(size=(4, 4))
    p = ClassicalRParams(rho=1.0, k=k)
    J = _oracle_quadric(1.0, k)
    for u, v in ((0.9, 0.4), (1.3, 0.7)):
        oracle = sklyanin_exchange_defect(u, v, 1.0, k, J, points)
        ours = classical_sklyanin_bracket_residual(p, u, v)
        assert oracle <= 1e-12 and ours <= 1e-12, (u, v, oracle, ours)
    # a scaled J_13 breaks both
    _scaled_quadric(monkeypatch, (1, 3), 1.01)
    assert classical_sklyanin_bracket_residual(p, 0.9, 0.4) > 1e-3
    assert sklyanin_exchange_defect(0.9, 0.4, 1.0, k, {**J, (1, 3): 1.01 * J[(1, 3)]},
                                    points) > 1e-3


def test_classical_limit_slopes():
    hs = [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)]
    for k in (0.0, 0.5):
        p = ClassicalRParams(rho=1.0, k=k)
        out = classical_limit_probe(0.8, p, hs)
        assert out["e1_slope"] >= 1.9
        assert out["e2_slope"] >= 1.9
        assert out["e3_slope"] >= 3.8


# The NaN sits in the middle of each fold, where builtin max would drop it.
def test_nan_propagates_through_classical_limit_weight_error(monkeypatch):
    real = sklyanin_module.classical_w

    def nan_middle_weight(u, p):
        w1, _, w3 = real(u, p)
        return w1, math.nan, w3

    monkeypatch.setattr(sklyanin_module, "classical_w", nan_middle_weight)
    hs = [10.0 ** (-e) for e in (1.0, 1.5, 2.0)]
    out = classical_limit_probe(0.8, ClassicalRParams(rho=1.0, k=0.5), hs)
    assert all(math.isnan(e) for e in out["e1"])
    assert math.isnan(out["e1_slope"])
    assert all(math.isfinite(e) for e in out["e3"])


def test_nan_propagates_through_classical_limit_curve_error(monkeypatch):
    real = sklyanin_module.classical_quadric

    def nan_middle_constant(p):
        J = real(p)
        return {**J, (1, 3): math.nan}

    monkeypatch.setattr(sklyanin_module, "classical_quadric", nan_middle_constant)
    hs = [10.0 ** (-e) for e in (1.0, 1.5, 2.0)]
    out = classical_limit_probe(0.8, ClassicalRParams(rho=1.0, k=0.5), hs)
    assert all(math.isnan(e) for e in out["e3"])
    assert math.isnan(out["e3_slope"])
    assert all(math.isfinite(e) for e in out["e1"])


def test_sweep_samples_avoid_poles():
    rng = np.random.default_rng(76)
    from symmetria.elliptic import quarter_period
    k = 0.5
    K = quarter_period(k)
    for u, v in sweep_samples(rng, k, 50):
        for arg in (u, v, u - v):
            assert abs(arg - 2 * K * round(arg / (2 * K))) >= 0.05


@pytest.mark.parametrize("k", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("count", [1, 20, 1000])
def test_sweep_samples_match_the_scalar_loop(k, count):
    # the block draws keep the pairs, their float type and the generator
    # state of the loop that drew u then v one pair at a time
    from symmetria.elliptic import quarter_period
    block, scalar = np.random.default_rng(81), np.random.default_rng(81)
    pairs = sweep_samples(block, k, count)
    assert pairs == sweep_samples_by_scalar_loop(scalar, k, count, quarter_period(k), SWEEP_MARGIN)
    assert all(type(p) is tuple and type(p[0]) is float and type(p[1]) is float for p in pairs)
    assert block.random() == scalar.random()


def test_nan_propagates_through_quadratic_relations_residual():
    r3 = rep3(1.0, 2.0, 3.0)
    # J_2 enters the first relation of the first cyclic triple
    assert math.isnan(sklyanin_residual(SklyaninRep(dim=3, S=r3.S, J=(1.0, math.nan, 3.0))))


def test_nan_propagates_through_classical_bracket_residual():
    p = ClassicalRParams(rho=math.nan, k=0.5)
    assert math.isnan(classical_sklyanin_bracket_residual(p, 0.9, 0.4))


def test_nan_in_one_bracket_coefficient_propagates(monkeypatch):
    # only {S_1, S_0} carries the NaN, so most monomial coefficients stay finite
    _scaled_quadric(monkeypatch, (2, 3), math.nan)
    p = ClassicalRParams(rho=1.0, k=0.5)
    assert math.isnan(classical_sklyanin_bracket_residual(p, 0.9, 0.4))


# --- batched residuals -------------------------------------------------------

def test_qybe_per_sample_vector_matches_kron_embedding():
    p = QuantumRParams(eta=0.3, k=0.5)
    u, v = np.array(sweep_samples(np.random.default_rng(78), p.k, 5)).T
    got = qybe_residual(u, v, p)
    assert got.shape == (5,)
    for i in range(5):
        r12 = np.kron(quantum_R(u[i] - v[i], p), np.eye(2))
        r13 = _kron_reference(quantum_R(u[i], p), (0, 2))
        r23 = np.kron(np.eye(2), quantum_R(v[i], p))
        want = sup_norm(r12 @ r13 @ r23 - r23 @ r13 @ r12)
        assert abs(got[i] - want) <= 1e-13


@pytest.mark.parametrize("kind", ["cybe", "qybe", "rll"])
def test_batched_residuals_equal_scalar_calls_across_blocks(kind):
    # more samples than one block, so the second block starts mid-sweep
    n = sklyanin_module._BLOCK + 7
    if kind == "cybe":
        p = ClassicalRParams(rho=1.0, k=0.5)
        residual = lambda u, v: cybe_residual(u, v, p)
    elif kind == "qybe":
        p = QuantumRParams(eta=0.3, k=0.5)
        residual = lambda u, v: qybe_residual(u, v, p)
    else:
        p = QuantumRParams(eta=0.2, k=0.3)
        residual = lambda u, v: rll_residual(u, v, rep3(1.0, 2.0, 3.0), p)
    u, v = np.array(sweep_samples(np.random.default_rng(79), p.k, n)).T
    got = residual(u, v)
    assert got.shape == (n,)
    for i in (0, 1, n - 8, n - 7, n - 1):
        want = residual(float(u[i]), float(v[i]))
        assert isinstance(want, float)
        assert abs(got[i] - want) <= 1e-14 * max(1.0, want)


def test_batched_pole_error_names_the_global_sample():
    p = ClassicalRParams(rho=1.0, k=0.5)
    K = sklyanin_module.quarter_period(p.k)
    n = sklyanin_module._BLOCK + 30
    u, v = np.array(sweep_samples(np.random.default_rng(80), p.k, n)).T
    u[150] = 2.0 * K
    with pytest.raises(EllipticPoleError, match=r"\(index 150\)") as err:
        cybe_residual(u, v, p)
    assert err.value.index == 150


@pytest.mark.parametrize("kind", ["cybe", "qybe", "rll"])
@pytest.mark.parametrize("leg", ["u - v", "v"])
def test_stacked_legs_pole_error_names_the_sample_and_leg(kind, leg):
    # one weight call on (u - v, u, v) stacked raises what a call on the
    # failing leg alone raises: its argument, pole, sample and condition
    if kind == "cybe":
        p, weights = ClassicalRParams(rho=1.0, k=0.5), classical_w
        residual = lambda u, v: cybe_residual(u, v, p)
    else:  # a vanishing shift puts a zero of sn(u + i eta) on the real lattice
        p, weights = QuantumRParams(eta=1e-13, k=0.5), quantum_W
        residual = (lambda u, v: qybe_residual(u, v, p)) if kind == "qybe" else (
            lambda u, v: rll_residual(u, v, rep2(), p))
    K = sklyanin_module.quarter_period(p.k)
    n = sklyanin_module._BLOCK + 30
    u, v = np.array(sweep_samples(np.random.default_rng(81), p.k, n)).T
    v[140] = 2.0 * K if leg == "v" else u[140] - 2.0 * K
    with pytest.raises(EllipticPoleError) as alone:
        weights(v if leg == "v" else u - v, p)
    assert alone.value.index == 140
    with pytest.raises(EllipticPoleError) as err:
        residual(u, v)
    assert str(err.value) == str(alone.value)
    assert (err.value.z, err.value.pole, err.value.index) == (
        alone.value.z, alone.value.pole, 140)
    with pytest.raises(EllipticPoleError) as scalar:
        residual(float(u[140]), float(v[140]))
    assert scalar.value.index is None
    assert "(index" not in str(scalar.value)


def test_embed_pair_stack_names_the_first_non_finite_operator():
    stack = np.repeat(np.eye(4, dtype=complex)[None], 6, axis=0)
    stack[4, 2, 1] = np.inf
    stack[5, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"\(operator 4\)"):
        _embed_pair(stack, (0, 2))
    assert _embed_pair(stack[:4], (1, 2)).shape == (4, 8, 8)


# --- the leg basis embedded once ----------------------------------------------

def test_leg_basis_is_the_kron_placement_of_each_sigma_pair():
    assert sorted(sklyanin_module._LEG_BASIS) == [(0, 1), (0, 2), (1, 2)]
    for legs, basis in sklyanin_module._LEG_BASIS.items():
        assert basis.shape == (3, 64)
        for a in (1, 2, 3):
            want = _kron_reference(sklyanin_module.SIGMA_PAIR[a], legs)
            assert np.array_equal(basis[a - 1].reshape(8, 8), want), (legs, a)


@pytest.mark.parametrize("kind", ["qybe", "cybe"])
def test_leg_basis_stacks_equal_embedded_matrices_across_blocks(kind, monkeypatch):
    # three blocks, the last one partial: every stack the residual builds
    # is the embedding of quantum_R (classical_r) at u - v, u or v, and
    # every residual is the sup norm of the products of those embeddings
    n, block = 300, sklyanin_module._BLOCK
    assert 2 * block < n <= 3 * block
    if kind == "qybe":
        p, matrix = QuantumRParams(eta=0.3, k=0.5), quantum_R
        residual = qybe_residual

        def defect(r12, r13, r23):
            return r12 @ r13 @ r23 - r23 @ r13 @ r12
    else:
        p, matrix = ClassicalRParams(rho=1.0, k=0.5), classical_r
        residual = cybe_residual

        def defect(r12, r13, r23):
            return (r12 @ r13 - r13 @ r12) + (r12 @ r23 - r23 @ r12) + (r13 @ r23 - r23 @ r13)
    u, v = np.array(sweep_samples(np.random.default_rng(82), p.k, n)).T
    built = {legs: [] for legs in sklyanin_module._LEG_BASIS}
    real = sklyanin_module._leg_stack

    def recording(w, legs, one=False):
        out = real(w, legs, one)
        built[legs].append(out)
        return out

    monkeypatch.setattr(sklyanin_module, "_leg_stack", recording)
    got = residual(u, v, p)
    want = {legs: _embed_pair(matrix(x, p), legs)
            for legs, x in (((0, 1), u - v), ((0, 2), u), ((1, 2), v))}
    for legs, blocks in built.items():
        assert [len(b) for b in blocks] == [block, block, n - 2 * block]
        assert np.array_equal(np.concatenate(blocks), want[legs]), legs
    ref = [np.abs(defect(*(want[legs][i] for legs in ((0, 1), (0, 2), (1, 2))))).max()
           for i in range(n)]
    assert np.array_equal(got, ref)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["qybe", "cybe"])
def test_leg_basis_stack_names_the_first_non_finite_operator(kind, monkeypatch):
    # an inf weight at sample 5 of the u - v leg stack: the r12 stack
    # holds inf and NaN at operator 5, and the guard names it
    name = "quantum_W" if kind == "qybe" else "classical_w"
    real = getattr(sklyanin_module, name)

    def inf_at_sample_5(x, p):
        W = [np.array(w) for w in real(x, p)]
        W[0][0, 5] = np.inf
        return tuple(W)

    monkeypatch.setattr(sklyanin_module, name, inf_at_sample_5)
    if kind == "qybe":
        p, residual = QuantumRParams(eta=0.3, k=0.5), qybe_residual
    else:
        p, residual = ClassicalRParams(rho=1.0, k=0.5), cybe_residual
    u, v = np.array(sweep_samples(np.random.default_rng(83), p.k, 20)).T
    with pytest.raises(ValueError, match=r"^matrix entries must be finite \(operator 5\)$"):
        residual(u, v, p)


def _worst_dump_sweep_residual(tmp_path) -> float:
    out = tmp_path / "sweep.json"
    assert cli.main(["dump", "sweep", "--samples", "50", "--out", str(out)]) == 0
    return max(rec["residual"] for rec in json.loads(out.read_text()))


@pytest.mark.parametrize("mutant", ["r13_on_legs_01", "W1_scaled"])
def test_dump_sweep_detects_leg_basis_and_weight_mutants(mutant, monkeypatch, tmp_path):
    # the pre-embedded path is not true by construction: r13 looked up on
    # the wrong leg pair, or one weight off in its 4th digit, breaks the QYBE
    assert _worst_dump_sweep_residual(tmp_path) < 1e-9
    if mutant == "r13_on_legs_01":
        basis = sklyanin_module._LEG_BASIS
        monkeypatch.setitem(basis, (0, 2), basis[(0, 1)])
    else:
        real = sklyanin_module.quantum_W

        def scaled(x, p):
            W = real(x, p)
            return (1.001 * W[0],) + tuple(W[1:])

        monkeypatch.setattr(sklyanin_module, "quantum_W", scaled)
    assert _worst_dump_sweep_residual(tmp_path) > 1e-9


@pytest.mark.parametrize("order", [((0, 1), (1, 2), (0, 2)), ((0, 2), (1, 2), (0, 1))])
def test_permuted_leg_bases_are_equivalent_mutants(order, monkeypatch, tmp_path):
    # R(u) commutes with the swap of its two legs, so relabelling the
    # three legs maps R12 R13 R23 - R23 R13 R12 to itself up to a
    # permutation similarity, which keeps its sup norm: a permutation of
    # the leg bases (here the (0,2)/(1,2) swap and a cyclic shift) cannot
    # be caught by the QYBE residual, and a mutant catalogue must not count it
    basis = dict(sklyanin_module._LEG_BASIS)
    for legs, source in zip(((0, 1), (0, 2), (1, 2)), order):
        monkeypatch.setitem(sklyanin_module._LEG_BASIS, legs, basis[source])
    assert _worst_dump_sweep_residual(tmp_path) < 1e-9
