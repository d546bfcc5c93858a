"""Acceptance gate: one test per criterion, each at its stated tolerance
and runtime budget, printing a single pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import math
import time

import numpy as np

from symmetria import fullerene, hopf, laplace, liealg, sklyanin, spacetime
from symmetria.cli import main as cli_main
from symmetria.numerics import fd_laplacian, sup_norm, worst_of
from symmetria.suites import suite_rng


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name} [{elapsed:.2f}s / {budget:.0f}s]{extra}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_lie_algebra_exactness():
    t0 = time.perf_counter()
    ok = True
    for build in (liealg.galilei_structure, liealg.poincare_structure):
        s = build()
        ok &= s.dimension() == 10
        bad_pairs, bad_triples = liealg.check_structure(s)
        ok &= not bad_pairs and not bad_triples
    report("lie_algebra_exactness", ok, time.perf_counter() - t0, 1.0,
           "antisymmetry and Jacobi defects exactly zero, 10 generators each")


def test_criterion_2_group_action_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gal = 0.0
    worst_poi = 0.0
    worst_int = 0.0
    for _ in range(100):
        g1 = spacetime.GalileiElement(
            R=spacetime.rotation_about(rng.normal(size=3), rng.uniform(0, 6)),
            v=rng.normal(size=3), xi=rng.normal(size=3), tau=float(rng.normal()))
        g2 = spacetime.GalileiElement(
            R=spacetime.rotation_about(rng.normal(size=3), rng.uniform(0, 6)),
            v=rng.normal(size=3), xi=rng.normal(size=3), tau=float(rng.normal()))
        g21 = spacetime.galilei_compose(g2, g1)

        def rand_poincare():
            v = rng.uniform(-1, 1, 3)
            v *= rng.uniform(0.0, 0.9) / max(1.0, float(np.linalg.norm(v)))
            return spacetime.PoincareElement(
                a=rng.normal(size=3), b=float(rng.normal()), v=v,
                R=spacetime.rotation_about(rng.normal(size=3), rng.uniform(0, 6)))

        T1, T2 = rand_poincare(), rand_poincare()
        T21 = spacetime.poincare_compose(T2, T1)
        # 20 event pairs, columns (pt, qt)
        pairs = rng.normal(size=(20, 8))
        pt, qt = pairs[:, :4], pairs[:, 4:]
        apply = spacetime.apply_events
        worst_gal = worst_of(worst_gal, np.abs(apply(g21, pt) - apply(g2, apply(g1, pt))))
        worst_poi = worst_of(worst_poi, np.abs(apply(T21, pt) - apply(T2, apply(T1, pt))))
        worst_int = worst_of(worst_int, np.abs(
            spacetime.minkowski_interval(apply(T1, pt) - apply(T1, qt))
            - spacetime.minkowski_interval(pt - qt)))
    ok = worst_gal < 1e-10 and worst_poi < 1e-10 and worst_int < 1e-10
    report("group_action_equivalence", ok, time.perf_counter() - t0, 2.0,
           f"galilei={worst_gal:.2e} poincare={worst_poi:.2e} interval={worst_int:.2e}")


def test_criterion_3_conformal_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    omega, res = spacetime.conformal_pullback_check(spacetime.Dilation(2.0),
                                                    rng.normal(size=(3, 4)).T)
    worst_dil = max(np.max(np.abs(omega * omega - 0.25)), np.max(res))
    x = np.array([[2.0, 0, 0, 0], [0.0, 1.5, 0, 0], [0.5, 2.0, -1.0, 0.3]])
    omega, res = spacetime.conformal_pullback_check(spacetime.Inversion(), x.T)
    worst_inv = max(np.max(np.abs(np.abs(omega) - 1.0 / np.abs(spacetime.minkowski_interval(x)))),
                    np.max(res))
    x0 = [0.0, 2.0, 0.0, 0.0]
    r_const = spacetime.conformal_flatness_check("constant", x0)
    r_inv = spacetime.conformal_flatness_check("inverse_interval", x0)
    r_ctrl = spacetime.conformal_flatness_check("exp_x1", x0)
    ok = (worst_dil < 1e-8 and worst_inv < 1e-6
          and r_const < 1e-4 and r_inv < 1e-4 and r_ctrl > 1e-2)
    report("conformal_checks", ok, time.perf_counter() - t0, 5.0,
           f"dilation={worst_dil:.2e} inversion={worst_inv:.2e} "
           f"riemann=({r_const:.2e},{r_inv:.2e}) control={r_ctrl:.2e}")


def test_criterion_4_laplace_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_harm = 0.0
    for n in (2, 3, 4):
        f = laplace.fundamental_solution(n, np.zeros(n))
        for _ in range(10):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
            worst_harm = max(worst_harm, abs(fd_laplacian(f, x[:, None])[0]))
    worst_flux = max(abs(laplace.flux_through_sphere(n, r) - 1.0)
                     for n in (2, 3, 4) for r in (1.0, 5.0))
    worst_kelvin = 0.0
    for u in (lambda y: 1.0, lambda y: y[0], lambda y: y[0] * y[1]):
        v = laplace.kelvin_invert(u, 3)
        for _ in range(5):
            x = rng.normal(size=3)
            x *= rng.uniform(1.2, 3.0) / np.linalg.norm(x)
            worst_kelvin = max(worst_kelvin, abs(fd_laplacian(v, x[:, None])[0]))
    worst_prop = 0.0
    for (n, h) in ((1, 0), (2, 0), (2, 1), (3, 2)):
        pts = []
        while len(pts) < 8:
            cand = rng.normal(size=3) * 1.5
            if abs(laplace.solid_harmonic(n, h, cand)) > 1e-2:
                pts.append(cand)
        _, spread = laplace.calibrate_proportionality(n, h, pts)
        worst_prop = max(worst_prop, spread)
    f2 = lambda x: np.sin(x[0]) * np.exp(0.4 * x[1])
    u2 = lambda r, phi: f2(np.array([r * np.cos(phi), r * np.sin(phi)]))
    polar_gap = abs(laplace.polar_laplacian("polar2d", u2, (1.1, 0.7))
                    - fd_laplacian(f2, np.array([[1.1 * math.cos(0.7)], [1.1 * math.sin(0.7)]]))[0])
    ok = (worst_harm < 1e-5 and worst_flux < 1e-8 and worst_kelvin < 1e-5
          and worst_prop < 1e-8 and polar_gap < 1e-4)
    report("laplace_suite", ok, time.perf_counter() - t0, 5.0,
           f"harmonic={worst_harm:.2e} flux={worst_flux:.2e} kelvin={worst_kelvin:.2e} "
           f"proportionality={worst_prop:.2e} polar={polar_gap:.2e}")


def test_criterion_5_fullerene_suite():
    t0 = time.perf_counter()
    g = fullerene.build_truncated_icosahedron()
    census = fullerene.face_census(g)
    ok = census == {"V": 60, "E": 90, "F": 32, "pentagons": 12, "hexagons": 20}
    ok &= fullerene.euler_check(g) == 2
    ok &= set(g.degree_sequence()) == {3}
    ok &= fullerene.isolated_pentagon_check(g)[0]
    bonds = fullerene.kekule(g)
    doubles = {e for e, kind in bonds.items() if kind == "double"}
    ok &= len(doubles) == 30 and doubles == set(fullerene.hex_hex_edges(g))
    order = fullerene.automorphism_order(g)
    ok &= order == 120
    report("fullerene_suite", ok, time.perf_counter() - t0, 10.0,
           f"census={census} automorphisms={order}")


def test_criterion_6_hopf_suite():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_coass = 0.0
    worst_axiom = 0.0
    for j in (0.5, 1.0, 1.5):
        for q in (0.7, 1.3, 2.0):
            rep = hopf.uq_su2_rep(j, q)
            worst_rel = max(worst_rel, hopf.relations_residual(rep))
            square = hopf.coproduct_rep(rep)
            worst_rel = max(worst_rel, hopf.relations_residual(square))
            worst_coass = max(worst_coass, hopf.coassociativity_residual(rep, square))
            worst_axiom = max(worst_axiom, max(hopf.counit_antipode_residuals(rep).values()))
    cplus, cminus = hopf.antipode_convention_solve(1.3)
    convention_ok = abs(cplus + 1.3) < 1e-12 and abs(cminus + 1 / 1.3) < 1e-12
    qs = [1 + 10.0 ** (-e) for e in (2, 3, 4, 5)]
    classical = hopf.uq_su2_rep(0.5, 1 + 1e-12)
    one = np.eye(2, dtype=complex)
    additive = np.kron(classical.Xp, one) + np.kron(one, classical.Xp)
    errs = [sup_norm(hopf.coproduct_rep(hopf.uq_su2_rep(0.5, q)).Xp - additive) for q in qs]
    slope = float(np.polyfit(np.log([q - 1 for q in qs]), np.log(errs), 1)[0])
    ops = hopf.planck_scale_ops(256, 5.0, 1.0, 2.0)
    planck_comm = hopf.planck_commutator_residual(ops)
    planck_cop = hopf.planck_coproduct_residual(ops)
    ok = (worst_rel < 1e-11 and worst_coass < 1e-10 and worst_axiom < 1e-11
          and convention_ok and abs(slope - 1.0) <= 0.2
          and planck_comm < 1e-5 and planck_cop < 1e-5)
    report("hopf_suite", ok, time.perf_counter() - t0, 10.0,
           f"relations={worst_rel:.2e} coassoc={worst_coass:.2e} axioms={worst_axiom:.2e} "
           f"slope={slope:.3f} planck=({planck_comm:.2e},{planck_cop:.2e})")


def test_criterion_7_sklyanin_suite():
    t0 = time.perf_counter()
    rng = suite_rng(42, "acceptance-sklyanin")
    p_cl = sklyanin.ClassicalRParams(rho=1.0, k=0.5)
    p_q = sklyanin.QuantumRParams(eta=0.3, k=0.5)

    J = sklyanin.classical_quadric(p_cl)
    worst_quadric = 0.0
    for u, _ in sklyanin.sweep_samples(rng, p_cl.k, 20):
        w = sklyanin.classical_w(u, p_cl)
        worst_quadric = max(worst_quadric, max(abs(w[a - 1] ** 2 - w[b - 1] ** 2 - val)
                                               for (a, b), val in J.items()))
    ref = sklyanin.quantum_curve(p_q, u_ref=0.7)
    worst_curve = 0.0
    for u, _ in sklyanin.sweep_samples(rng, p_q.k, 20):
        cur = sklyanin.quantum_curve(p_q, u_ref=u)
        worst_curve = max(worst_curve, max(abs(cur[key] - ref[key]) for key in ref))

    worst_cybe = max(sklyanin.cybe_residual(u, v, p_cl)
                     for u, v in sklyanin.sweep_samples(rng, p_cl.k, 100))
    worst_qybe = max(sklyanin.qybe_residual(u, v, p_q)
                     for u, v in sklyanin.sweep_samples(rng, p_q.k, 100))

    r2 = sklyanin.rep2()
    worst_rll = 0.0
    for eta in (0.2, 0.3):
        for k in (0.0, 0.3, 0.5):
            pq = sklyanin.QuantumRParams(eta=eta, k=k)
            worst_rll = max(worst_rll, max(sklyanin.rll_residual(u, v, r2, pq)
                                           for u, v in sklyanin.sweep_samples(rng, k, 5)))

    rel2 = sklyanin.sklyanin_residual(r2)
    worst_rel3 = max(sklyanin.sklyanin_residual(sklyanin.rep3(*rng.uniform(0.5, 3.0, 3)))
                     for _ in range(3))

    jacobi_ok = True
    done = 0
    while done < 20:
        a = tuple(int(z) for z in rng.integers(-5, 6, 4))
        b = tuple(int(z) for z in rng.integers(-5, 6, 4))
        if a == b:
            continue
        C = sklyanin.poisson_tensor(a, b)
        if sklyanin.poisson_jacobi_defect(C).any():
            jacobi_ok = False
        done += 1
    special = sklyanin.poisson_tensor((1, 2, 5, 9), (0, 1, 1, 1))
    # {x_k, x_l} = sum_{i<j} special[k, l, i, j] x_i x_j
    term_ok = (special[1, 2, 0, 3] == 1 and special[2, 3, 0, 1] == 1
               and special[3, 1, 0, 2] == 1
               and special[1, 0, 2, 3] == 9 - 5 and special[2, 0, 1, 3] == 2 - 9
               and special[3, 0, 1, 2] == 5 - 2
               and np.count_nonzero(special) == 12
               and not (special + special.swapaxes(0, 1)).any())

    probe = sklyanin.classical_limit_probe(0.8, p_cl, [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)])
    slopes_ok = (probe["e1_slope"] >= 1.9 and probe["e2_slope"] >= 1.9
                 and probe["e3_slope"] >= 3.8)

    ok = (worst_quadric < 1e-10 and worst_curve < 1e-9 and worst_cybe < 1e-9
          and worst_qybe < 1e-9 and worst_rll < 1e-9 and rel2 == 0.0
          and worst_rel3 < 1e-12 and jacobi_ok and term_ok and slopes_ok)
    report("sklyanin_suite", ok, time.perf_counter() - t0, 30.0,
           f"quadric={worst_quadric:.2e} curve={worst_curve:.2e} cybe={worst_cybe:.2e} "
           f"qybe={worst_qybe:.2e} rll={worst_rll:.2e} rep2={rel2:g} rep3={worst_rel3:.2e} "
           f"slopes=({probe['e1_slope']:.2f},{probe['e2_slope']:.2f},{probe['e3_slope']:.2f})")


def test_criterion_8_mutation_sensitivity():
    t0 = time.perf_counter()

    # perturbed classical r-matrix
    p = sklyanin.ClassicalRParams(rho=1.0, k=0.5)
    u, v = 1.1, 0.4
    w = sklyanin.classical_w(u - v, p)
    mutated = sum(wv * np.kron(sklyanin.SIGMA[a], sklyanin.SIGMA[a])
                  for a, wv in enumerate((w[0] * 1.01, w[1], w[2]), start=1))
    r12 = sklyanin._on_legs(mutated, (0, 1), (2, 2, 2))
    r13 = sklyanin._on_legs(sklyanin.classical_r(u, p), (0, 2), (2, 2, 2))
    r23 = sklyanin._on_legs(sklyanin.classical_r(v, p), (1, 2), (2, 2, 2))
    res_r = sup_norm((r12 @ r13 - r13 @ r12) + (r12 @ r23 - r23 @ r12)
                     + (r13 @ r23 - r23 @ r13))

    # flipped S3 in the three-dimensional representation
    r3 = sklyanin.rep3(1.0, 2.0, 3.0)
    flipped = sklyanin.SklyaninRep(dim=3, S=(r3.S[0], r3.S[1], r3.S[2], -r3.S[3]), J=r3.J)
    res_s = sklyanin.sklyanin_residual(flipped)

    # merged pentagons
    g = fullerene.build_truncated_icosahedron()
    faces = [list(f) for f in g.faces]
    pent = [i for i, f in enumerate(faces) if len(f) == 5]
    faces[pent[0]] = list(faces[pent[1]])
    bad_graph = fullerene.PolyhedralGraph(vertices=g.vertices, edges=g.edges, faces=faces)
    merged_detected = not fullerene.isolated_pentagon_check(bad_graph)[0]

    # injected bad structure constant
    s = liealg.poincare_structure()
    bad = s.constants.copy()
    j1, j2, j3 = map(s.basis_labels.index, ("J1", "J2", "J3"))
    bad[j2, j3, j1], bad[j3, j2, j1] = -1, 1
    _, bad_triples = liealg.check_structure(liealg.LieStructure("mutated", s.basis_labels, bad))
    jacobi_detected = bool(bad_triples)

    ok = res_r > 1e-3 and res_s > 1e-3 and merged_detected and jacobi_detected
    report("mutation_sensitivity", ok, time.perf_counter() - t0, 5.0,
           f"r_matrix={res_r:.2e} flipped_S3={res_s:.2e} "
           f"pentagons={merged_detected} structure_constant={jacobi_detected}")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["verify", "all", "--seed", "11", "--samples", "25",
                      "--format", "json", "--out", str(out1)])
    code2 = cli_main(["verify", "all", "--seed", "11", "--samples", "25",
                      "--format", "json", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    code_fail = cli_main(["verify", "sklyanin", "--tol", "1e-15", "--samples", "10",
                          "--out", str(tmp_path / "fail.txt")])
    code_usage = cli_main(["verify", "not-a-suite"])
    ok = (code1 == 0 and code2 == 0 and identical
          and code_fail == 1 and code_usage == 2)
    report("cli_determinism", ok, time.perf_counter() - t0, 60.0,
           f"identical={identical} exit_codes=({code1},{code_fail},{code_usage})")
