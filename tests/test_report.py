"""The check recorder (``CheckReport.check``), the NaN-sticky fold behind
it, per-row timing, and the row contract of the full report."""

import json
import math
import time

import pytest

import numpy as np

from symmetria import hopf, laplace, liealg, spacetime, suites
from symmetria.cli import main as cli_main
from symmetria.numerics import worst_of
from symmetria.report import CheckReport, Row, render_text

NAN = math.nan

# (suite, name, status, tolerance, samples) of every row of
# `verify all --seed 42 --samples 20 --format json`, in report order.
ROW_CONTRACT = {
    "rotations": [
        ("identity_is_proper", "pass", None, 1),
        ("product_of_rotations_is_rotation", "pass", 1e-09, 20),
        ("reflection_is_improper", "pass", None, 1),
        ("shear_rejected", "pass", None, 1),
    ],
    "galilei": [
        ("compose_matches_sequential_action", "pass", 1e-09, 20),
        ("composition_associative", "pass", 1e-10, 11),
        ("galilei_antisymmetry", "pass", 0.0, 1),
        ("galilei_generator_count", "pass", 0.0, 1),
        ("galilei_jacobi", "pass", 0.0, 1),
        ("galilei_realization", "pass", 0.0, 1),
        ("inverse_roundtrip", "pass", 1e-12, 11),
        ("mutation_control_bad_structure_constant", "pass", None, 1),
        ("simultaneous_distances_preserved", "pass", 1e-12, 11),
    ],
    "poincare": [
        ("boost_action_reference_value", "pass", 1e-12, 1),
        ("colinear_velocity_addition", "pass", 1e-12, 1),
        ("compose_matches_sequential_action", "pass", 1e-09, 20),
        ("composition_associative", "pass", 1e-10, 10),
        ("discrete_inversions_involutive", "pass", 0.0, 1),
        ("interval_preserved", "pass", 1e-09, 20),
        ("poincare_antisymmetry", "pass", 0.0, 1),
        ("poincare_generator_count", "pass", 0.0, 1),
        ("poincare_jacobi", "pass", 0.0, 1),
        ("poincare_realization", "pass", 0.0, 1),
    ],
    "conformal": [
        ("dilation_identity", "pass", 1e-08, 1),
        ("dilation_pullback_factor", "pass", 1e-08, 5),
        ("flatness_constant_rescaling", "pass", 0.0001, 1),
        ("flatness_inverse_interval_rescaling", "pass", 0.0001, 1),
        ("inversion_pullback_factor", "pass", 1e-06, 3),
        ("massless_field_stays_solution", "pass", 1e-06, 1),
        ("mutation_control_nonflat_rescaling", "pass", None, 1),
        ("wave_operator_dilation_scaling", "pass", 1e-06, 9),
    ],
    "laplace": [
        ("azimuthal_equivariance", "pass", 1e-08, 2),
        ("exterior_family_regularity", "pass", 1e-12, 1),
        ("fundamental_solution_harmonic", "pass", 1e-05, 15),
        ("homogeneity_degree_n", "pass", 1e-08, 2),
        ("integral_representation_harmonic", "pass", 1e-05, 12),
        ("integral_representation_proportionality", "pass", 1e-08, 32),
        ("kelvin_transform_involutive", "pass", 1e-10, 10),
        ("kelvin_transform_preserves_harmonicity", "pass", 1e-05, 15),
        ("polar_cartesian_agreement", "pass", 0.0001, 2),
        ("symbol_rotation_invariant", "pass", 1e-12, 50),
        ("unit_flux_normalization", "pass", 1e-08, 6),
    ],
    "fullerene": [
        ("automorphism_order", "pass", 0.0, 1),
        ("edge_partition", "pass", 0.0, 1),
        ("euler_characteristic", "pass", 0.0, 1),
        ("face_census", "pass", 0.0, 1),
        ("isolated_pentagons", "pass", None, 1),
        ("kekule_assignment", "pass", 0.0, 1),
        ("mutation_control_deleted_face", "pass", None, 1),
        ("mutation_control_merged_pentagons", "pass", None, 1),
        ("three_regular", "pass", None, 1),
        ("vertex_transitive_embedding", "pass", 1e-09, 60),
    ],
    "hopf": [
        ("coassociativity", "pass", 1e-10, 9),
        ("coproduct_classical_limit", "pass", 0.2, 4),
        ("coproduct_is_homomorphism", "pass", 1e-10, 9),
        ("counit_antipode_axioms", "pass", 1e-11, 6),
        ("deformed_coproduct_homomorphism", "pass", 1e-05, 1),
        ("deformed_su2_relations", "pass", 1e-11, 9),
        ("position_momentum_deformed_commutator", "pass", 1e-05, 1),
    ],
    "sklyanin": [
        ("classical_bracket_exchange_identity", "pass", 1e-08, 6),
        ("classical_limit_orders", "pass", None, 5),
        ("classical_quadric_constancy", "pass", 1e-10, 20),
        ("classical_yang_baxter", "pass", 1e-09, 20),
        ("exchange_relation_pauli", "pass", 1e-09, 30),
        ("exchange_relation_threedim_exploratory", "skipped", None, 1),
        ("index_convention_discrimination", "pass", None, 1),
        ("mutation_control_flipped_generator", "pass", None, 1),
        ("mutation_control_perturbed_weight", "pass", None, 1),
        ("quadratic_relations_pauli", "pass", 0.0, 1),
        ("quadratic_relations_threedim", "pass", 1e-12, 3),
        ("quantum_curve_constancy", "pass", 1e-09, 20),
        ("quantum_yang_baxter", "pass", 1e-09, 40),
        ("threedim_self_adjoint", "pass", 1e-12, 3),
        ("volume_contraction_poisson_tensor", "pass", 0.0, 20),
    ],
}

# Rows fed by a block whose time is recorded on another row: the siblings of
# one sweep loop or of one structure-table check.
ROWS_WITHOUT_OWN_SPAN = {
    ("galilei", "galilei_jacobi"),
    ("poincare", "poincare_jacobi"),
    ("poincare", "interval_preserved"),
    ("laplace", "azimuthal_equivariance"),
    ("hopf", "coproduct_is_homomorphism"),
    ("hopf", "coassociativity"),
    ("hopf", "deformed_coproduct_homomorphism"),
    ("sklyanin", "threedim_self_adjoint"),
}


def test_worst_of_is_nan_sticky():
    assert worst_of(0.0, 3.0, 2.0) == 3.0
    assert worst_of(-1.0) == -1.0
    assert worst_of(1, 2) == 2.0 and isinstance(worst_of(1, 2), float)
    for values in ((NAN, 1.0, 2.0), (1.0, NAN, 2.0), (1.0, 2.0, NAN)):
        assert math.isnan(worst_of(*values))
    assert worst_of(1.0, math.inf) == math.inf


def test_worst_of_folds_arrays_nan_sticky():
    residuals = np.array([1e-12, 3e-12, 2e-12, NAN])
    assert math.isnan(worst_of(residuals))
    assert math.isnan(worst_of(0.5, residuals, 4.0))
    assert worst_of(residuals[:3]) == 3e-12 and isinstance(worst_of(residuals[:3]), float)
    assert worst_of(1.0, np.zeros((2, 3)), np.array([0.5, math.inf])) == math.inf
    assert worst_of(2.0, np.array([])) == 2.0
    rep = CheckReport("unit")
    with rep.check("row", "ref", tol=1e-9, samples=4) as c:
        c.observe(residuals)
        c.observe(1e-15)
    (check,) = rep.checks
    assert math.isnan(check.residual) and check.status == "fail"


# Each sample observes two residuals; the NaN is never the first value of the
# whole fold, so a builtin-max fold would drop it.
@pytest.mark.parametrize("samples", [
    [(1e-12, NAN), (2e-12, 0.0), (3e-12, 0.0)],
    [(1e-12, 0.0), (NAN, 2e-12), (3e-12, 0.0)],
    [(1e-12, 0.0), (2e-12, 0.0), (3e-12, NAN)],
], ids=["first", "middle", "last"])
def test_nan_sample_fails_residual_row(samples):
    rep = CheckReport("unit")
    with rep.check("row", "ref", tol=1e-9, samples=len(samples)) as c:
        for pair in samples:
            c.observe(*pair)
    (check,) = rep.checks
    assert math.isnan(check.residual)
    assert check.status == "fail"


def test_nan_sample_fails_detection_row():
    rep = CheckReport("unit")
    with rep.check("control", "ref", detect=1e-3) as c:
        c.observe(2.0)
        c.observe(NAN)
    (check,) = rep.checks
    assert math.isnan(check.residual)
    assert check.status == "fail"
    assert check.tolerance is None
    assert check.detail == "mutation must push the residual above 0.001"


def test_recorder_verdicts():
    rep = CheckReport("unit")
    with rep.check("within", "ref", tol=1e-9, samples=2) as c:
        c.observe(1e-12)
        c.observe(5e-10, 2e-10)
    with rep.check("above", "ref", tol=1e-9) as c:
        c.observe(1e-6)
    with rep.check("condition", "ref") as c:
        c.require(True)
        c.require(False)
    with rep.check("detected", "ref", detect=1e-3, detail="custom") as c:
        c.observe(0.5)
    with rep.check("informative", "ref", skipped=True) as c:
        c.observe(7.0)
    got = {ch.name: (ch.status, ch.residual, ch.samples, ch.detail) for ch in rep.checks}
    assert got == {
        "within": ("pass", 5e-10, 2, ""),
        "above": ("fail", 1e-6, 1, ""),
        "condition": ("fail", None, 1, ""),
        "detected": ("pass", 0.5, 1, "custom"),
        "informative": ("skipped", 7.0, 1, ""),
    }


def test_failed_condition_with_small_residual_records_fail():
    rep = CheckReport("unit")
    with rep.check("c", "r", tol=1e-9) as c:
        c.observe(1e-15)
        c.require(False)
    (check,) = rep.checks
    assert (check.status, check.residual) == ("fail", 1e-15)


def test_consistency_rule_rejects_only_a_pass_outside_tolerance():
    # the status is settled from the residual, so no row passes outside tol
    rep = CheckReport("unit")
    for residual in (1e-15, 1.0, NAN):
        with rep.check("c", "r", tol=1e-9) as c:
            c.observe(residual)
    assert [row.status for row in rep.checks] == ["pass", "fail", "fail"]


def test_improper_product_fails_rotation_row(monkeypatch):
    real = spacetime.classify_rotation
    calls = []

    def improper_once(m, *args):
        # calls 1 and 2 are the identity and reflection rows; 3 is the
        # closure sweep's whole product stack, whose first product is
        # reported improper
        calls.append(m)
        kind = real(m, *args)
        if len(calls) == 3:
            kind = kind.copy()
            kind[0] = "improper"
        return kind

    monkeypatch.setattr(spacetime, "classify_rotation", improper_once)
    report = suites.run_rotations(suites.suite_rng(42, "rotations"), 1e-9, 20)
    status = {c.name: c.status for c in report.checks}
    assert status == {"identity_is_proper": "pass", "reflection_is_improper": "pass",
                      "product_of_rotations_is_rotation": "fail", "shear_rejected": "pass"}
    (row,) = [c for c in report.checks if c.name == "product_of_rotations_is_rotation"]
    assert row.residual <= row.tolerance


def test_block_that_raises_records_nothing():
    # a TypeError is a programming error, not a failed identity
    rep = CheckReport("unit")
    with pytest.raises(TypeError):
        with rep.check("row", "ref", tol=1.0) as c:
            c.observe(None + 1.0)
    assert rep.checks == []


@pytest.mark.parametrize("error", [AttributeError("a"), KeyError("k")])
def test_other_programming_errors_propagate(error):
    rep = CheckReport("unit")
    with pytest.raises(type(error)):
        with rep.check("row", "ref", tol=1.0):
            raise error
    assert rep.checks == []


def test_block_that_raises_an_arithmetic_error_records_a_fail_row():
    rep = CheckReport("unit")
    with rep.check("row", "ref", tol=1.0) as c:
        sibling = c.sibling("sibling", "ref", detect=1e-3)
        c.observe(0.5)
        c.observe(1.0 / 0.0)
    with rep.check("next", "ref", tol=1.0) as c:
        c.observe(0.25)
    row, sib, nxt = rep.checks
    assert (row.status, sib.status, nxt.status) == ("fail", "fail", "pass")
    assert row.detail == sib.detail == "ZeroDivisionError: float division by zero"
    assert row.residual == 0.5 and sib.residual is None
    assert row.elapsed_ms is not None and sib.elapsed_ms is None


def test_raising_compose_fails_its_rows_and_the_run_goes_on(monkeypatch, tmp_path, capsys):
    real = spacetime.poincare_compose
    calls = []

    def raise_on_sweep(T2, T1):
        # call 1 is the velocity-addition row; call 2 composes the compose
        # sweep's whole stack of pairs; the associativity row comes after
        calls.append(1)
        if len(calls) == 2:
            raise spacetime.CompositionError("composed boost leaves the light cone")
        return real(T2, T1)

    monkeypatch.setattr(spacetime, "poincare_compose", raise_on_sweep)
    out = tmp_path / "report.json"
    code = cli_main(["verify", "all", "--seed", "42", "--samples", "20",
                     "--format", "json", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    rows = {(r["suite"], c["name"]): c for r in doc["reports"] for c in r["checks"]}
    assert len(rows) == 74
    failed = {key for key, c in rows.items() if c["status"] == "fail"}
    assert failed == {("poincare", "compose_matches_sequential_action"),
                      ("poincare", "interval_preserved")}
    for key in failed:
        assert rows[key]["detail"] == "CompositionError: composed boost leaves the light cone"

    calls.clear()
    assert cli_main(["verify", "poincare", "--seed", "42", "--samples", "20"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "        CompositionError: composed boost leaves the light cone" in captured.out


def test_nan_integrand_fails_the_proportionality_row(monkeypatch):
    real = laplace.integrate_periodic

    def nan_integral_rep(f, a, b, rule):
        # integral_rep integrates over [-pi, pi]; the sphere-area
        # quadrature of the flux row over [0, pi] is left alone
        if a != -math.pi:
            return real(f, a, b, rule)

        def poisoned(t):
            vals = f(t)
            vals[..., 5] = math.nan
            return vals

        return real(poisoned, a, b, rule)

    monkeypatch.setattr(laplace, "integrate_periodic", nan_integral_rep)
    report = suites.run_laplace(suites.suite_rng(42, "laplace"), 1e-9, 20)
    rows = {c.name: c for c in report.checks}
    row = rows["integral_representation_proportionality"]
    assert row.status == "fail"
    assert row.detail.startswith("QuadratureEvaluationError: integrand non-finite at t=")
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert failed == {"integral_representation_proportionality", "integral_representation_harmonic",
                      "homogeneity_degree_n", "azimuthal_equivariance"}


def test_shared_span_is_recorded_once():
    rep = CheckReport("unit")
    with rep.check("owner", "ref", tol=1.0) as c:
        sibling = c.sibling("sibling", "ref", tol=1.0)
        c.observe(0.5)
        sibling.observe(2.0)
        time.sleep(0.002)
    owner, other = rep.checks
    assert (owner.name, owner.status, other.name, other.status) == ("owner", "pass", "sibling", "fail")
    assert owner.elapsed_ms >= 2.0
    assert other.elapsed_ms is None


def test_nan_fd_laplacian_sample_fails_harmonicity_row(monkeypatch):
    real = suites.fd_laplacian
    calls = []

    def nan_on_second(*args):
        # call 2 maps the 3-D points of the fundamental-solution row at
        # once; one of its samples turns NaN
        calls.append(args)
        out = real(*args)
        return np.where(np.arange(np.size(out)) == 1, NAN, out) if len(calls) == 2 else out

    monkeypatch.setattr(suites, "fd_laplacian", nan_on_second)
    report = suites.run_laplace(suites.suite_rng(42, "laplace"), 1e-9, 20)
    status = {c.name: c.status for c in report.checks}
    assert status["fundamental_solution_harmonic"] == "fail"
    assert sum(s == "fail" for s in status.values()) == 1


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_row_times_fit_in_suite_wall_time(name):
    t0 = time.perf_counter()
    report = suites.SUITES[name](suites.suite_rng(42, name), 1e-9, 100)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    spans = [c.elapsed_ms for c in report.checks if c.elapsed_ms is not None]
    assert all(ms > 0.0 for ms in spans)
    assert sum(spans) <= wall_ms


def test_text_report_times_every_row_that_owns_a_span():
    untimed, shown = set(), []
    for rep in suites.run_suites(suites.SUITE_NAMES, seed=42, tol=1e-9, samples=20):
        rows = {line.split()[1]: line for line in render_text([rep], {}).splitlines()
                if line.startswith(("  PASS", "  FAIL", "  SKIP"))}
        for c in rep.checks:
            if c.elapsed_ms is None:
                untimed.add((rep.suite, c.name))
                assert not rows[c.name].endswith(" ms)")
            else:
                assert rows[c.name].endswith(f"  ({c.elapsed_ms:.3f} ms)")
                shown.append(c.elapsed_ms)
    assert untimed == ROWS_WITHOUT_OWN_SPAN
    assert len(shown) == 74 - len(ROWS_WITHOUT_OWN_SPAN)
    assert min(shown) < 1.0  # sub-millisecond rows print a time too


def test_row_contract_is_frozen(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(["verify", "all", "--seed", "42", "--samples", "20",
                     "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    got = {r["suite"]: [(c["name"], c["status"], c["tolerance"], c["samples"])
                        for c in r["checks"]] for r in doc["reports"]}
    assert got == ROW_CONTRACT
    assert sum(len(rows) for rows in got.values()) == 74


def test_raising_make_checks_fails_one_row_and_the_suite_goes_on(monkeypatch, tmp_path, capsys):
    real = liealg.galilei_realization

    def without_H():
        return {k: v for k, v in real().items() if k != "H"}

    monkeypatch.setattr(liealg, "galilei_realization", without_H)
    assert cli_main(["verify", "galilei"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "  FAIL  galilei_realization" in captured.out
    assert "        IncompleteRealizationError: realization missing generators: H" in captured.out

    out = tmp_path / "report.json"
    assert cli_main(["verify", "galilei", "--format", "json", "--out", str(out)]) == 1
    (report,) = json.loads(out.read_text())["reports"]
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["galilei_realization"]
    assert failed[0]["detail"] == "IncompleteRealizationError: realization missing generators: H"
    # the row keeps its contract name, and every other row is still recorded
    # and passes
    assert ([(c["name"], c["status"]) for c in report["checks"]]
            == [(name, "fail" if name == "galilei_realization" else status)
                for name, status, _, _ in ROW_CONTRACT["galilei"]])

    # a realization that is complete but wrong fails the same row, and its
    # detail names the first mismatched brackets as polynomials
    monkeypatch.setattr(liealg, "galilei_realization", lambda: {**real(), "H": -real()["H"]})
    report = suites.run_galilei(suites.suite_rng(42, "galilei"), 1e-9, 20)
    (failed,) = [c for c in report.checks if c.status == "fail"]
    assert failed.name == "galilei_realization" and failed.residual == 6
    assert "{G1,H} off by" in failed.detail
    assert failed.detail == ("{G1,H} off by -2*p1; {G2,H} off by -2*p2; {G3,H} off by -2*p3; "
                             "{H,G1} off by 2*p1")


def test_mutation_control_detail_is_pinned():
    # labels sorted as strings, not by basis index, and printed as str, not np.str_
    report = suites.run_galilei(suites.suite_rng(42, "galilei"), 1e-9, 20)
    (row,) = [c for c in report.checks if c.name == "mutation_control_bad_structure_constant"]
    assert row.status == "pass"
    assert row.detail == ("violating triples [('G2', 'M2', 'M3'), ('G2', 'M3', 'M2'), "
                          "('G3', 'M2', 'M3'), ('G3', 'M3', 'M2'), ('M2', 'G2', 'M3')]")


def test_bad_table_fails_its_rows_not_the_run(monkeypatch):
    real = liealg.galilei_structure

    def float_table():
        s = real()
        return liealg.LieStructure(s.name, s.basis_labels, s.constants.astype(float))

    monkeypatch.setattr(liealg, "galilei_structure", float_table)
    report = suites.run_galilei(suites.suite_rng(42, "galilei"), 1e-9, 20)
    failed = {c.name: c.detail for c in report.checks if c.status == "fail"}
    assert sorted(failed) == ["galilei_antisymmetry", "galilei_jacobi", "galilei_realization",
                              "mutation_control_bad_structure_constant"]
    assert all(d.startswith("ValueError: expected integers") for d in failed.values())


def test_raising_planck_ops_fails_both_grid_rows(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("grid needs at least 64 points")

    monkeypatch.setattr(hopf, "planck_scale_ops", broken)
    report = suites.run_hopf(suites.suite_rng(42, "hopf"), 1e-9, 20)
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == ["position_momentum_deformed_commutator",
                                        "deformed_coproduct_homomorphism"]
    assert all(c.detail == "ValueError: grid needs at least 64 points" for c in failed)
    assert len(report.checks) == 7

    assert cli_main(["verify", "hopf"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.out.count("        ValueError: grid needs at least 64 points") == 2


def test_raising_structure_builder_fails_its_rows_not_the_run(monkeypatch, capsys):
    for name, extra in (("galilei", {"mutation_control_bad_structure_constant"}),
                        ("poincare", set())):
        def broken():
            raise ValueError("structure table unavailable")

        with monkeypatch.context() as m:
            m.setattr(liealg, f"{name}_structure", broken)
            assert cli_main(["verify", name]) == 1
            captured = capsys.readouterr()
            report = suites.SUITES[name](suites.suite_rng(42, name), 1e-9, 20)
        assert "Traceback" not in captured.out + captured.err
        assert "        ValueError: structure table unavailable" in captured.out
        failed = {c.name: c.detail for c in report.checks if c.status == "fail"}
        assert set(failed) == {f"{name}_antisymmetry", f"{name}_jacobi",
                               f"{name}_generator_count", f"{name}_realization"} | extra
        assert set(failed.values()) == {"ValueError: structure table unavailable"}
        assert len(report.checks) == len(ROW_CONTRACT[name])


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_rows_draw_only_from_keyed_streams(name):
    # the suite generator hands out its seed sequence and is never drawn from
    rng = suites.suite_rng(42, name)
    suites.SUITES[name](rng, 1e-9, 20)
    assert rng.random() == suites.suite_rng(42, name).random()


def test_field_streams_are_keyed_by_seed_suite_row_and_field():
    rng = suites.suite_rng(42, "galilei")
    first = suites.field_rng(rng, "row", "field").random(4)
    rng.random(100)
    assert np.array_equal(first, suites.field_rng(rng, "row", "field").random(4))
    others = (suites.field_rng(rng, "row", "other"), suites.field_rng(rng, "other", "field"),
              suites.field_rng(suites.suite_rng(42, "poincare"), "row", "field"),
              suites.field_rng(suites.suite_rng(43, "galilei"), "row", "field"))
    assert not any(np.array_equal(first, g.random(4)) for g in others)


# the sweep rows whose per-sample arrays must not depend on --samples
PREFIX_ROWS = {
    "rotations": {"product_of_rotations_is_rotation"},
    "galilei": {"compose_matches_sequential_action"},
    "poincare": {"compose_matches_sequential_action", "interval_preserved"},
    "laplace": {"fundamental_solution_harmonic"},
    "sklyanin": {"classical_yang_baxter", "quantum_yang_baxter", "exchange_relation_pauli"},
}


def _observed(monkeypatch, tmp_path, suite, samples) -> dict:
    """Every residual array the PREFIX_ROWS rows of `suite` observe under
    `verify <suite> --samples <samples>`, by row, in observe order."""
    real = Row.observe
    seen = {}

    def capture(self, *residuals):
        if self.name in PREFIX_ROWS[suite]:
            seen.setdefault(self.name, []).extend(np.array(r) for r in residuals)
        real(self, *residuals)

    with monkeypatch.context() as m:
        m.setattr(Row, "observe", capture)
        assert cli_main(["verify", suite, "--samples", str(samples), "--format", "json",
                         "--out", str(tmp_path / "report.json")]) == 0
    return seen


def test_sample_i_does_not_depend_on_the_sample_count(monkeypatch, tmp_path):
    for suite, rows in PREFIX_ROWS.items():
        short = _observed(monkeypatch, tmp_path, suite, 10)
        long = _observed(monkeypatch, tmp_path, suite, 250)
        assert set(short) == set(long) == rows
        for name in rows:
            assert len(short[name]) == len(long[name])
            for a, b in zip(short[name], long[name]):
                assert a.ndim >= 1 and len(a) <= len(b), (suite, name)
                assert np.array_equal(a, b[:len(a)]), (suite, name)
            # the longer run draws more samples wherever the count follows --samples
            assert any(len(a) < len(b) for a, b in zip(short[name], long[name])), (suite, name)

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.json"
        assert cli_main(["verify", "all", "--samples", "250", "--format", "json",
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
