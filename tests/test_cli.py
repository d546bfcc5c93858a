import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symmetria
from symmetria import sklyanin, suites
from symmetria.cli import main
from symmetria.report import CheckReport, render_json


def run(argv):
    return main(argv)


def test_verify_single_suite_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "fullerene", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "1"
    names = {c["name"]: c for c in doc["reports"][0]["checks"]}
    assert names["face_census"]["status"] == "pass"
    assert "60" in names["face_census"]["detail"] and "32" in names["face_census"]["detail"]


def test_verify_all_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "all", "--seed", "7", "--format", "json", "--out", str(out1)]) == 0
    assert run(["verify", "all", "--seed", "7", "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_unknown_suite_usage_error(capsys):
    assert run(["verify", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_tolerance_below_float_noise_fails(tmp_path):
    out = tmp_path / "tight.json"
    code = run(["verify", "sklyanin", "--tol", "1e-15", "--format", "json",
                "--out", str(out), "--samples", "20"])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["summary"]["failed"] >= 1


def test_env_tolerance_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMMETRIA_TOL", "1e-15")
    assert run(["verify", "sklyanin", "--samples", "20",
                "--out", str(tmp_path / "x.txt")]) == 1
    assert run(["verify", "sklyanin", "--tol", "1e-9", "--samples", "20",
                "--out", str(tmp_path / "y.txt")]) == 0


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_usage_error(value, monkeypatch, capsys):
    assert run(["verify", "rotations", "--tol", value, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "error: --tol must be positive and finite" in captured.err
    assert captured.out == ""
    monkeypatch.setenv("SYMMETRIA_TOL", value)
    assert run(["verify", "rotations", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "error: SYMMETRIA_TOL must be positive and finite" in captured.err
    assert captured.out == ""


def test_negative_seed_is_usage_error(tmp_path, capsys):
    assert run(["verify", "rotations", "--seed", "-1"]) == 2
    assert "error: --seed" in capsys.readouterr().err
    assert run(["dump", "sweep", "--seed", "-1", "--out", str(tmp_path / "s.json")]) == 2
    assert "error: --seed" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_dump_needs_a_sample(tmp_path, capsys):
    assert run(["dump", "sweep", "--samples", "0", "--out", str(tmp_path / "s.json")]) == 2
    assert "error: --samples" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def _python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout of symmetria."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(symmetria.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_without_runtime_warning():
    proc = _python("-m", "symmetria.cli", "verify", "rotations", "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_import_loads_neither_dataclasses_nor_openssl():
    # both cost set-up time that no check needs; hashlib loads OpenSSL's
    # _hashlib, while the builtin _sha256 (absent from CPython 3.12 on) does not
    proc = _python("-c", "import sys, symmetria.cli; "
                   "print(' '.join(sorted({'dataclasses', '_hashlib', '_sha256'} & set(sys.modules))))")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "dataclasses" not in loaded
    if "_sha256" in loaded:
        assert "_hashlib" not in loaded


def test_salt_equals_the_hashlib_sha256_prefix():
    for key in ("rotations", "sklyanin", "compose_matches_sequential_action/pairs", "", "\u00e9"):
        digest = hashlib.sha256(key.encode()).digest()
        assert suites._salt(key) == int.from_bytes(digest[:8], "big"), key


def test_unwritable_out_is_usage_error(tmp_path):
    assert run(["verify", "rotations", "--out", str(tmp_path / "no" / "dir.txt")]) == 2


def test_text_report_grouped_and_sorted(tmp_path):
    out = tmp_path / "r.txt"
    assert run(["verify", "rotations", "galilei", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.index("[rotations]") < text.index("[galilei]")
    lines = [l for l in text.splitlines() if l.startswith("  PASS")]
    names = [l.split()[1] for l in lines]
    by_suite = names[:4]
    assert by_suite == sorted(by_suite)


def test_dump_algebra(tmp_path):
    out = tmp_path / "alg.json"
    assert run(["dump", "algebra", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["poincare"]["basis"]) == 10
    assert len(doc["galilei"]["basis"]) == 10


def test_dump_algebra_bytes_are_frozen(tmp_path):
    # the tables are exact integers, so the bytes do not depend on the platform
    out = tmp_path / "alg.json"
    assert run(["dump", "algebra", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "26420b0b93dad682669eedaf252e31810e15755d6850abd8ffca34ad1bb4ac57")


def test_dump_graph_bytes_are_pinned(tmp_path):
    # the C60 coordinates, edges, faces (pentagons in ring-sort order) and bonds
    out = tmp_path / "graph.json"
    assert run(["dump", "graph", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e06486272dd75a5d5ebce02ae71b0be2faae8465798f3df1b8e4e7929efdb1e7")


def test_dump_sweep_bytes_are_pinned(tmp_path):
    # sweep_samples draws its (u, v) pairs as blocks; they, and so the
    # records, are the pairs of the loop that drew one scalar at a time
    out = tmp_path / "sweep.json"
    assert run(["dump", "sweep", "--samples", "1000", "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8a6c9782b9657a1f8beee75c8a0c6805cb51dd42c2da868a511dd8136a77ef78")


def test_verify_all_bytes_are_pinned(tmp_path):
    # a row whose bytes move must say so: re-pin only with the moved rows
    # named, old residual -> new, in CHANGES.md
    out = tmp_path / "verify.json"
    assert run(["verify", "all", "--samples", "20", "--seed", "42", "--format", "json",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c5c41a649a7105aee2cf9e83f57811be851bf4a83d8607d2d8b705bd9da13d9d")


def test_verify_deep_bytes_are_pinned(tmp_path):
    # the samples-250 pass of the benchmark: batched sweeps and stacked
    # stencil clouds at sizes the samples-20 pin does not reach
    out = tmp_path / "verify.json"
    assert run(["verify", "all", "--samples", "250", "--seed", "42", "--format", "json",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b7eab23238ff82bc0d24ea808948662356870bee7104948ff878442e5a1772c5")


def _modules_after_import(module: str) -> set:
    proc = _python("-c", f"import sys, {module}; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_exact_layer_imports_stay_lean():
    assert not {"fractions", "decimal"} & _modules_after_import("symmetria.cli")
    assert "symmetria.report" not in _modules_after_import("symmetria.liealg")


def test_repeated_algebra_and_sweep_runs_give_identical_bytes(tmp_path, capsys):
    argv = ["verify", "galilei", "poincare", "sklyanin", "conformal", "laplace",
            "--format", "json", "--samples", "20"]
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]


def test_dump_graph(tmp_path):
    out = tmp_path / "graph.json"
    assert run(["dump", "graph", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 60
    assert len(doc["edges"]) == 90
    assert set(doc["bonds"].values()) == {"single", "double"}


def test_dump_sweep_residuals_below_tol(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["dump", "sweep", "--out", str(out), "--samples", "15"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 15
    assert all(e["residual"] < 1e-9 for e in doc)
    assert all(set(e) == {"u", "v", "residual"} for e in doc)


SPECIAL_RESIDUALS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, 1e16,
                     1.0000000000000002]


@pytest.mark.parametrize("as_numpy", [False, True])
@pytest.mark.parametrize("samples, first", [(1, 0), (1, 7), (8, 0)])
def test_dump_sweep_template_writes_json_dumps_bytes(tmp_path, monkeypatch, samples, first,
                                                     as_numpy):
    # the sweep's template writer against json.dumps on the residuals it
    # must spell like json: NaN, the infinities, signed zero, the smallest
    # subnormal, an exponent form and a last-bit mantissa; as np.float64,
    # whose repr under numpy 2 is not json's
    records = []

    def special(u, v, p):
        values = (SPECIAL_RESIDUALS[first:] + SPECIAL_RESIDUALS[:first])[:len(u)]
        records.extend({"u": float(a), "v": float(b), "residual": r}
                       for a, b, r in zip(u, v, values))
        return [np.float64(r) for r in values] if as_numpy else np.array(values)

    monkeypatch.setattr(sklyanin, "qybe_residual", special)
    out = tmp_path / "sweep.json"
    assert run(["dump", "sweep", "--samples", str(samples), "--out", str(out)]) == 0
    assert len(records) == samples
    assert out.read_bytes() == (json.dumps(records, sort_keys=True, indent=2) + "\n").encode()


def test_report_sorted_and_counted():
    rep = CheckReport("demo")
    with rep.check("b", "r", tol=1.0) as c:
        c.observe(0.0)
    with rep.check("a", "r") as c:
        c.require(False)
    with rep.check("c", "r", skipped=True):
        pass
    doc = rep.to_json()
    assert [c["name"] for c in doc["checks"]] == ["a", "b", "c"]
    assert doc["summary"] == {"total": 3, "passed": 1, "failed": 1}
    body = render_json([rep], {"seed": 1})
    assert body.endswith("\n")
    assert json.loads(body)["config"] == {"seed": 1}
