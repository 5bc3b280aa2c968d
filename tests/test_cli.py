"""Command-line interface: output formats, exit codes, config files."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hctree import cli
from hctree.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "cli_output.schema.json").read_text()
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestSolveCommand:
    def test_human_output_below_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "-k", "2", "-l", "2")
        assert code == 0
        assert "ordered system solutions: 1" in out
        assert "translation-invariant" in out

    def test_human_output_above_threshold(self, capsys):
        code, out, _ = run(capsys, "solve", "-k", "2", "-l", "5")
        assert code == 0
        assert "ordered system solutions: 3" in out
        assert "two-periodic" in out

    def test_json_schema_and_content(self, capsys):
        doc = run_json(capsys, "solve", "-k", "2", "-l", "5", "--json")
        assert doc["command"] == "solve"
        assert doc["system_solution_count"] == 3
        kinds = {s["kind"] for s in doc["solutions"]}
        assert kinds == {"translation-invariant", "two-periodic"}
        pair = next(s for s in doc["solutions"] if s["kind"] == "two-periodic")
        assert pair["values"][0] == pytest.approx(0.07639320225002103, rel=1e-10)
        assert pair["values"][1] == pytest.approx(0.52360679774997897, rel=1e-10)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "solve", "-k", "2", "-l", "5", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,z1,z2,residual"
        assert len(lines) == 3

    def test_missing_k_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "-l", "5")
        assert code == 2
        assert "error" in err.lower() or "missing" in err.lower()

    def test_bad_k_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "-k", "0", "-l", "5")
        assert code == 2

    def test_bad_lambda_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "-k", "2", "-l", "-3")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


class TestClassifyCommand:
    def test_pair_verdict(self, capsys):
        doc = run_json(capsys, "classify", "-k", "2", "-l", "5", "--json")
        pair = next(r for r in doc["reports"] if r["kind"] == "two-periodic")
        assert pair["verdict"] == "ProvenExtremal"
        assert pair["k_eff"] == 4
        assert pair["s2"] == pytest.approx(0.2, abs=1e-12)
        assert pair["ks_value"] == pytest.approx(0.16, abs=1e-12)
        assert pair["msw_value"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_k3_pair_verdict(self, capsys):
        doc = run_json(capsys, "classify", "-k", "3", "-l", "2", "--json")
        pair = next(r for r in doc["reports"] if r["kind"] == "two-periodic")
        assert pair["verdict"] == "ProvenExtremal"

    def test_invariant_high_activity_nonextremal(self, capsys):
        doc = run_json(capsys, "classify", "-k", "2", "-l", "30", "--json")
        inv = next(r for r in doc["reports"] if r["kind"] == "translation-invariant")
        assert inv["verdict"] == "ProvenNonExtremal"

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "classify", "-k", "2", "-l", "10")
        assert code == 0
        assert "verdict" in out

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "classify", "-k", "2", "-l", "5", "--csv")
        assert code == 0
        header = out.split("\n", 1)[0]
        assert header.startswith("kind,z1,z2,k_eff,s2,kappa,gamma")


class TestSweepCommand:
    def test_discriminant_crosses_zero(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-k", "3", "--quantity", "D",
            "-lmin", "1.5", "-lmax", "2.0", "-n", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,D"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        assert float(rows[0][0]) == 1.5 and float(rows[-1][0]) == 2.0
        values = [float(v) for _, v in rows]
        assert values[0] < 0 < values[-1]

    def test_solution_count_steps_at_threshold(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-k", "2", "--quantity", "solutions",
            "-lmin", "1", "-lmax", "8", "-n", "8",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for lam_s, count_s in rows:
            expected = "1" if float(lam_s) <= 4.0 else "3"
            assert count_s == expected

    def test_g_negative_and_decreasing_on_log_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-k", "3", "--quantity", "g", "--scale", "log",
            "-lmin", "1.75", "-lmax", "100", "-n", "25",
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert all(v < 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_verdict_sweep_is_textual(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-k", "2", "--quantity", "verdict",
            "-lmin", "2", "-lmax", "6", "-n", "3",
        )
        assert code == 0
        cells = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert set(cells) <= {"ProvenExtremal", "ProvenNonExtremal", "Undetermined"}

    def test_d_requires_k3(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "-k", "2", "--quantity", "D",
            "-lmin", "1", "-lmax", "2", "-n", "3",
        )
        assert code == 2

    def test_json_rows(self, capsys):
        doc = run_json(
            capsys, "sweep", "-k", "2", "--quantity", "ks",
            "-lmin", "5", "-lmax", "6", "-n", "3", "--json",
        )
        assert doc["command"] == "sweep"
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["lambda"] == 5.0
        assert doc["rows"][0]["value"] == pytest.approx(4.0 / 25.0, rel=1e-10)

    def test_out_file_newlines_and_stability(self, tmp_path, capsys):
        target = tmp_path / "a.csv"
        args = [
            "sweep", "-k", "2", "--quantity", "msw",
            "-lmin", "4.5", "-lmax", "9", "-n", "12", "--out", str(target),
        ]
        assert main(args) == 0
        first = target.read_bytes()
        assert b"\r" not in first
        assert first.decode().startswith("lambda,msw\n")
        target2 = tmp_path / "b.csv"
        assert main(args[:-1] + [str(target2)]) == 0
        assert target2.read_bytes() == first
        capsys.readouterr()

    def test_weakperiodic_count_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "-k", "2", "--quantity", "weakperiodic_count",
            "-lmin", "3", "-lmax", "6", "-n", "2", "--set", "I2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0][1] == "1" and rows[1][1] == "3"

    def test_unwritable_out_exits_1(self, capsys):
        code, _, err = run(
            capsys, "sweep", "-k", "2", "--quantity", "ks",
            "-lmin", "5", "-lmax", "6", "-n", "2",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1
        assert "error" in err.lower()


class TestOracleCommand:
    def test_ti_mode_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "-k", "2", "-l", "2.5", "-n", "3")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_periodic_mode_passes(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "-k", "2", "-l", "5", "-n", "3", "--mode", "periodic"
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_perturbed_mode_fails_but_exits_zero(self, capsys):
        # the perturbed run is a negative control: the deviation must trip
        # the threshold, and that is still a successful program run
        code, out, _ = run(
            capsys, "oracle", "-k", "2", "-l", "2.5", "-n", "3", "--mode", "perturbed"
        )
        assert code == 0
        assert out.strip().endswith("FAIL")

    def test_json_documents(self, capsys):
        doc = run_json(capsys, "oracle", "-k", "2", "-l", "2.5", "-n", "3", "--json")
        assert doc["passed"] is True
        assert doc["max_deviation"] < 1e-8

        doc = run_json(
            capsys, "oracle", "-k", "2", "-l", "2.5", "-n", "3",
            "--mode", "perturbed", "--json",
        )
        assert doc["passed"] is False
        assert doc["max_deviation"] > 1e-4

    def test_periodic_requires_pair(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "-k", "2", "-l", "2", "-n", "3", "--mode", "periodic"
        )
        assert code == 2

    def test_sample_mode(self, capsys):
        doc = run_json(
            capsys, "oracle", "-k", "2", "-l", "5", "-n", "3",
            "--mode", "sample", "--samples", "2000", "--seed", "42", "--json",
        )
        assert doc["passed"] is True
        assert doc["violations"] == 0
        assert doc["samples"] == 2000

    def test_sample_mode_deterministic(self, capsys):
        args = [
            "oracle", "-k", "2", "-l", "5", "-n", "2",
            "--mode", "sample", "--samples", "500", "--seed", "9", "--json",
        ]
        a = run_json(capsys, *args)
        b = run_json(capsys, *args)
        assert a == b

    @pytest.mark.parametrize("mode", ["ti", "periodic", "perturbed"])
    @pytest.mark.parametrize("depth,got", [
        ("30", "2147483647"), ("1000000000", "a ball of depth 1000000000"),
    ])
    def test_cap_checked_before_the_ball_is_built(self, capsys, monkeypatch, mode, depth, got):
        def no_ball(*args, **kwargs):
            raise AssertionError("ball built before the enumeration cap was checked")

        monkeypatch.setattr(cli, "FiniteBall", no_ball)
        code, _, err = run(
            capsys, "oracle", "-k", "2", "-l", "5", "-n", depth, "--mode", mode
        )
        assert code == 1
        assert err == f"error: enumeration supports at most 40 vertices, got {got}\n"

    def test_full_root_supported(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "-k", "2", "-l", "2.5", "-n", "2", "--root", "full"
        )
        assert code == 0
        assert out.strip().endswith("PASS")


class TestCriticalCommand:
    def test_k2_values(self, capsys):
        doc = run_json(capsys, "critical", "-k", "2", "--json")
        assert doc["lambda_critical"] == pytest.approx(4.0, rel=1e-14)
        assert doc["lambda_star"] == pytest.approx(7.1591912469828776, rel=1e-10)
        assert doc["kesten_stigum_bound"] == pytest.approx(28.14213562373095, rel=1e-10)
        assert doc["asymptotic_bound"] is None
        assert doc["lambda_minus"] is None

    def test_k6_includes_window(self, capsys):
        doc = run_json(capsys, "critical", "-k", "6", "--json")
        assert doc["s_minus"] == pytest.approx(0.5, rel=1e-12)
        assert doc["s_plus"] == pytest.approx(1.0, rel=1e-12)
        assert doc["lambda_minus"] == pytest.approx(5.6953125, rel=1e-12)
        assert doc["lambda_plus"] == pytest.approx(64.0, rel=1e-12)
        assert doc["asymptotic_bound"] is not None

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "critical", "-k", "3", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,value"
        names = [line.split(",")[0] for line in lines[1:]]
        assert len(names) == len(set(names))

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "critical", "-k", "3")
        assert code == 0
        assert "k = 3" in out


class TestWeakCommand:
    def test_supercritical_count(self, capsys):
        doc = run_json(capsys, "weak", "-k", "2", "-l", "6", "--json")
        assert doc["count"] == 3
        assert doc["non_constant_count"] == 2
        assert doc["invariant_set"] == "I2"

    def test_i4_window(self, capsys):
        doc = run_json(
            capsys, "weak", "-k", "6", "-l", "10", "-i", "1", "--set", "I4", "--json"
        )
        assert doc["count"] >= 3
        assert doc["non_constant_count"] >= 2
        for fp in doc["fixed_points"]:
            assert len(fp["values"]) == 4

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "weak", "-k", "2", "-l", "6")
        assert code == 0
        assert "fixed points: 3" in out

    def test_rejects_bad_i(self, capsys):
        code, _, _ = run(capsys, "weak", "-k", "2", "-l", "6", "-i", "9")
        assert code == 2

    @pytest.mark.parametrize("tol", ["1e-2", "1", "inf"])
    def test_coarse_tol_only_loosens_the_residual_gate(self, capsys, tol):
        # tol gates residuals; it neither merges points nor labels them
        code, out, _ = run(capsys, "weak", "-k", "2", "-l", "5", "--tol", tol)
        assert code == 0
        assert "fixed points: 3  (non-constant: 2)" in out
        assert "(0.076393202250021, 0.523606797749979, 0.076393202250021, " \
               "0.523606797749979)  residual=" in out
        assert out.count("[non-constant]") == 2 and out.count("[constant]") == 1


@pytest.mark.parametrize("command", [
    "solve -k 2 -l 5",
    "classify -k 2 -l 5",
    "sweep -k 2 --quantity ks -lmin 1 -lmax 2 -n 3",
    "sweep -k 2 --quantity weakperiodic_count -lmin 5 -lmax 6 -n 2",
    "oracle -k 2 -l 5 -n 2",
    "oracle -k 2 -l 5 -n 2 --mode sample --samples 10",
    "weak -k 2 -l 5",
])
def test_nan_tol_exits_2(command, capsys):
    code, out, err = run(capsys, *command.split(), "--tol", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive\n"


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample run\nk = 2\nlambda = 5\n")
        doc = run_json(capsys, "solve", "--config", str(cfg), "--json")
        assert doc["k"] == 2 and doc["lambda"] == 5.0

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nlambda = 5\n")
        doc = run_json(capsys, "solve", "--config", str(cfg), "-l", "6", "--json")
        assert doc["lambda"] == 6.0

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nwavelength = 5\n")
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "wavelength" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--config", str(tmp_path / "absent.cfg"))
        assert code == 1

    def test_boolean_and_choice_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "k = 2\nquantity = solutions\nlambda-min = 1\nlambda-max = 2\npoints = 3\njson = true\n"
        )
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["points"] == 3

    def test_bad_choice_in_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nscale = cubic\n")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    def test_applies_to_its_own_call_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nlambda = 2\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert out.startswith("k=3  lambda=2  ")
        code, out, err = run(capsys, "solve")
        assert code == 2
        assert out == ""
        assert err == "error: missing required flag -k/--k\n"


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hctree.cli", "solve", "-k", "2", "-l", "5", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["system_solution_count"] == 3

    def test_package_dunder_main(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hctree", "critical", "-k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "k = 2" in proc.stdout

    def test_usage_error_from_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hctree.cli", "solve", "-k", "two", "-l", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
