"""Command-line interface: output formats, exit codes, config files."""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hctree import cli, oracle, solvers
from hctree.cli import main
from hctree.core import ModelParams
from hctree.extremality import classify, g_function, h_function
from hctree.solvers import critical_values, solve_two_periodic

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "cli_output.schema.json").read_text()
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_lines(message, **diagnostics):
    """stderr of a failed solve: the error line, then one line per diagnostic."""
    return f"error: {message}\n" + "".join(f"  {key}={value!r}\n"
                                             for key, value in diagnostics.items())


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

    def test_pair_with_fixed_point_near_zero(self, capsys):
        doc = run_json(capsys, "solve", "-k", "4", "-l", "1e12", "--json")
        assert doc["solutions"][1]["values"] == pytest.approx([1e-48, 1.0], rel=1e-11)

    def test_k2_pair_past_the_overflow_of_lambda_squared(self, capsys):
        doc = run_json(capsys, "solve", "-k", "2", "-l", "1e160", "--json")
        assert doc["solutions"][1]["values"] == pytest.approx([1e-320, 1.0], rel=1e-3)

    @pytest.mark.parametrize("argv,lam", [
        pytest.param(argv, float(argv.split()[-1]), id=argv)
        for argv in ("solve -k 2 -l 1e300", "solve -k 3 -l 1e150", "solve -k 3 -l 1.7e308",
                     "classify -k 2 -l 1e300")])
    def test_closed_form_pair_below_the_float_range_exits_1(self, capsys, argv, lam):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err == error_lines("two-cycle below the smallest positive float; pair not found",
                                  lam=lam)

    # the fixed point itself is below every float: a failed solve, not a bad argument
    @pytest.mark.parametrize("command", ["solve", "classify --json", "weak --set I2",
                                         "weak --set I3", "weak --set I4"])
    def test_fixed_point_below_the_float_range_exits_1(self, capsys, command):
        code, out, err = run(capsys, *command.split(), "-k", "10000000000000000000",
                             "-l", "1.7976931348623157e308")
        assert (code, out) == (1, "")
        assert err == error_lines("fixed point below the smallest positive float",
                                  lam=1.7976931348623157e308, bracket=(0.0, 5e-324))

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

    @pytest.mark.parametrize("k,quantity,grid", [
        (4, "verdict", ("-lmin", "0.5", "-lmax", "40.0", "-n", "1000")),
        (7, "msw", ("-lmin", "0.1", "-lmax", "100.0", "-n", "1000", "--scale", "log")),
    ])
    def test_sweep_values_equal_classify_at_each_point(self, capsys, k, quantity, grid):
        doc = run_json(capsys, "sweep", "-k", str(k), "--quantity", quantity, *grid, "--json")
        for row in doc["rows"]:
            report = classify(ModelParams(k, row["lambda"]))[-1]
            want = report.verdict.value if quantity == "verdict" else report.msw_value
            assert row["value"] == want, row["lambda"]

    @pytest.mark.parametrize("k", range(2, 11))
    def test_solved_rows_equal_classify_bit_for_bit(self, capsys, k):
        # a log grid across the critical activity, and each threshold between
        # its float neighbours, where a verdict turns on the last bit
        cv = critical_values(k)
        thresholds = (cv.lambda_cr, cv.lambda_star, cv.lambda_nonextremal)
        grids = [("-lmin", "0.05", "-lmax", "1e4", "-n", "60", "--scale", "log")]
        grids += [("-lmin", repr(math.nextafter(lam, 0.0)),
                   "-lmax", repr(math.nextafter(lam, math.inf)), "-n", "3")
                  for lam in thresholds]
        for quantity in ("solutions", "s2", "ks", "msw", "verdict"):
            lams = []
            for grid in grids:
                doc = run_json(capsys, "sweep", "-k", str(k), "--quantity", quantity, *grid,
                               "--json")
                for row in doc["rows"]:
                    lam, params = row["lambda"], ModelParams(k, row["lambda"])
                    if quantity == "solutions":
                        # counted without solving: equal to the count wherever solve succeeds
                        want = solve_two_periodic(params).system_solution_count
                    else:
                        report = classify(params)[-1]
                        want = {"s2": report.s2, "ks": report.ks_value,
                                "msw": report.msw_value,
                                "verdict": report.verdict.value}[quantity]
                    assert row["value"] == want, (quantity, lam)
                    lams.append(lam)
            assert set(thresholds) <= set(lams)

    @pytest.mark.parametrize("k,grid,rows", [
        (2, ("-lmin", "1e4", "-lmax", "1e300", "-n", "200"), 200),
        (100, ("-lmin", "0.01", "-lmax", "1e12", "-n", "400"), 400),
    ])
    def test_solutions_counted_where_the_pair_underflows(self, capsys, k, grid, rows):
        # solve raises past the pair's underflow, but the count there is 3
        doc = run_json(capsys, "sweep", "-k", str(k), "--quantity", "solutions", *grid,
                       "--scale", "log", "--json")
        assert len(doc["rows"]) == rows
        lam_cr = critical_values(k).lambda_cr
        assert all(row["value"] == (3 if row["lambda"] > lam_cr else 1) for row in doc["rows"])
        assert doc["rows"][-1]["value"] == 3

    def test_verdict_decided_where_the_pair_underflows(self, capsys):
        # classify raises past the pair's underflow, but the pair's verdict
        # there is ProvenExtremal, as everywhere it exists
        doc = run_json(capsys, "sweep", "-k", "100", "--quantity", "verdict", "-lmin", "0.01",
                       "-lmax", "1e12", "-n", "400", "--scale", "log", "--json")
        assert len(doc["rows"]) == 400
        lam_cr = critical_values(100).lambda_cr
        for row in doc["rows"]:
            if row["lambda"] <= lam_cr:
                want = classify(ModelParams(100, row["lambda"]))[-1].verdict.value
            else:
                want = "ProvenExtremal"
            assert row["value"] == want, row["lambda"]

    @pytest.mark.parametrize("quantity", ["s2", "ks", "msw"])
    @pytest.mark.parametrize("lmin,lmax,bad", [("1", "inf", "inf"), ("-1", "1", "-1.0"),
                                               ("0", "1", "0.0")])
    def test_invalid_activity_refused_before_any_solve(self, capsys, monkeypatch, quantity,
                                                       lmin, lmax, bad):
        def solved(*_):
            raise AssertionError("solved before every activity was checked")

        monkeypatch.setattr(solvers, "_fixed_point", solved)
        code, out, err = run(capsys, "sweep", "-k", "4", "--quantity", quantity,
                             "-lmin", lmin, "-lmax", lmax, "-n", "3")
        assert (code, out) == (2, "")
        assert err == f"error: lam must be a positive finite number, got {bad}\n"

    @pytest.mark.parametrize("points", [262_145, 10**12])
    def test_points_above_the_cap_exit_1_before_the_grid(self, capsys, points):
        code, out, err = run(capsys, "sweep", "-k", "2", "--quantity", "ks",
                             "-lmin", "1", "-lmax", "2", "-n", str(points))
        assert (code, out) == (1, "")
        assert err == f"error: a sweep may have at most 262144 points, got {points}\n"

    def test_points_at_the_cap_are_a_grid(self):
        assert len(cli._grid(1.0, 2.0, cli._SWEEP_POINT_CAP, "linear")) == 262_144

    def test_linear_grid_up_to_the_float_range_is_finite(self):
        grid = cli._grid(1.0, 1e308, 5, "linear")
        assert all(math.isfinite(lam) for lam in grid)
        assert grid[0] == 1.0 and grid[-1] == 1e308
        assert grid == sorted(grid)

    def test_log_grid_up_to_the_largest_float(self, capsys):
        # the last exponent can round above log(lmax), past what exp can return
        lmax = sys.float_info.max
        for points in range(2, 301):
            grid = cli._grid(1e-300, lmax, points, "log")
            assert len(grid) == points and grid[0] == 1e-300 and grid[-1] == lmax, points
            assert grid == sorted(grid) and all(math.isfinite(lam) for lam in grid), points
        for points in ("7", "13"):
            code, out, err = run(capsys, "sweep", "-k", "3", "--quantity", "solutions",
                                 "-lmin", "1e-300", "-lmax", repr(lmax), "-n", points,
                                 "--scale", "log")
            assert (code, err) == (0, "")
            assert out.endswith("\n1.79769313486232e+308,3\n")

    def test_log_grid_interior_is_the_exponential_formula(self):
        rng = random.Random(30)
        for _ in range(2_000):
            lmin, lmax = sorted(10.0 ** rng.uniform(-300, 300) for _ in range(2))
            points = rng.randint(2, 2_000)
            if lmin == lmax:
                continue
            a, b = math.log(lmin), math.log(lmax)
            want = [math.exp(a + (b - a) * j / (points - 1)) for j in range(1, points - 1)]
            assert cli._grid(lmin, lmax, points, "log") == [lmin, *want, lmax]

    def test_linear_grid_equals_the_unhalved_form_where_that_is_finite(self):
        rng = random.Random(25)
        for _ in range(2_000):
            lmin, lmax = sorted(10.0 ** rng.uniform(-5, 300) for _ in range(2))
            points = rng.randint(2, 2_000)
            if lmin == lmax:
                continue
            want = [lmin + (lmax - lmin) * j / (points - 1) for j in range(points)]
            want[0], want[-1] = lmin, lmax
            assert cli._grid(lmin, lmax, points, "linear") == want

    def test_h_and_g_rows_equal_their_functions(self, capsys):
        grids = [("-lmin", repr(27.0 / 16.0), "-lmax", "1e3", "-n", "60", "--scale", "log"),
                 ("-lmin", repr(27.0 / 16.0), "-lmax", repr(math.nextafter(1.6875, 2.0)),
                  "-n", "2")]
        for quantity, function in (("h", h_function), ("g", g_function)):
            for grid in grids:
                doc = run_json(capsys, "sweep", "-k", "3", "--quantity", quantity, *grid,
                               "--json")
                for row in doc["rows"]:
                    assert row["value"] == function(row["lambda"]), (quantity, row["lambda"])

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

    def test_sample_mode_refuses_a_negative_seed(self, capsys):
        code, out, err = run(capsys, "oracle", "-k", "2", "-l", "5", "-n", "3",
                             "--mode", "sample", "--samples", "10", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be an integer >= 0, got -1\n")

    @pytest.mark.parametrize("args,message", [
        (("-n", "0", "--samples", "5"), "depth must be >= 1, got 0"),
        (("-n", "2", "--samples", "0"), "count must be >= 1, got 0"),
        (("-n", "2", "--samples", "-3"), "count must be >= 1, got -3"),
        (("-n", "2", "--samples", "5", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    ])
    def test_sample_arguments_refused_before_the_ball_is_built(self, capsys, monkeypatch,
                                                               args, message):
        def no_ball(*args, **kwargs):
            raise AssertionError("built a ball before checking the arguments")

        monkeypatch.setattr(oracle, "FiniteBall", no_ball)
        code, out, err = run(capsys, "oracle", "-k", "2", "-l", "5", "--mode", "sample", *args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # 2047 vertices at depth 10: the largest count under 2**28 spins is 131,136
    @pytest.mark.parametrize("samples,allowed", [("131136", True), ("131137", False)])
    def test_sample_spin_cap_exits_1_before_a_block_is_allocated(self, capsys, monkeypatch,
                                                                 samples, allowed):
        class Allocated(Exception):
            pass

        def no_block(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(oracle.np, "empty", no_block)
        monkeypatch.setattr(oracle.np, "zeros", no_block)
        if allowed:
            with pytest.raises(Allocated):
                main(["oracle", "-k", "2", "-l", "5", "-n", "10", "--mode", "sample",
                      "--samples", samples])
            return
        code, out, err = run(capsys, "oracle", "-k", "2", "-l", "5", "-n", "10",
                             "--mode", "sample", "--samples", samples)
        assert (code, out) == (1, "")
        assert err == ("error: sampling holds at most 268435456 spins, "
                       "got 131137 samples of 2047 vertices\n")

    @pytest.mark.parametrize("mode", ["ti", "periodic", "perturbed"])
    @pytest.mark.parametrize("depth,got", [
        ("30", "2147483647"), ("1000000000", "a ball of depth 1000000000"),
    ])
    def test_cap_checked_before_the_ball_is_built(self, capsys, monkeypatch, mode, depth, got):
        def no_ball(*args, **kwargs):
            raise AssertionError("ball built before the enumeration cap was checked")

        monkeypatch.setattr(oracle, "FiniteBall", no_ball)  # cli imports it per call
        code, _, err = run(
            capsys, "oracle", "-k", "2", "-l", "5", "-n", depth, "--mode", mode
        )
        assert code == 1
        assert err == f"error: enumeration supports at most 40 vertices, got {got}\n"

    def test_configuration_cap_exits_1(self, capsys, monkeypatch):
        # 40 vertices pass the vertex cap, but 2.3e9 configurations do not
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(oracle, "_key_blocks", refuse)
        code, out, err = run(capsys, "oracle", "-k", "3", "-l", "1", "-n", "3")
        assert (code, out) == (1, "")
        assert err == ("error: enumeration supports at most 16777216 configurations, "
                       "got 2298661010\n")

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

    @pytest.mark.parametrize("k", ["162", "1000"])
    def test_lambda_plus_past_the_float_range_is_null(self, capsys, k):
        doc = run_json(capsys, "critical", "-k", k, "--json")
        assert doc["lambda_plus"] is None
        assert 0.0 < doc["lambda_minus"] < 1.0
        code, out, _ = run(capsys, "critical", "-k", k)
        assert code == 0
        assert "lambda_plus (weak-periodic branch activity): inf" in out

    @pytest.mark.parametrize("k,finite", [(512_447, True), (512_448, False),
                                          (10**6, False)])
    def test_kesten_stigum_bound_past_the_float_range_is_null(self, capsys, k, finite):
        doc = run_json(capsys, "critical", "-k", str(k), "--json")
        assert (doc["kesten_stigum_bound"] is not None) == finite
        assert doc["asymptotic_bound"] is not None
        shown = "1.79717235533655e+308" if finite else "inf"
        code, out, _ = run(capsys, "critical", "-k", str(k))
        assert code == 0
        assert f"kesten_stigum_bound (invariant law non-extremal above): {shown}\n" in out
        code, out, _ = run(capsys, "critical", "-k", str(k), "--csv")
        assert code == 0
        assert f"\nkesten_stigum_bound,{shown}\n" in out

    @pytest.mark.parametrize("k", [10**12, 10**18])
    def test_large_k_lambda_star_within_half_an_ulp(self, capsys, k):
        from test_solvers import _threshold_reference

        mpmath = pytest.importorskip("mpmath")
        doc = run_json(capsys, "critical", "-k", str(k), "--json")
        with mpmath.workdps(50 + len(str(k))):
            want = _threshold_reference(k, mpmath)[2]
            got = doc["lambda_star"]
            assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(math.ulp(got)) / 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("fmt", ["", "--csv", "--json"])
    @pytest.mark.parametrize("k", ["2", "3", "6", "1"])
    def test_epsilon_checked_at_every_k_first(self, capsys, k, fmt, eps):
        code, out, err = run(capsys, "critical", "-k", k, "--epsilon", eps, *fmt.split())
        assert (code, out) == (2, "")
        assert err == f"error: eps must be a positive finite number, got {float(eps)!r}\n"

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

    def test_tol_reaches_the_fixed_point(self, capsys):
        # the fixed point's residual here is about 1.1e-12: above the default
        # tol, below this one, and solve and weak on I2 take the same solve
        command = ("-k", "14089", "-l", "0.00019907084612539068")
        for sub in ("solve", "weak"):
            code, _, err = run(capsys, sub, *command)
            assert (code, err) == (1, error_lines(
                "translation-invariant bisection stalled",
                bracket=(0.36215143396162686, 0.3621514339616269),
                residual=1.1231571228620396e-12, tol=1e-12))
            code, out, err = run(capsys, sub, *command, "--tol", "1e-11")
            assert (code, err) == (0, ""), sub
        assert "fixed points: 3  (non-constant: 2)" in out

    @pytest.mark.parametrize("tol", ["1e-2", "1", "inf"])
    def test_coarse_tol_only_loosens_the_residual_gate(self, capsys, tol):
        # tol gates residuals; it neither merges points nor labels them
        code, out, _ = run(capsys, "weak", "-k", "2", "-l", "5", "--tol", tol)
        assert code == 0
        assert "fixed points: 3  (non-constant: 2)" in out
        assert "(0.076393202250021, 0.523606797749979, 0.076393202250021, " \
               "0.523606797749979)  residual=" in out
        assert out.count("[non-constant]") == 2 and out.count("[constant]") == 1

    @pytest.mark.parametrize("command,message,diagnostics", [
        pytest.param(command, message, diagnostics, id=command)
        for command, message, diagnostics in (
            # (1+lambda)**-k, the lower end of the I4 search grid, is 0 in floats
            ("weak -k 6 --set I4 -l 1e60",
             "the lower end of the plane's search grid underflows at this activity",
             {"lower_end": 0.0}),
            # I2 is solved as the two-periodic system, whose pair's small value
            # underflows to 0 here
            ("weak -k 2 -l 1e300", "two-cycle below the smallest positive float; pair not found",
             {"lam": 1e300}),
            ("sweep -k 10 --quantity weakperiodic_count -lmin 1 -lmax 1e40 -n 3",
             "two-cycle below the smallest positive float; pair not found",
             {"lam": 5e39, "bracket": (2e-40, 2.0000000000000003e-40)}),
        )
    ])
    def test_underflowing_grid_end_exits_1(self, capsys, command, message, diagnostics):
        code, out, err = run(capsys, *command.split())
        assert (code, out, err) == (1, "", error_lines(message, **diagnostics))


@pytest.mark.parametrize("command", [
    "solve -k 2 -l 5",
    "classify -k 2 -l 5",
    "sweep -k 2 --quantity ks -lmin 1 -lmax 2 -n 3",
    "sweep -k 2 --quantity weakperiodic_count -lmin 5 -lmax 6 -n 2",
    "sweep -k 3 --quantity D -lmin 1 -lmax 3 -n 3",
    "oracle -k 2 -l 5 -n 2",
    "oracle -k 2 -l 5 -n 2 --mode sample --samples 10",
    "weak -k 2 -l 5",
])
def test_nan_tol_exits_2(command, capsys):
    code, out, err = run(capsys, *command.split(), "--tol", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: tol must be positive\n"


@pytest.mark.parametrize("command", ["solve -k 2 -l 5", "classify -k 2 -l 5", "weak -k 2 -l 5"])
def test_infinite_tol_is_null_in_json(command, capsys):
    doc = run_json(capsys, *command.split(), "--tol", "inf", "--json")
    assert doc["tol"] is None


# each activity is at most 1e-7 relative above the critical one, where the
# pair is close to the fixed point
@pytest.mark.parametrize("command,shows", [
    ("solve -k 4 -l 1.0534979529218105", "ordered system solutions: 3\n"),
    ("classify -k 6 -l 0.5971968059719678", "  two-periodic  z=(0.334822032310612, "),
    ("weak -k 4 -l 1.0534979529218105 --set I2", "fixed points: 3  (non-constant: 2)\n"),
    ("sweep -k 4 --quantity solutions -lmin 1.05349794 -lmax 1.0534980 -n 5",
     "1.053497955,3\n1.05349797,3\n1.053497985,3\n1.053498,3\n"),
    ("sweep -k 4 --quantity verdict -lmin 1.0534979413333332 -lmax 1.0534989958847734 -n 60",
     "1.05349899588477,ProvenExtremal\n"),
])
def test_pair_found_just_above_the_critical_activity(command, shows, capsys):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert shows in out


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

    @pytest.mark.parametrize("in_file,flag,first_line", [
        ("json", "--csv", "kind,z1,z2,residual"),
        ("csv", "--json", "{"),
    ])
    def test_format_flag_beats_the_files_format(self, tmp_path, capsys, in_file, flag,
                                                 first_line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = 2\nlambda = 5\n{in_file} = true\n")
        code, out, _ = run(capsys, "solve", "--config", str(cfg), flag)
        assert code == 0
        assert out.splitlines()[0] == first_line

    @pytest.mark.parametrize("command,text,message", [
        ("sweep", "k = 2\nscale = cubic\n", "2: scale must be one of ('linear', 'log')"),
        ("solve", "k = 2\njson = maybe\n", "2: expected a boolean, got 'maybe'"),
        ("solve", "k = 2\n# no sign\nlambda 5\n", "3: expected key=value"),
        ("solve", "k = two\nlambda = 5\n", "1: bad value for k: 'two'"),
    ])
    def test_bad_line_in_file_exits_2(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:{message}\n")

    def test_false_boolean_keeps_text(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nlambda = 5\njson = false\n")
        assert run(capsys, "solve", "--config", str(cfg)) == run(capsys, "solve", "-k", "2",
                                                                  "-l", "5")

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


def _raises(*_):
    raise AssertionError("rendered a format that is not printed")


class TestRendersOnlyItsFormat:
    """A run renders only the format it prints: --json formats no text cell
    (_fmt) and text or CSV builds no JSON number (_num)."""

    @pytest.mark.parametrize("command, fmt", [
        *((c, fmt) for c in ("solve -k 2 -l 5", "classify -k 2 -l 5", "critical -k 6",
                             "weak -k 2 -l 5")
          for fmt in ("", " --csv", " --json")),
        *((c, fmt) for c in ("sweep -k 2 --quantity ks -lmin 1 -lmax 40 -n 8",
                             "oracle -k 2 -l 5 -n 3 --mode periodic",
                             "oracle -k 2 -l 5 -n 3 --mode sample --samples 100")
          for fmt in ("", " --json")),
    ])
    def test_one_successful_command_per_subcommand(self, capsys, monkeypatch, command, fmt):
        argv = (command + fmt).split()
        code, want, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(cli, "_fmt" if fmt == " --json" else "_num", _raises)
        assert run(capsys, *argv) == (0, want, "")


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

    @pytest.mark.parametrize("command", [
        ("solve", "-k", "2", "-l", "5"),
        ("classify", "-k", "3", "-l", "2"),
        ("critical", "-k", "3"),
        *(("sweep", "-k", "7", "--quantity", quantity, "-lmin", "0.1", "-lmax", "100",
           "-n", "50", "--scale", "log") for quantity in ("s2", "msw", "verdict", "solutions")),
    ])
    def test_closed_form_commands_do_not_import_numpy(self, command):
        script = ("import sys\nfrom hctree.cli import main\ncode = main(sys.argv[1:])\n"
                  "sys.exit(3 if 'numpy' in sys.modules else code)")
        proc = subprocess.run([sys.executable, "-c", script, *command],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_solve_sets_do_not_import_numpy(self):
        script = ("import sys\nimport hctree\nassert hctree.SOLVE_SETS == ('I2', 'I3', 'I4')\n"
                  "sys.exit(3 if 'numpy' in sys.modules else 0)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_weak_periodic_window_does_not_import_numpy(self):
        # s_pm and lambda_pm are printed by critical from k = 6 on
        script = ("import sys\nimport hctree\nfrom hctree.cli import main\n"
                  "assert hctree.s_pm(7)[1] > 0\ncode = main(['critical', '-k', '7'])\n"
                  "sys.exit(3 if 'numpy' in sys.modules else code)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "lambda_plus" in proc.stdout

    @pytest.mark.parametrize("command", [("solve", "-l", "1"), ("critical",)])
    def test_k_past_the_float_range_is_an_error_line(self, command):
        # 10**400 parses as an int but does not convert to a float
        proc = subprocess.run(
            [sys.executable, "-m", "hctree", command[0], "-k", str(10**400), *command[1:]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: int too large to convert to float\n"

    def test_usage_error_from_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hctree.cli", "solve", "-k", "two", "-l", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
