"""CLI behavior: file formats, exit codes, reproducibility."""

import argparse
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lensmimo
from lensmimo import (
    LensArrayConfig,
    ScenarioConfig,
    effective_prob_closed,
    effective_prob_quadrature,
    harness,
    run_scenario,
    selfcheck,
    sweep_pattern,
    theta_pdf,
)
from lensmimo.cli import _emit, _parser, main
from lensmimo.harness import _trial_chunk
from lensmimo.stochastic import MC_RANGE_PAIRS, _map_ranges

TRUE_P10 = 0.1122673842
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return main([str(a) for a in args])


def read_bytes(path):
    return path.read_bytes()


class TestPattern:
    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "pat.csv"
        code = run_cli(
            "pattern", "--d-tilde", 20, "--phi-l-deg", 0,
            "--delta-min", -0.5, "--delta-max", 0.5, "--steps", 2001, "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,theta_norm,power_linear,power_db,effective"
        assert len(lines) == 2002

    def test_peak_at_zero_separation(self, tmp_path):
        out = tmp_path / "pat.csv"
        run_cli("pattern", "--d-tilde", 20, "--delta-min", -0.5, "--delta-max", 0.5,
                "--steps", 2001, "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        deltas = np.array([float(r[0]) for r in rows])
        power_db = np.array([float(r[3]) for r in rows])
        assert deltas[np.argmax(power_db)] == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["pattern", "--d-tilde", 10, "--delta-min", -0.3, "--delta-max", 0.3,
                "--steps", 301]
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_spatial_freq_flag_overrides_degrees(self, tmp_path):
        # sin(radians(30)) is one ulp below 0.5, so compare values, not bytes
        out_sf = tmp_path / "sf.csv"
        out_deg = tmp_path / "deg.csv"
        run_cli("pattern", "--d-tilde", 10, "--phi-l-sf", 0.5, "--delta-min", -0.1,
                "--delta-max", 0.1, "--steps", 21, "--out", out_sf)
        run_cli("pattern", "--d-tilde", 10, "--phi-l-deg", 30, "--delta-min", -0.1,
                "--delta-max", 0.1, "--steps", 21, "--out", out_deg)
        powers = []
        for path in (out_sf, out_deg):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            powers.append(np.array([float(r[2]) for r in rows]))
        np.testing.assert_allclose(powers[0], powers[1], rtol=1e-9, atol=1e-12)

    def test_single_step_is_usage_error(self, tmp_path, capsys):
        code = run_cli("pattern", "--d-tilde", 10, "--steps", 1, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "steps" in capsys.readouterr().err

    def test_manifest_records_parameters(self, tmp_path):
        out = tmp_path / "pat.csv"
        run_cli("pattern", "--d-tilde", 10, "--steps", 11, "--delta-min", -0.1,
                "--delta-max", 0.1, "--out", out)
        manifest = json.loads((tmp_path / "pat.csv.manifest.json").read_text())
        assert manifest["command"] == "pattern"
        assert manifest["parameters"]["d_tilde"] == 10.0
        assert manifest["parameters"]["steps"] == 11
        assert manifest["outputs"] == ["pat.csv"]
        assert manifest["duration_seconds"] >= 0.0


class TestProb:
    def test_closed_value(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "closed", "--out", out) == 0
        record = json.loads(out.read_text())
        assert record["method"] == "closed"
        assert record["value"] == pytest.approx(effective_prob_closed(10.0), rel=1e-15)
        assert record["value"] == pytest.approx(0.120089, abs=5e-5)
        assert "std_error" not in record and "sample_count" not in record

    def test_quadrature_value(self, tmp_path):
        out = tmp_path / "q.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "quadrature", "--out", out) == 0
        record = json.loads(out.read_text())
        assert record["value"] == pytest.approx(effective_prob_quadrature(10.0), rel=1e-12)

    def test_mc_record_and_accuracy(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "mc", "--samples", 200_000,
                       "--seed", 7, "--out", out) == 0
        record = json.loads(out.read_text())
        assert record["sample_count"] == 200_000
        assert record["seed"] == 7
        assert abs(record["value"] - TRUE_P10) <= 4.0 * record["std_error"]
        lo, hi = record["wilson_95"]
        assert lo < record["value"] < hi
        assert hi - lo == pytest.approx(2.0 * 1.96 * record["std_error"], rel=1e-3)

    def test_mc_thread_invariance(self, tmp_path):
        outs = []
        for name, threads in (("t1.json", 1), ("t4.json", 4)):
            out = tmp_path / name
            run_cli("prob", "--d-tilde", 10, "--method", "mc", "--samples", 100_000,
                    "--seed", 5, "--threads", threads, "--out", out)
            outs.append(read_bytes(out))
        assert outs[0] == outs[1]

    def test_mc_requires_sampling_flags(self, tmp_path, capsys):
        code = run_cli("prob", "--d-tilde", 10, "--method", "mc", "--out", tmp_path / "x.json")
        assert code == 2
        assert "samples" in capsys.readouterr().err

    def test_closed_small_array_is_domain_error(self, tmp_path, capsys):
        code = run_cli("prob", "--d-tilde", 1, "--method", "closed", "--out", tmp_path / "x.json")
        assert code == 3
        assert "d_tilde" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_aperture_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "x.json"
        code = run_cli("prob", "--d-tilde", value, "--method", "closed", "--out", out)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestDensity:
    def test_full_support_integral(self, tmp_path):
        out = tmp_path / "den.csv"
        edge = math.sqrt(3.0) * 10.0
        assert run_cli("density", "--d-tilde", 10, "--z-min", -edge, "--z-max", edge,
                       "--steps", 801, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,f_theta"
        manifest = json.loads((tmp_path / "den.csv.manifest.json").read_text())
        assert manifest["grid_integral"] == pytest.approx(1.0, abs=1e-3)

    def test_symmetry_on_emitted_grid(self, tmp_path):
        out = tmp_path / "den.csv"
        run_cli("density", "--d-tilde", 10, "--z-min", -2, "--z-max", 2, "--steps", 41,
                "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        values = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(values, values[::-1], atol=1e-10)

    def test_zero_outside_support(self, tmp_path):
        out = tmp_path / "den.csv"
        run_cli("density", "--d-tilde", 2, "--z-min", 4, "--z-max", 40, "--steps", 10,
                "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for z_text, f_text in rows:
            if abs(float(z_text)) > math.sqrt(3.0) * 2.0:
                assert float(f_text) == 0.0

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run_cli("density", "--d-tilde", 10, "--z-min", 2, "--z-max", 1,
                       "--steps", 10, "--out", tmp_path / "x.csv") == 2

    def test_grid_beyond_a_double_of_the_scale_is_zero_there(self, tmp_path):
        # |z|/d_tilde overflows on most of this grid; every warning is an error here
        out = tmp_path / "den.csv"
        assert run_cli("density", "--d-tilde", "1e-300", "--z-min=-1e-290", "--z-max=1e300",
                       "--steps", 2001, "--out", out) == 0
        rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
        # every grid point lies outside the support |z| < sqrt(3) d_tilde
        assert len(rows) == 2001 and all(f == 0.0 for _, f in rows)
        manifest = json.loads((tmp_path / "den.csv.manifest.json").read_text())
        assert manifest["grid_integral"] == 0.0


class TestFailedCommandsWriteNothing:
    """A command that fails exits 2 or 3 and leaves no file and no directory.
    Every warning is an error in this suite, so none of them warns either."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [(("density", "--d-tilde", 10, "--z-min=-1e308", "--z-max=1e308", "--steps", 2), 2,
          "--z-max minus --z-min must be a finite double"),
         (("pattern", "--d-tilde", 10, "--delta-min=-1e308", "--delta-max=1e308", "--steps", 3), 2,
          "--delta-max minus --delta-min must be a finite double"),
         (("density", "--d-tilde", "1e-310", "--z-min=-1", "--z-max=1", "--steps", 3), 3, "d_tilde"),
         (("prob", "--d-tilde", "5e-324", "--method", "quadrature"), 3, "d_tilde"),
         (("scenario", "--d-tilde", 0.5, "--a-z", "1e154", "--users", 7, "--trials", 5, "--seed", 7), 3,
          "user_count - 1) * A^2/M must be a finite double"),
         (("density", "--d-tilde", "1e-300", "--z-min=-1e10", "--z-max=1e10", "--steps", 3), 3,
          "overflows a double for --d-tilde 1e-300 on --z-min -10000000000.0 to --z-max 10000000000.0")],
        ids=["density-range", "pattern-range", "density-subnormal", "prob-subnormal", "scenario-sum",
             "density-integral"],
    )
    def test_boundaries(self, tmp_path, capsys, argv, code, message):
        assert run_cli(*argv, "--out", tmp_path / "sub" / "x.out") == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_density_manifest_is_formatted_before_the_csv(self, tmp_path):
        # A grid_integral the manifest cannot hold used to fail after the CSV
        # was written, and left it behind
        args = _parser().parse_args(["density", "--d-tilde", "10", "--z-min=-1", "--z-max=1",
                                     "--steps", "3", "--out", str(tmp_path / "sub" / "d.csv")])
        grid = np.linspace(-1.0, 1.0, 3)
        text = per_value_csv("z,f_theta", grid, theta_pdf(grid, 10.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _emit(args, 0.0, {args.out: text}, grid_integral=bad)
            assert list(tmp_path.iterdir()) == []
        assert _emit(args, 0.0, {args.out: text}, grid_integral=1.0) == 0
        assert (tmp_path / "sub" / "d.csv").read_text(encoding="utf-8") == text


class TestScenario:
    def test_summary_fields_and_cdf_file(self, tmp_path):
        out = tmp_path / "scen.json"
        assert run_cli("scenario", "--d-tilde", 10, "--users", 10, "--trials", 500,
                       "--seed", 1, "--out", out) == 0
        summary = json.loads(out.read_text())
        for key in (
            "mean_exact", "mean_effective", "captured_fraction",
            "mean_effective_count", "mean_effective_count_se",
            "exact_summary", "effective_summary",
        ):
            assert key in summary
        assert summary["mean_effective"] <= summary["mean_exact"]
        expect_count = 9 * TRUE_P10
        assert summary["mean_effective_count"] == pytest.approx(expect_count, abs=0.1)
        cdf_lines = (tmp_path / "scen.cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "power,cdf"
        assert len(cdf_lines) == 257

    def test_single_user_all_zero(self, tmp_path):
        out = tmp_path / "one.json"
        run_cli("scenario", "--d-tilde", 10, "--users", 1, "--trials", 100, "--seed", 2,
                "--out", out)
        summary = json.loads(out.read_text())
        assert summary["mean_exact"] == 0.0
        assert summary["captured_fraction"] == 1.0

    def test_rerun_and_threads_byte_identical(self, tmp_path):
        blobs = []
        for name, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{name}.json"
            run_cli("scenario", "--d-tilde", 10, "--users", 8, "--trials", 600, "--seed", 3,
                    "--threads", threads, "--out", out)
            blobs.append(read_bytes(out) + read_bytes(tmp_path / f"{name}.cdf.csv"))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_manifest_lists_both_outputs(self, tmp_path):
        out = tmp_path / "scen.json"
        run_cli("scenario", "--d-tilde", 10, "--users", 2, "--trials", 10, "--seed", 1,
                "--out", out)
        manifest = json.loads((tmp_path / "scen.json.manifest.json").read_text())
        assert manifest["outputs"] == ["scen.json", "scen.cdf.csv"]


def per_value_csv(header, *columns):
    """A CSV rendered one value at a time with format(x, ".17g")."""
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


class TestCsvBytes:
    """Every CSV equals a per-value rendering of the arrays it was written from."""

    @pytest.mark.parametrize("d_tilde, sf", [(10.3, 0.123), (20.0, 0.0), (100.0, 0.0)])
    def test_pattern(self, tmp_path, d_tilde, sf):
        out = tmp_path / "pat.csv"
        # d_tilde 20 and 100 put the broadside user's nulls on the grid,
        # where power_db reads the -3000 dB floor
        assert run_cli("pattern", "--d-tilde", d_tilde, "--phi-l-sf", sf, "--delta-min", -0.5,
                       "--delta-max", 0.5, "--steps", 2001, "--out", out) == 0
        series = sweep_pattern(LensArrayConfig(d_tilde), sf, np.linspace(-0.5, 0.5, 2001))
        assert np.any(series.powers_db == -3000.0) == (sf == 0.0)
        expect = per_value_csv(
            "delta,theta_norm,power_linear,power_db,effective",
            series.deltas, series.theta_norms, series.powers_linear, series.powers_db,
            ["true" if e else "false" for e in series.effective],
        )
        assert out.read_text(encoding="utf-8") == expect

    @pytest.mark.parametrize("d_tilde, z_max", [(10.01, 18.0), (2.0, 40.0)])
    def test_density(self, tmp_path, d_tilde, z_max):
        out = tmp_path / "den.csv"
        assert run_cli("density", "--d-tilde", d_tilde, "--z-min", -z_max, "--z-max", z_max,
                       "--steps", 801, "--out", out) == 0
        grid = np.linspace(-z_max, z_max, 801)
        expect = per_value_csv("z,f_theta", grid, theta_pdf(grid, d_tilde))
        assert out.read_text(encoding="utf-8") == expect

    @pytest.mark.parametrize("users", [1, 12])
    def test_scenario_cdf(self, tmp_path, users):
        out = tmp_path / "scen.json"
        assert run_cli("scenario", "--d-tilde", 10.3, "--users", users, "--trials", 300,
                       "--seed", 4, "--out", out) == 0
        res = run_scenario(ScenarioConfig(LensArrayConfig(10.3), users, 300, 4))
        expect = per_value_csv("power,cdf", res.cdf_grid, res.cdf_values)
        assert (tmp_path / "scen.cdf.csv").read_text(encoding="utf-8") == expect


class TestSelfcheck:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("selfcheck") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_closed_form_fails(self, monkeypatch, capsys):
        for path in ("pairwise_interference_closed", "_pair_powers"):
            fn = getattr(selfcheck, path)
            monkeypatch.setattr(selfcheck, path, lambda *a, fn=fn: fn(*a) * (1.0 + 1e-6))
        assert run_cli("selfcheck") == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["pairwise_interference_closed", "_pair_powers"])
    def test_oracle_check_covers_both_closed_paths(self, monkeypatch, path):
        fn = getattr(selfcheck, path)
        monkeypatch.setattr(selfcheck, path, lambda *a: fn(*a) * (1.0 + 1e-8))
        assert not selfcheck._check_closed_vs_direct().passed

    def test_determinism_shapes_span_two_pieces(self, monkeypatch):
        def pieces(count, chunk):
            return len(_map_ranges(lambda a, b: None, count, chunk, 1))

        # the ranges run_scenario hands its threads in the check itself
        used = []
        map_ranges = harness._map_ranges

        def spied(fn, count, chunk, threads):
            results = map_ranges(fn, count, chunk, threads)
            used.append((threads, len(results)))
            return results

        monkeypatch.setattr(harness, "_map_ranges", spied)
        assert selfcheck._check_determinism().passed
        assert [threads for threads, _ in used] == [1, 3]
        assert used[1][1] >= 2
        users = selfcheck.DETERMINISM_USERS
        # the smallest such drop: one user fewer puts both drops in one chunk
        assert pieces(selfcheck.DETERMINISM_TRIALS, _trial_chunk(users - 1)) == 1
        assert pieces(selfcheck.DETERMINISM_MC_SAMPLES, MC_RANGE_PAIRS) >= 2


class TestIntegerFlags:
    MC = ("prob", "--d-tilde", 10, "--method", "mc", "--samples", 1000)
    SCENARIO = ("scenario", "--d-tilde", 10, "--users", 3, "--trials", 20)

    @pytest.mark.parametrize("threads", [0, -2, -3])
    @pytest.mark.parametrize("command", ["prob", "scenario"])
    def test_thread_count_below_one_is_usage_error(self, tmp_path, capsys, command, threads):
        base = (self.MC if command == "prob" else self.SCENARIO) + ("--seed", 1)
        out = tmp_path / "x.json"
        assert run_cli(*base, "--threads", threads, "--out", out) == 2
        assert "--threads" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-1, 2**128, "2**128"])
    @pytest.mark.parametrize("command", ["prob", "scenario"])
    def test_seed_outside_philox_key_range_is_usage_error(self, tmp_path, capsys, command, seed):
        base = self.MC if command == "prob" else self.SCENARIO
        out = tmp_path / "x.json"
        assert run_cli(*base, "--seed", seed, "--out", out) == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        out = tmp_path / "mc.json"
        assert run_cli(*self.MC, "--seed", seed, "--out", out) == 0
        assert json.loads(out.read_text())["seed"] == seed


class TestManifestParameters:
    """Each manifest records exactly the parsed flags other than --out."""

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (
                ["pattern", "--d-tilde", 10, "--steps", 11, "--phi-l-sf", 0.2],
                {"d_tilde": 10.0, "a_z": 1.0, "phi_l_deg": 0.0, "phi_l_sf": 0.2,
                 "delta_min": -0.5, "delta_max": 0.5, "steps": 11},
            ),
            (
                ["prob", "--d-tilde", 10, "--method", "mc", "--samples", 1000,
                 "--seed", 4, "--threads", 2],
                {"d_tilde": 10.0, "method": "mc", "samples": 1000, "seed": 4, "threads": 2},
            ),
            (
                ["prob", "--d-tilde", 10, "--method", "closed"],
                {"d_tilde": 10.0, "method": "closed", "samples": None, "seed": None,
                 "threads": 1},
            ),
            (
                ["density", "--d-tilde", 10, "--z-min", -1, "--z-max", 1, "--steps", 5],
                {"d_tilde": 10.0, "z_min": -1.0, "z_max": 1.0, "steps": 5},
            ),
            (
                ["scenario", "--d-tilde", 10, "--users", 3, "--trials", 20, "--seed", 2,
                 "--a-z", 2],
                {"d_tilde": 10.0, "a_z": 2.0, "users": 3, "trials": 20, "seed": 2,
                 "threads": 1},
            ),
        ],
    )
    def test_parameters_are_the_parsed_flags(self, tmp_path, argv, expect):
        out = tmp_path / "out.dat"
        assert run_cli(*argv, "--out", out) == 0
        manifest = json.loads((tmp_path / "out.dat.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["parameters"] == expect


class TestSuccessiveCalls:
    """main reuses one parser; no call leaves state for the next."""

    def test_parser_is_built_once(self):
        assert _parser() is _parser()

    def test_mc_without_samples_after_one_with_them(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "mc", "--samples", 1000,
                       "--seed", 1, "--out", out) == 0
        assert run_cli("prob", "--d-tilde", 10, "--method", "mc", "--seed", 1, "--out", out) == 2
        assert "--samples" in capsys.readouterr().err

    def test_pattern_after_prob_gets_its_own_defaults(self, tmp_path):
        assert run_cli("pattern", "--d-tilde", 10, "--a-z", 2, "--phi-l-sf", 0.3,
                       "--delta-min", -0.2, "--steps", 11, "--out", tmp_path / "a.csv") == 0
        assert run_cli("prob", "--d-tilde", 10, "--method", "mc", "--samples", 1000,
                       "--seed", 1, "--threads", 2, "--out", tmp_path / "p.json") == 0
        assert run_cli("pattern", "--d-tilde", 10, "--out", tmp_path / "b.csv") == 0
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["parameters"] == {
            "d_tilde": 10.0, "a_z": 1.0, "phi_l_deg": 0.0, "phi_l_sf": None,
            "delta_min": -0.5, "delta_max": 0.5, "steps": 2001,
        }

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "bogus", "--out", out) == 2
        assert run_cli("prob", "--d-tilde", 10, "--method", "closed", "--out", out) == 0
        assert json.loads(out.read_text())["method"] == "closed"


class TestPlumbing:
    def test_outdir_env_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LENSMIMO_OUTDIR", str(tmp_path))
        assert run_cli("prob", "--d-tilde", 10, "--method", "closed", "--out", "rel.json") == 0
        assert (tmp_path / "rel.json").exists()
        assert (tmp_path / "rel.json.manifest.json").exists()

    def test_absolute_path_ignores_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LENSMIMO_OUTDIR", str(tmp_path / "elsewhere"))
        out = tmp_path / "abs.json"
        assert run_cli("prob", "--d-tilde", 10, "--method", "closed", "--out", out) == 0
        assert out.exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("prob", "--method", "closed") == 2

    @pytest.mark.parametrize(
        "argv",
        [("pattern", "--d-tilde", 10, "--steps", 11),
         ("scenario", "--d-tilde", 10, "--users", 3, "--trials", 20, "--seed", 2)],
    )
    def test_convention_flag_is_usage_error(self, tmp_path, capsys, argv):
        # The lens response has one sinc, sin(pi x)/(pi x); there is no flag to pick it
        out = tmp_path / "x.out"
        assert run_cli(*argv, "--convention", "normalized", "--out", out) == 2
        assert "--convention" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_hidden_switches(self, capsys):
        # A test makes the library fail by patching it, so the shipped CLI
        # and run_checks carry no switch for that
        parsers = [_parser()]
        for parser in parsers:
            for action in parser._actions:
                assert action.help is not argparse.SUPPRESS, action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(parsers) == 6
        assert inspect.signature(selfcheck.run_checks).parameters == {}
        assert run_cli("selfcheck", "--corrupt-closed-form") == 2

    def test_public_names_resolve(self):
        # The package exports exactly the names the CLI and the model's tests
        # use, so a name dropped from the library is dropped from here too.
        for name in lensmimo.__all__:
            assert hasattr(lensmimo, name), name
        exported = {name for name, value in vars(lensmimo).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert exported == set(lensmimo.__all__) - {"__version__"}
        assert exported == {
            "GRID_SNAP_TOL", "LensArrayConfig", "channel_vectors", "sinc", "snap_to_grid",
            "NullNotFoundError", "PatternSeries", "first_null",
            "pairwise_interference_closed", "pairwise_interference_direct", "power_to_db",
            "sidelobe_ratio_db", "sweep_pattern",
            "ProbEstimate", "SectorModel", "effective_prob_closed",
            "effective_prob_mc", "effective_prob_quadrature", "sample_doas",
            "spatial_freq_pdf", "theta_pdf", "ApproximationReport", "ScenarioConfig",
            "ScenarioResult", "approximation_quality", "run_scenario", "CheckResult",
            "run_checks",
        }

    def test_json_writer_refuses_nan_and_infinity(self, tmp_path):
        args = _parser().parse_args(["prob", "--d-tilde", "10", "--method", "closed",
                                     "--out", str(tmp_path / "sub" / "bad.json")])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _emit(args, 0.0, {args.out: {"value": bad}})
            assert list(tmp_path.iterdir()) == []

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "pat.csv"
        run_cli("pattern", "--d-tilde", 10, "--delta-min", -0.2, "--delta-max", 0.2,
                "--steps", 41, "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        deltas = np.array([float(r[0]) for r in rows])
        # 17 significant digits reproduce the doubles exactly
        np.testing.assert_array_equal(deltas, np.linspace(-0.2, 0.2, 41))

    @pytest.mark.parametrize(
        "argv, name",
        [(("pattern", "--d-tilde", 10, "--a-z", "1e300"), "a_z 1e+300"),
         (("pattern", "--d-tilde", "1e300"), "d_tilde 1e+300"),
         (("pattern", "--d-tilde", "1.7e308"), "d_tilde 1.7e+308"),
         (("scenario", "--d-tilde", 10, "--a-z", "1e200", "--users", 3, "--trials", 2,
           "--seed", 1), "a_z 1e+200")],
    )
    def test_peak_power_overflow_is_domain_error_before_any_output(self, tmp_path, capsys, argv, name):
        out = tmp_path / "sub" / "x.out"
        assert run_cli(*argv, "--out", out) == 3
        assert name in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cli_import_leaves_scipy_integrate_out(self):
        # scipy.integrate costs about 0.4 s of every process that imports it
        proc = subprocess.run(
            [sys.executable, "-c", "import lensmimo.cli, sys; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_console_script_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lensmimo.cli", "prob", "--d-tilde", "10",
             "--method", "closed", "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads((tmp_path / "m.json").read_text())["method"] == "closed"


FLOAT_EDGES = ("0", "-0.0", "5e-324", "1e309", "inf", "-inf", "nan", "", "x")
INTEGER_EDGES = ("0", "-1", "2.5", "", "x")


def _mix(*weighted):
    """One of the (weight, strategy) pairs' strategies, drawn in proportion to its weight."""
    return st.sampled_from([s for w, s in weighted for _ in range(w)]).flatmap(lambda s: s)


def _real(lo, hi):
    """A float flag's text: a value in [lo, hi] half the time, else a signed
    magnitude from the subnormals to the overflow, or a text on a boundary."""
    magnitude = st.builds(lambda sign, m, e: repr(sign * m * 10.0**e),
                          st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-325, 308))
    return _mix((2, st.floats(lo, hi).map(repr)), (1, magnitude), (1, st.sampled_from(FLOAT_EDGES)))


def _count(lo, hi, *edges):
    """An integer flag's text: a count in [lo, hi] seven times in eight, else an edge."""
    return _mix((7, st.integers(lo, hi).map(str)), (1, st.sampled_from(edges or INTEGER_EDGES)))


# Flags of each subcommand, (required, optional). Counts stay small, so that
# every run takes milliseconds; scenario always gets a valid thread count, so
# its threaded chunks are fuzzed too.
APERTURE = _real(0.0, 200.0)
SEED = _count(0, 2**16, "-1", str(2**128 - 1), str(2**128), "1.0")
STEPS = _count(2, 50)
FUZZ_FLAGS = {
    "pattern": ({"--d-tilde": APERTURE},
                {"--a-z": _real(0.0, 10.0), "--phi-l-deg": _real(-90.0, 90.0), "--phi-l-sf": _real(-1.5, 1.5),
                 "--delta-min": _real(-2.0, 0.0), "--delta-max": _real(0.0, 2.0), "--steps": STEPS}),
    "prob": ({"--d-tilde": APERTURE, "--method": st.sampled_from(["closed", "quadrature", "mc", "exact"])},
             {"--samples": _count(1, 2000), "--seed": SEED, "--threads": _count(1, 3)}),
    "density": ({"--d-tilde": APERTURE, "--z-min": _real(-50.0, 0.0), "--z-max": _real(0.0, 50.0)},
                {"--steps": STEPS}),
    "scenario": ({"--d-tilde": APERTURE, "--users": _count(1, 30), "--trials": _count(1, 20),
                  "--seed": SEED, "--threads": st.integers(1, 3).map(str)},
                 {"--a-z": _real(0.0, 10.0)}),
    "selfcheck": ({}, {}),
}


def _cli_argv(command):
    required, optional = FUZZ_FLAGS[command]
    flags = st.fixed_dictionaries(required, optional=optional)
    return flags.map(lambda f: [command] + [f"{name}={text}" for name, text in f.items()])


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class TestFuzz:
    """Drawn flags for every subcommand, run in process: a run exits 0, 2 or 3,
    and leaves valid files of finite numbers after 0 and no file otherwise."""

    @pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
    @given(data=st.data())
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    def test_every_exit_is_ok_usage_or_domain_and_leaves_valid_files_or_none(self, command, data):
        argv = data.draw(_cli_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "sub", "out.csv" if command in ("pattern", "density") else "out.json")
            if command != "selfcheck":
                argv = argv + ["--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), argv
            if code != 0:
                assert os.listdir(tmp) == [], argv
                return
            for path in (os.path.join(d, f) for d, _, files in os.walk(tmp) for f in files):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                if path.endswith(".json"):
                    # json.loads reads NaN and Infinity as floats, which fail here
                    assert _finite_numbers(json.loads(text)), path
                else:
                    header, *rows = text.splitlines()
                    for row in rows:
                        cells = row.split(",")
                        assert len(cells) == header.count(",") + 1, path
                        assert all(c in ("true", "false") or math.isfinite(float(c)) for c in cells), path
            if command != "selfcheck":
                assert os.path.exists(out + ".manifest.json"), argv
