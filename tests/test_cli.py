"""CLI behavior: file formats, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
import types

import numpy as np
import pytest

import lensmimo
from lensmimo import effective_prob_closed, effective_prob_quadrature, selfcheck
from lensmimo.cli import _parser, _write_json, main
from lensmimo.harness import _trial_chunk
from lensmimo.stochastic import MC_RANGE_PAIRS, _map_ranges

TRUE_P10 = 0.1122673842


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


class TestSelfcheck:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("selfcheck") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_closed_form_fails(self, capsys):
        assert run_cli("selfcheck", "--corrupt-closed-form") == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["pairwise_interference_closed", "_pair_powers"])
    def test_oracle_check_covers_both_closed_paths(self, monkeypatch, path):
        fn = getattr(selfcheck, path)
        monkeypatch.setattr(selfcheck, path, lambda *a: fn(*a) * (1.0 + 1e-8))
        assert not selfcheck._check_closed_vs_direct(corrupt=False).passed

    def test_determinism_shapes_span_two_pieces(self):
        def pieces(count, chunk):
            return len(_map_ranges(lambda a, b: None, count, chunk, 1))

        chunk = _trial_chunk(selfcheck.DETERMINISM_USERS)
        assert pieces(selfcheck.DETERMINISM_TRIALS, chunk) >= 2
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
            "NullNotFoundError", "PatternSeries", "effective_interference", "first_null",
            "pairwise_interference_closed", "pairwise_interference_direct", "power_to_db",
            "sidelobe_ratio_db", "sweep_pattern",
            "ProbEstimate", "QuadratureError", "SectorModel", "effective_prob_closed",
            "effective_prob_mc", "effective_prob_quadrature", "sample_doas",
            "spatial_freq_pdf", "theta_pdf", "ApproximationReport", "ScenarioConfig",
            "ScenarioResult", "approximation_quality", "run_scenario", "CheckResult",
            "run_checks",
        }

    def test_json_writer_refuses_nan_and_infinity(self, tmp_path):
        for bad in (math.nan, math.inf):
            out = tmp_path / "bad.json"
            with pytest.raises(ValueError):
                _write_json(str(out), {"value": bad})
            assert not out.exists()

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "pat.csv"
        run_cli("pattern", "--d-tilde", 10, "--delta-min", -0.2, "--delta-max", 0.2,
                "--steps", 41, "--out", out)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        deltas = np.array([float(r[0]) for r in rows])
        # 17 significant digits reproduce the doubles exactly
        np.testing.assert_array_equal(deltas, np.linspace(-0.2, 0.2, 41))

    def test_console_script_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lensmimo.cli", "prob", "--d-tilde", "10",
             "--method", "closed", "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads((tmp_path / "m.json").read_text())["method"] == "closed"
