"""The three workloads: job inputs from a seed, the timed call, the checks.

A job is built from one seed (the run seed plus the job index), run once
with the clock on, then checked with the clock off. Every module-level
lensmimo name is looked up at call time, so the tracer's wrappers apply.
"""

import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

import checks
import reference
from lensmimo import cli, harness
from lensmimo.array_model import LensArrayConfig

SECTOR_EDGE = math.sin(math.pi / 3.0)


class Ensemble:
    """run_scenario plus approximation_quality on one fixed geometry.

    An item is one ordered user pair, T L (L - 1) per job. The calibration
    is the reference sinc-Gram recomputation of a fixed quarter-size
    ensemble: the same kind of work, done without lensmimo. cal_ref_s is a
    fixed constant near its time on the reference box (README).
    """

    def __init__(self, d_tilde: float, users: int, trials: int, cal_ref_s: float):
        self.spec = {"d_tilde": d_tilde, "users": users, "trials": trials}
        self.items = trials * users * (users - 1)
        self.cal_ref_s = cal_ref_s
        self._p_ref = reference.effective_prob(d_tilde)
        self._records = []

    def make_job(self, seed: int):
        s = self.spec
        return harness.ScenarioConfig(
            array=LensArrayConfig(d_tilde=s["d_tilde"]),
            user_count=s["users"],
            trial_count=s["trials"],
            seed=seed,
        )

    def calibrate(self) -> None:
        s = self.spec
        reference.ensemble_means(0, s["d_tilde"], s["users"], s["trials"] // 4)

    def run(self, config):
        result = harness.run_scenario(config, threads=1)
        report = harness.approximation_quality(config, scenario_result=result)
        return result, report

    def check(self, config, outputs) -> list:
        out = ensemble_outputs(*outputs)
        self._records.append({k: out[k] for k in (
            "mean_exact", "mean_effective", "mean_effective_count", "mean_effective_count_se")})
        return checks.ensemble(self.spec, config.seed, out, self._p_ref)

    def pooled(self) -> list:
        return checks.ensemble_pooled(self.spec, self._records, self._p_ref)

    def bytes_written(self, job) -> int:
        return 0

    def cleanup(self, job) -> None:
        pass


def ensemble_outputs(result, report) -> dict:
    """The ScenarioResult and ApproximationReport fields the checks read."""
    out = {k: getattr(result, k) for k in (
        "exact_totals", "effective_totals", "effective_counts", "exact_summary",
        "effective_summary", "mean_effective_count", "mean_effective_count_se")}
    out.update((k, getattr(report, k)) for k in ("mean_exact", "mean_effective", "captured_fraction"))
    return out


class CliJob:
    """The argument lists of one figure set and the values they were built from."""

    def __init__(self, seed: int, workdir: Path):
        # Apertures move by up to 0.1% and pattern edges by up to 0.01 from
        # job to job, so no two jobs repeat a computation.
        u = np.random.default_rng(seed).random(6).tolist()
        self.seed = seed
        self.dir = workdir / f"job-{seed}"
        self.prob_d = [base * (1.0 + 1e-3 * x) for base, x in zip((5.0, 10.0, 20.0), u)]
        self.mc_d = self.prob_d[1]
        self.mc_samples = 1_000_000
        self.pattern_d = 100.0
        self.pattern_grid = (-0.5 - 0.01 * u[3], 0.5 + 0.01 * u[4], 2001)
        self.density_d = 10.0 * (1.0 + 1e-3 * u[5])
        edge = 2.0 * SECTOR_EDGE * self.density_d
        self.density_grid = (-edge, edge, 801)

        def out(name):
            return str(self.dir / name)

        lo_d, hi_d, steps = self.pattern_grid
        self.commands = [
            ["pattern", "--d-tilde", repr(self.pattern_d), "--phi-l-deg", "0",
             "--delta-min", repr(lo_d), "--delta-max", repr(hi_d), "--steps", str(steps),
             "--out", out("pattern.csv")],
        ]
        for i, d in enumerate(self.prob_d):
            for method in ("closed", "quadrature"):
                self.commands.append(["prob", "--d-tilde", repr(d), "--method", method,
                                      "--out", out(f"prob_{method}_{i}.json")])
        self.commands.append(["prob", "--d-tilde", repr(self.mc_d), "--method", "mc",
                              "--samples", str(self.mc_samples), "--seed", str(seed),
                              "--threads", "1", "--out", out("prob_mc.json")])
        z_lo, z_hi, z_steps = self.density_grid
        self.commands.append(["density", "--d-tilde", repr(self.density_d), "--z-min", repr(z_lo),
                              "--z-max", repr(z_hi), "--steps", str(z_steps), "--out", out("density.csv")])
        self.commands.append(["selfcheck"])

    def read(self, name: str) -> str:
        return (self.dir / name).read_text(encoding="utf-8")


class CliFigures:
    """One figure set per job through lensmimo.cli.main, in process.

    An item is one completed figure set. The calibration mixes the kinds of
    work a figure set does, without lensmimo: one pair at a time on small
    NumPy arrays, quadrature with Python callbacks, and vectorised NumPy.
    """

    items = 1
    cal_ref_s = 0.034

    def __init__(self, workdir: Path):
        self._workdir = workdir

    def calibrate(self) -> None:
        u = Generator(Philox(key=0)).random(3000).tolist()
        for i in range(0, len(u), 2):
            reference.pair_power(10.37, 0.8 * u[i] - 0.4, 0.8 * u[i + 1] - 0.4)
        for d in (5.0, 10.0, 20.0, 50.0):
            reference.effective_prob(d)
        st = np.sin((2.0 * Generator(Philox(key=1)).random(400_000) - 1.0) * math.pi / 3.0)
        np.count_nonzero(np.abs(10.0 * (st[0::2] - st[1::2])) <= 1.0)
        reference.broadside_pattern(100.0, 1.0, np.linspace(-0.5, 0.5, 2001))

    def make_job(self, seed: int) -> CliJob:
        return CliJob(seed, self._workdir)

    def run(self, job: CliJob):
        codes = []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
            for argv in job.commands:
                codes.append(cli.main(argv))
        return codes, stdout.getvalue()

    def check(self, job: CliJob, outputs) -> list:
        codes, stdout = outputs
        problems = [f"exit {code}: {' '.join(argv[:3])}" for code, argv in zip(codes, job.commands) if code != 0]
        if problems:
            return problems + [stdout[-500:]]
        try:
            manifests = {p.name: checks.parse_json(p.read_text(encoding="utf-8"))
                         for p in job.dir.glob("*.manifest.json")}
            records = {name: checks.parse_json(job.read(name)) for name in
                       [f"prob_{m}_{i}.json" for i in range(3) for m in ("closed", "quadrature")]
                       + ["prob_mc.json"]}
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if len(manifests) != len(job.commands) - 1:
            problems.append(f"{len(manifests)} manifests for {len(job.commands) - 1} figures")
        problems += checks.pattern(job.read("pattern.csv"), job.pattern_d, 1.0, np.linspace(*job.pattern_grid))
        for i, d in enumerate(job.prob_d):
            problems += checks.prob_closed(records[f"prob_closed_{i}.json"], d)
            problems += checks.prob_quadrature(records[f"prob_quadrature_{i}.json"], d, reference.effective_prob(d))
        problems += checks.prob_mc(records["prob_mc.json"], job.mc_d, job.mc_samples, job.seed,
                              reference.effective_prob(job.mc_d))
        problems += checks.density(job.read("density.csv"), manifests.get("density.csv.manifest.json", {}),
                              job.density_d, np.linspace(*job.density_grid))
        problems += checks.selfcheck(codes[-1], stdout)
        return problems

    def pooled(self) -> list:
        return []

    def bytes_written(self, job: CliJob) -> int:
        return sum(p.stat().st_size for p in job.dir.iterdir())

    def cleanup(self, job: CliJob) -> None:
        shutil.rmtree(job.dir, ignore_errors=True)


NAMES = ("ensemble_wide_array", "ensemble_many_users", "cli_figures")


def make(name: str, workdir: Path):
    """The workload called name; workdir receives CLI outputs."""
    if name == "ensemble_wide_array":
        # d_tilde = 100 (M = 201), L = 10: sinc profiles, O(T L M), dominate.
        return Ensemble(d_tilde=100.0, users=10, trials=1500, cal_ref_s=0.026)
    if name == "ensemble_many_users":
        # d_tilde = 5 (M = 11), L = 200: the L x L Gram, gate and sums dominate.
        return Ensemble(d_tilde=5.0, users=200, trials=200, cal_ref_s=0.047)
    if name == "cli_figures":
        return CliFigures(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
