"""Command-line front end emitting CSV series and JSON records.

Subcommands: pattern (interference sweep), prob (effective-interferer
probability), density (separation density table), scenario (multiuser
ensemble), selfcheck (verification suite). Every run writes a manifest
sidecar naming the command, full parameter set, and outputs, sufficient
to reproduce the files exactly.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 domain error.
A usage or domain error writes no file.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .array_model import LensArrayConfig
from .harness import ScenarioConfig, approximation_quality, run_scenario
from .interference import sweep_pattern
from .selfcheck import run_checks
from .stochastic import (
    MAX_THREADS,
    effective_prob_closed,
    effective_prob_mc,
    effective_prob_quadrature,
    theta_pdf,
)

OUTDIR_ENV = "LENSMIMO_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _thread_count(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must lie in [1, {MAX_THREADS}], got {value}")
    return value


def _seed(text: str) -> int:
    # Philox takes a 128-bit key
    value = int(text)
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**128), got {value}")
    return value


def _params(args) -> dict:
    """The parsed flags of a run, as its manifest records them."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "command")}


def _csv(header: str, row_format: str, *columns) -> str:
    """A CSV table of equal-length columns, one %-format per row.

    %.17g gives 17 significant digits, round-trip safe for IEEE doubles,
    and the same text as format(x, ".17g"), since both use the float
    formatter.
    """
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return "\n".join([header, *(row_format % row for row in rows)]) + "\n"


def _grid(lo: float, hi: float, steps: int, flag: str) -> np.ndarray:
    """steps points from lo to hi, the values of the flags flag-min and
    flag-max; a grid np.linspace cannot make is a usage error."""
    if steps < 2:
        raise UsageError("--steps must be at least 2")
    if hi <= lo:
        raise UsageError(f"{flag}-max must exceed {flag}-min")
    # np.linspace warns and fills NaN when hi - lo overflows; a Python float gives inf
    if not math.isfinite(hi - lo):
        raise UsageError(f"{flag}-max minus {flag}-min must be a finite double, got {hi!r} - {lo!r}")
    return np.linspace(lo, hi, steps)


def _emit(args, started: float, files: dict, **extra) -> int:
    """Write files, {path: CSV text or JSON record}, and beside the first,
    args.out, the manifest of the run with the fields extra.

    Every text, the manifest's too, is formatted before the directory is
    made and the first file opened, so a run whose output cannot be
    formatted, such as a record that holds NaN, writes nothing. Relative
    paths resolve against $LENSMIMO_OUTDIR when it is set.
    """
    manifest = {
        "command": args.command,
        "parameters": _params(args),
        "version": __version__,
        "outputs": [os.path.basename(path) for path in files],
        "duration_seconds": time.monotonic() - started,
        **extra,
    }
    texts = {}
    for path, content in {**files, args.out + ".manifest.json": manifest}.items():
        if not isinstance(content, str):
            # NaN and Infinity are not JSON; json.dumps raises ValueError on them.
            content = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        texts[os.path.join(os.environ.get(OUTDIR_ENV, ""), path)] = content
    os.makedirs(os.path.dirname(os.path.abspath(next(iter(texts)))), exist_ok=True)
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_pattern(args) -> int:
    started = time.monotonic()
    grid = _grid(args.delta_min, args.delta_max, args.steps, "--delta")
    config = LensArrayConfig(d_tilde=args.d_tilde, a_z=args.a_z)
    if args.phi_l_sf is not None:
        phi_l = args.phi_l_sf
    else:
        phi_l = math.sin(math.radians(args.phi_l_deg))
    series = sweep_pattern(config, phi_l, grid)
    text = _csv(
        "delta,theta_norm,power_linear,power_db,effective",
        "%.17g,%.17g,%.17g,%.17g,%s",
        series.deltas, series.theta_norms, series.powers_linear, series.powers_db,
        np.where(series.effective, "true", "false"),
    )
    return _emit(args, started, {args.out: text}, skipped_points=series.skipped_count)


def _cmd_prob(args) -> int:
    started = time.monotonic()
    record = {"d_tilde": args.d_tilde, "method": args.method}
    if args.method == "closed":
        record["value"] = effective_prob_closed(args.d_tilde)
    elif args.method == "quadrature":
        record["value"] = effective_prob_quadrature(args.d_tilde)
    else:
        if args.samples is None or args.seed is None:
            raise UsageError("--method mc requires --samples and --seed")
        est = effective_prob_mc(
            args.d_tilde, sample_count=args.samples, seed=args.seed, threads=args.threads
        )
        record.update(
            value=est.value,
            std_error=est.std_error,
            wilson_95=list(est.wilson_interval),
            sample_count=est.sample_count,
            seed=est.seed,
        )
    return _emit(args, started, {args.out: record})


def _cmd_density(args) -> int:
    started = time.monotonic()
    grid = _grid(args.z_min, args.z_max, args.steps, "--z")
    values = theta_pdf(grid, args.d_tilde)
    with np.errstate(over="ignore"):
        integral = float(np.trapezoid(values, grid))
    if not math.isfinite(integral):  # the density peaks near 0.6/d_tilde
        raise ValueError(f"the grid integral of the density overflows a double for --d-tilde {args.d_tilde!r} "
                         f"on --z-min {args.z_min!r} to --z-max {args.z_max!r}")
    text = _csv("z,f_theta", "%.17g,%.17g", grid, values)
    return _emit(args, started, {args.out: text}, grid_integral=integral)


def _cmd_scenario(args) -> int:
    started = time.monotonic()
    config = ScenarioConfig(
        array=LensArrayConfig(d_tilde=args.d_tilde, a_z=args.a_z),
        user_count=args.users,
        trial_count=args.trials,
        seed=args.seed,
    )
    result = run_scenario(config, threads=args.threads)
    report = approximation_quality(config, scenario_result=result)
    summary = {
        "d_tilde": args.d_tilde,
        "a_z": args.a_z,
        "users": args.users,
        "trials": args.trials,
        "seed": args.seed,
        "mean_exact": report.mean_exact,
        "mean_effective": report.mean_effective,
        "captured_fraction": report.captured_fraction,
        "mean_effective_count": result.mean_effective_count,
        "mean_effective_count_se": result.mean_effective_count_se,
        "exact_summary": result.exact_summary,
        "effective_summary": result.effective_summary,
    }
    cdf = _csv("power,cdf", "%.17g,%.17g", result.cdf_grid, result.cdf_values)
    return _emit(args, started, {args.out: summary, os.path.splitext(args.out)[0] + ".cdf.csv": cdf})


def _cmd_selfcheck(args) -> int:
    results = run_checks()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lensmimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pat = sub.add_parser("pattern", help="interference pattern sweep to CSV")
    pat.add_argument("--d-tilde", type=_finite_float, required=True)
    pat.add_argument("--a-z", type=_finite_float, default=1.0)
    pat.add_argument("--phi-l-deg", type=_finite_float, default=0.0,
                     help="desired-user DOA in degrees")
    pat.add_argument("--phi-l-sf", type=_finite_float, default=None,
                     help="desired-user spatial frequency, overrides --phi-l-deg")
    pat.add_argument("--delta-min", type=_finite_float, default=-0.5)
    pat.add_argument("--delta-max", type=_finite_float, default=0.5)
    pat.add_argument("--steps", type=int, default=2001)
    pat.add_argument("--out", required=True)
    pat.set_defaults(func=_cmd_pattern)

    prob = sub.add_parser("prob", help="effective-interferer probability to JSON")
    prob.add_argument("--d-tilde", type=_finite_float, required=True)
    prob.add_argument("--method", choices=["closed", "quadrature", "mc"], required=True)
    prob.add_argument("--samples", type=int, default=None)
    prob.add_argument("--seed", type=_seed, default=None)
    prob.add_argument("--threads", type=_thread_count, default=1)
    prob.add_argument("--out", required=True)
    prob.set_defaults(func=_cmd_prob)

    den = sub.add_parser("density", help="separation density table to CSV")
    den.add_argument("--d-tilde", type=_finite_float, required=True)
    den.add_argument("--z-min", type=_finite_float, required=True)
    den.add_argument("--z-max", type=_finite_float, required=True)
    den.add_argument("--steps", type=int, default=801)
    den.add_argument("--out", required=True)
    den.set_defaults(func=_cmd_density)

    scen = sub.add_parser("scenario", help="multiuser drop ensemble to JSON + CDF CSV")
    scen.add_argument("--d-tilde", type=_finite_float, required=True)
    scen.add_argument("--a-z", type=_finite_float, default=1.0)
    scen.add_argument("--users", type=int, required=True)
    scen.add_argument("--trials", type=int, required=True)
    scen.add_argument("--seed", type=_seed, required=True)
    scen.add_argument("--threads", type=_thread_count, default=1)
    scen.add_argument("--out", required=True)
    scen.set_defaults(func=_cmd_scenario)

    chk = sub.add_parser("selfcheck", help="run the built-in verification suite")
    chk.set_defaults(func=_cmd_selfcheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one serves every main call.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        # NumPy's message names the allocation that failed
        print(f"domain error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse --help exits 0; anything else is a usage problem
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code


if __name__ == "__main__":
    sys.exit(main())
