"""Command-line front end emitting CSV series and JSON records.

Subcommands: pattern (interference sweep), prob (effective-interferer
probability), density (separation density table), scenario (multiuser
ensemble), selfcheck (verification suite). Every run writes a manifest
sidecar naming the command, full parameter set, and outputs, sufficient
to reproduce the files exactly.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 domain error.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .array_model import LensArrayConfig, SincConvention
from .harness import ScenarioConfig, approximation_quality, run_scenario
from .interference import sweep_pattern
from .selfcheck import run_checks
from .stochastic import (
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
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
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


def _fmt(x: float) -> str:
    """17 significant digits: round-trip safe for IEEE doubles."""
    return f"{x:.17g}"


def _resolve_out(path: str) -> str:
    if not os.path.isabs(path):
        base = os.environ.get(OUTDIR_ENV, "")
        if base:
            path = os.path.join(base, path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, record: dict) -> None:
    # NaN and Infinity are not JSON; json.dumps raises ValueError on them.
    _write_text(path, json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_manifest(primary: str, command: str, params: dict, outputs: list, started: float, extra: dict = None) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "outputs": [os.path.basename(p) for p in outputs],
        "duration_seconds": time.monotonic() - started,
    }
    if extra:
        manifest.update(extra)
    _write_json(primary + ".manifest.json", manifest)


def _array_config(args) -> LensArrayConfig:
    convention = SincConvention(getattr(args, "convention", "normalized"))
    return LensArrayConfig(d_tilde=args.d_tilde, a_z=args.a_z, sinc_convention=convention)


def _cmd_pattern(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.delta_max <= args.delta_min:
        raise UsageError("--delta-max must exceed --delta-min")
    started = time.monotonic()
    config = _array_config(args)
    if args.phi_l_sf is not None:
        phi_l = args.phi_l_sf
    else:
        phi_l = math.sin(math.radians(args.phi_l_deg))
    grid = np.linspace(args.delta_min, args.delta_max, args.steps)
    series = sweep_pattern(config, phi_l, grid)

    out = _resolve_out(args.out)
    lines = ["delta,theta_norm,power_linear,power_db,effective"]
    for i in range(len(series)):
        lines.append(
            ",".join(
                (
                    _fmt(series.deltas[i]),
                    _fmt(series.theta_norms[i]),
                    _fmt(series.powers_linear[i]),
                    _fmt(series.powers_db[i]),
                    "true" if series.effective[i] else "false",
                )
            )
        )
    _write_text(out, "\n".join(lines) + "\n")
    _write_manifest(out, "pattern", _params(args), [out], started,
                    extra={"skipped_points": series.skipped_count})
    return EXIT_OK


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
            sample_count=est.sample_count,
            seed=est.seed,
        )
    out = _resolve_out(args.out)
    _write_json(out, record)
    _write_manifest(out, "prob", _params(args), [out], started)
    return EXIT_OK


def _cmd_density(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.z_max <= args.z_min:
        raise UsageError("--z-max must exceed --z-min")
    started = time.monotonic()
    grid = np.linspace(args.z_min, args.z_max, args.steps)
    values = theta_pdf(grid, args.d_tilde)

    out = _resolve_out(args.out)
    lines = ["z,f_theta"]
    for z, f in zip(grid, values):
        lines.append(f"{_fmt(z)},{_fmt(f)}")
    _write_text(out, "\n".join(lines) + "\n")
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    integral = float(trapezoid(values, grid))
    _write_manifest(out, "density", _params(args), [out], started,
                    extra={"grid_integral": integral})
    return EXIT_OK


def _cmd_scenario(args) -> int:
    started = time.monotonic()
    config = ScenarioConfig(
        array=_array_config(args),
        user_count=args.users,
        trial_count=args.trials,
        seed=args.seed,
    )
    result = run_scenario(config, threads=args.threads)
    report = approximation_quality(config, scenario_result=result)

    out = _resolve_out(args.out)
    base = os.path.splitext(out)[0]
    cdf_path = base + ".cdf.csv"
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
    _write_json(out, summary)
    lines = ["power,cdf"]
    for p, c in zip(result.cdf_grid, result.cdf_values):
        lines.append(f"{_fmt(p)},{_fmt(c)}")
    _write_text(cdf_path, "\n".join(lines) + "\n")
    _write_manifest(out, "scenario", _params(args), [out, cdf_path], started)
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    results = run_checks(corrupt_closed_form=args.corrupt_closed_form)
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
    pat.add_argument("--convention", choices=["normalized", "unnormalized"], default="normalized")
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
    scen.add_argument("--convention", choices=["normalized", "unnormalized"], default="normalized")
    scen.add_argument("--out", required=True)
    scen.set_defaults(func=_cmd_scenario)

    chk = sub.add_parser("selfcheck", help="run the built-in verification suite")
    chk.add_argument("--corrupt-closed-form", action="store_true", help=argparse.SUPPRESS)
    chk.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
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
