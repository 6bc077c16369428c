"""Output checks for benchmark jobs. Each returns a list of problems; empty means pass.

Deterministic values are held to the oracle bounds of the project (1e-9
relative, 1e-12 of the pattern scale absolute near zero). Statistical
values are held to 5 standard errors.
"""

import json
import math

import numpy as np

import reference

STAT_BOUND_SE = 5.0
REL_TOL = 1e-9


def _close(got, want, rel=REL_TOL) -> bool:
    return math.isclose(got, want, rel_tol=rel)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    """Strict JSON: NaN and Infinity are not JSON and are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _csv_columns(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}, expected {header!r}")
    return list(zip(*(line.split(",") for line in lines[1:])))


# -- drop ensembles ---------------------------------------------------------

def ensemble(spec, seed: int, out: dict, p_ref: float) -> list:
    """One ensemble job: structure, bounds, recomputed means, count vs (L-1) P."""
    L, T = spec["users"], spec["trials"]
    exact, eff, counts = out["exact_totals"], out["effective_totals"], out["effective_counts"]
    if exact.shape != (T, L) or eff.shape != (T, L) or counts.shape != (T, L):
        return [f"totals shape {exact.shape}, expected {(T, L)}"]
    problems = []
    if not (np.all(np.isfinite(exact)) and np.all(eff >= 0.0)):
        problems.append("non-finite or negative totals")
    if np.any(eff > exact * (1.0 + 1e-12)):
        problems.append("an effective total exceeds its exact total")
    if counts.min() < 0 or counts.max() > L - 1:
        problems.append(f"counts outside [0, {L - 1}]")
    frac = out["captured_fraction"]
    if not 0.0 < frac <= 1.0:
        problems.append(f"captured fraction {frac} outside (0, 1]")
    if not _close(frac, out["mean_effective"] / out["mean_exact"], rel=1e-12):
        problems.append("captured fraction is not mean_effective / mean_exact")
    for key in ("exact_summary", "effective_summary"):
        s = out[key]
        q = [s["q10"], s["median"], s["q90"], s["q99"]]
        if any(a > b for a, b in zip(q, q[1:])):
            problems.append(f"{key} quantiles out of order: {q}")
    ref = reference.ensemble_means(seed, spec["d_tilde"], L, T)
    for key, want in ref.items():
        if not _close(out[key], want):
            problems.append(f"{key} {out[key]!r}, recomputed {want!r}")
    se = out["mean_effective_count_se"]
    target = (L - 1) * p_ref
    if not se > 0.0 or abs(out["mean_effective_count"] - target) > STAT_BOUND_SE * se:
        problems.append(
            f"effective count {out['mean_effective_count']:.6f} vs (L-1) P = {target:.6f}, se {se:.3g}"
        )
    return problems


def ensemble_pooled(spec, records: list, p_ref: float) -> list:
    """Across all jobs of a run: the count within 5 pooled SE, capture above the share.

    A single job's captured fraction scatters by about 0.004 at d_tilde = 100
    and L = 10, close to its margin over the mainlobe share, so the share is
    checked on the pooled ratio of means.
    """
    if not records:
        return ["no completed job to pool"]
    n = len(records)
    count = sum(r["mean_effective_count"] for r in records) / n
    se = math.sqrt(sum(r["mean_effective_count_se"] ** 2 for r in records)) / n
    target = (spec["users"] - 1) * p_ref
    problems = []
    if abs(count - target) > STAT_BOUND_SE * se:
        problems.append(f"pooled effective count {count:.6f} vs {target:.6f}, se {se:.3g}")
    frac = sum(r["mean_effective"] for r in records) / sum(r["mean_exact"] for r in records)
    share = reference.mainlobe_share()
    if not share < frac <= 1.0:
        problems.append(f"pooled captured fraction {frac:.6f} not in ({share:.6f}, 1]")
    return problems


# -- CLI figures ------------------------------------------------------------

def pattern(text: str, d_tilde: float, a_z: float, deltas: np.ndarray) -> list:
    """Broadside pattern CSV against (A^2/M) sinc^2(d_tilde delta)."""
    try:
        cols = _csv_columns(text, "delta,theta_norm,power_linear,power_db,effective")
    except ValueError as exc:
        return [f"pattern: {exc}"]
    if not cols or len(cols[0]) != deltas.size:
        return [f"pattern: {len(cols[0]) if cols else 0} rows, expected {deltas.size}"]
    delta, theta, power, power_db = (np.array(c, dtype=float) for c in cols[:4])
    problems = []
    if not np.array_equal(delta, deltas):
        problems.append("pattern: delta column is not the requested grid")
    if not np.allclose(theta, d_tilde * deltas, rtol=1e-15, atol=0.0):
        problems.append("pattern: theta_norm is not d_tilde * delta")
    want = reference.broadside_pattern(d_tilde, a_z, deltas)
    scale = (d_tilde * a_z) ** 2 / reference.element_count(d_tilde)
    err = np.abs(power - want)
    if np.any(err > REL_TOL * want + 1e-12 * scale):
        i = int(np.argmax(err - REL_TOL * want))
        problems.append(f"pattern: power {power[i]!r} at delta {delta[i]!r}, sinc^2 law {want[i]!r}")
    if not np.allclose(power_db, 10.0 * np.log10(np.maximum(power, 1e-300)), rtol=1e-12, atol=1e-9):
        problems.append("pattern: power_db is not 10 log10(power)")
    if list(cols[4]) != ["true" if abs(t) <= 1.0 else "false" for t in theta]:
        problems.append("pattern: effective column is not |theta_norm| <= 1")
    return problems


def prob_closed(record: dict, d_tilde: float) -> list:
    want = reference.closed_prob(d_tilde)
    if record.get("method") != "closed" or not _close(record["value"], want, rel=1e-12):
        return [f"prob closed at {d_tilde}: {record.get('value')!r}, formula {want!r}"]
    return []


def prob_quadrature(record: dict, d_tilde: float, p_ref: float) -> list:
    if record.get("method") != "quadrature" or not abs(record["value"] - p_ref) <= 1e-6:
        return [f"prob quadrature at {d_tilde}: {record.get('value')!r}, reference {p_ref!r}"]
    return []


def prob_mc(record: dict, d_tilde: float, samples: int, seed: int, p_ref: float) -> list:
    problems = []
    p, se = record["value"], record["std_error"]
    if record.get("sample_count") != samples or record.get("seed") != seed:
        problems.append(f"prob mc: sample_count/seed {record.get('sample_count')}/{record.get('seed')}")
    if not _close(se, math.sqrt(p * (1.0 - p) / samples), rel=1e-12):
        problems.append(f"prob mc: std_error {se!r} is not sqrt(p(1-p)/n)")
    if not abs(p - p_ref) <= STAT_BOUND_SE * se:
        problems.append(f"prob mc at {d_tilde}: {p!r}, reference {p_ref!r}, se {se!r}")
    return problems


def density(text: str, manifest: dict, d_tilde: float, zs: np.ndarray) -> list:
    """Density CSV over the full support: unit integral and the exact centre value."""
    try:
        cols = _csv_columns(text, "z,f_theta")
    except ValueError as exc:
        return [f"density: {exc}"]
    if not cols or len(cols[0]) != zs.size:
        return [f"density: {len(cols[0]) if cols else 0} rows, expected {zs.size}"]
    z, f = (np.array(c, dtype=float) for c in cols)
    problems = []
    if not np.array_equal(z, zs):
        problems.append("density: z column is not the requested grid")
    if np.any(f < 0.0):
        problems.append("density: negative values")
    integral = float(np.trapezoid(f, z))
    if abs(integral - 1.0) > 1e-8:
        problems.append(f"density: integrates to {integral!r}")
    if not _close(manifest.get("grid_integral", math.nan), integral, rel=1e-12):
        problems.append(f"density: manifest grid_integral {manifest.get('grid_integral')!r}, file {integral!r}")
    mid = int(np.argmin(np.abs(z)))
    centre = reference.density_centre(d_tilde)
    if abs(z[mid]) > 1e-9 or not _close(f[mid], centre):
        problems.append(f"density: f({z[mid]!r}) = {f[mid]!r}, centre {centre!r}")
    return problems


def selfcheck(code: int, stdout: str) -> list:
    lines = stdout.strip().splitlines()
    last = lines[-1].split() if lines else []
    if code != 0 or any(line.startswith("FAIL") for line in lines) or not last:
        return [f"selfcheck exit {code}: {lines[-1] if lines else 'no output'}"]
    passed, _, total = last[0].partition("/")
    if passed != total or last[1:] != ["checks", "passed"]:
        return [f"selfcheck summary {lines[-1]!r}"]
    return []
