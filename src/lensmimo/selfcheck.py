"""Built-in verification suite run by the CLI selfcheck command.

Every check exercises a property that must hold in a healthy build:
agreement of both closed-form paths, scalar and array, with the direct
oracle, exact grid behavior, pattern metrics, density normalization,
cross-method agreement of the probability estimators, and determinism of
the stochastic layers across thread counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .array_model import LensArrayConfig
from .harness import ScenarioConfig, approximation_quality, run_scenario
from .interference import (
    SIDELOBE_PEAK_X,
    _pair_powers,
    first_null,
    pairwise_interference_closed,
    pairwise_interference_direct,
    sidelobe_ratio_db,
)
from .stochastic import (
    _integrate,
    _unit_stream,
    effective_prob_closed,
    effective_prob_mc,
    effective_prob_quadrature,
    sample_doas,
    theta_pdf,
)


# Shapes of the determinism check, each large enough to split into at least
# two pieces, so the threaded runs really run in parallel: 100,000 Monte
# Carlo pairs are two ranges, and 2 drops of 212 users are two ranges of
# one drop, 212 being the fewest users for which harness._layout gives each
# of two drops a chunk of its own.
DETERMINISM_MC_SAMPLES = 100_000
DETERMINISM_USERS = 212
DETERMINISM_TRIALS = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst_error(closed: np.ndarray, direct: np.ndarray) -> float:
    """Largest error, relative where either power exceeds 1e-6, else absolute."""
    err = np.abs(closed - direct)
    big = np.maximum(closed, direct)
    return float(np.divide(err, big, out=err, where=big > 1e-6).max())


def _check_closed_vs_direct() -> CheckResult:
    """The scalar and the array closed forms against one batched oracle call
    per aperture, over the same 2000 pairs."""
    worst = 0.0
    s = math.sqrt(3.0) / 2.0
    for i, d_tilde in enumerate((5.0, 10.0, 20.0)):
        config = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        u = _unit_stream(seed=1234 + i, offset=0, count=4000).reshape(-1, 2)
        sf_l, sf_k = ((2.0 * u - 1.0) * s).T
        direct = pairwise_interference_direct(config, sf_l, sf_k)
        scalar = np.array([
            pairwise_interference_closed(config, a, b)
            for a, b in zip(sf_l.tolist(), sf_k.tolist())
        ])
        batch = _pair_powers(config, sf_l[:, None], sf_k[:, None])[:, 0, 0]
        for closed in (scalar, batch):
            worst = max(worst, _worst_error(closed, direct))
    return CheckResult(
        name="closed form matches direct inner product",
        passed=worst <= 1e-9,
        detail=f"worst relative error {worst:.3e} over 6000 pairs, scalar and array (tol 1e-9)",
    )


def _check_grid_orthogonality() -> CheckResult:
    config = LensArrayConfig(d_tilde=10.0, a_z=10.0)
    value = pairwise_interference_direct(config, 3 / 10, 7 / 10)
    ok = value == 0.0
    return CheckResult(
        name="distinct grid points are exactly orthogonal",
        passed=ok,
        detail=f"interference at grid pair = {value!r} (expect exactly 0.0)",
    )


def _check_self_alignment() -> CheckResult:
    config = LensArrayConfig(d_tilde=10.0, a_z=10.0)
    expect = config.peak_power
    got = pairwise_interference_closed(config, 0.0, 0.0)
    ok = math.isclose(got, expect, rel_tol=1e-12)
    return CheckResult(
        name="self-alignment power equals A^2/M",
        passed=ok,
        detail=f"got {got:.12g}, expect {expect:.12g}",
    )


def _check_first_null() -> CheckResult:
    config = LensArrayConfig(d_tilde=20.0)
    null = first_null(config, 0.0)
    power = pairwise_interference_direct(config, 0.0, -null)
    return CheckResult(
        name="direct pattern vanishes at the first null",
        passed=power == 0.0,
        detail=f"first null {null:.6f}, direct power there {power!r} (expect exactly 0.0)",
    )


def _check_sidelobe() -> CheckResult:
    config = LensArrayConfig(d_tilde=20.0)
    ratio = sidelobe_ratio_db(config)
    side, below, above = (
        pairwise_interference_direct(config, 0.0, -x / config.d_tilde)
        for x in (SIDELOBE_PEAK_X, SIDELOBE_PEAK_X - 1e-4, SIDELOBE_PEAK_X + 1e-4)
    )
    direct = 10.0 * math.log10(pairwise_interference_direct(config, 0.0, 0.0) / side)
    err = abs(ratio - direct)
    peak_ok = max(below, above) < side
    return CheckResult(
        name="sidelobe ratio matches the direct pattern",
        passed=err <= 1e-9 and peak_ok,
        detail=(
            f"ratio {ratio:.9f} dB, off the direct pattern by {err:.1e} dB (tol 1e-9), "
            f"sidelobe peaks at x_1 {peak_ok}"
        ),
    )


def _check_density_normalization() -> CheckResult:
    worst = max(
        abs(2.0 * _integrate(lambda z: theta_pdf(z, d), 0.0, math.sqrt(3.0) * d) - 1.0)
        for d in (2.0, 10.0, 50.0)
    )
    return CheckResult(
        name="separation density integrates to 1",
        passed=worst <= 1e-6,
        detail=f"worst |integral - 1| = {worst:.3e} over d_tilde in (2, 10, 50)",
    )


def _check_prob_agreement() -> CheckResult:
    quad = effective_prob_quadrature(10.0)
    mc = effective_prob_mc(10.0, sample_count=200_000, seed=314159)
    mc_ok = abs(mc.value - quad) <= 4.0 * mc.std_error
    closed = effective_prob_closed(10.0)
    closed_ok = abs(closed - quad) / quad <= 0.15
    return CheckResult(
        name="probability estimators agree",
        passed=mc_ok and closed_ok,
        detail=(
            f"quad {quad:.6f}, mc {mc.value:.6f} (se {mc.std_error:.6f}), "
            f"closed {closed:.6f} (first-order, 15% envelope)"
        ),
    )


def _check_determinism() -> CheckResult:
    a = sample_doas(seed=77, count=1000)
    b = sample_doas(seed=77, count=1000)
    doas_ok = np.array_equal(a, b)
    m1 = effective_prob_mc(10.0, sample_count=DETERMINISM_MC_SAMPLES, seed=5, threads=1)
    m4 = effective_prob_mc(10.0, sample_count=DETERMINISM_MC_SAMPLES, seed=5, threads=4)
    mc_ok = m1.value == m4.value
    cfg = ScenarioConfig(
        array=LensArrayConfig(d_tilde=10.0),
        user_count=DETERMINISM_USERS,
        trial_count=DETERMINISM_TRIALS,
        seed=9,
    )
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg, threads=3)
    scen_ok = np.array_equal(r1.exact_totals, r2.exact_totals) and np.array_equal(
        r1.effective_totals, r2.effective_totals
    )
    return CheckResult(
        name="stochastic layers are deterministic",
        passed=doas_ok and mc_ok and scen_ok,
        detail=f"doas {doas_ok}, mc threads {mc_ok}, scenario threads {scen_ok}",
    )


def _check_harness_bounds() -> CheckResult:
    cfg = ScenarioConfig(array=LensArrayConfig(d_tilde=10.0), user_count=5, trial_count=300, seed=11)
    res = run_scenario(cfg)
    bound_ok = bool(np.all(res.effective_totals <= res.exact_totals))
    count_ok = bool(np.all(res.effective_counts <= cfg.user_count - 1))
    rep = approximation_quality(cfg, scenario_result=res)
    frac_ok = 0.0 < rep.captured_fraction <= 1.0
    return CheckResult(
        name="ensemble bounds hold",
        passed=bound_ok and count_ok and frac_ok,
        detail=(
            f"effective<=exact {bound_ok}, counts<=L-1 {count_ok}, "
            f"captured fraction {rep.captured_fraction:.4f}"
        ),
    )


def run_checks() -> list:
    """Run all checks, in a fixed order, and return their CheckResults."""
    return [
        _check_closed_vs_direct(),
        _check_grid_orthogonality(),
        _check_self_alignment(),
        _check_first_null(),
        _check_sidelobe(),
        _check_density_normalization(),
        _check_prob_agreement(),
        _check_determinism(),
        _check_harness_bounds(),
    ]
