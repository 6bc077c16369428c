"""Multiuser drop ensembles and mainlobe-approximation quality metrics.

Each trial drops L users uniformly in the sector, computes every pairwise
interference power exactly, and aggregates per-user totals both exact and
mainlobe-gated. Trials consume disjoint, index-derived ranges of the DOA
stream, so results are reproducible for a fixed seed and independent of
how trials are partitioned across workers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .array_model import LensArrayConfig
from .interference import _pair_powers, _row_differences
from .stochastic import DEFAULT_SECTOR, SectorModel, _check_seed, _map_ranges, sample_doas

CDF_POINTS = 256

# Float64 elements in one chunk's (trials, L, L) pair array, about 3.2 MB:
# small enough that the block's passes over it stay in cache.
BLOCK_DOUBLES = 400_000


@dataclass(frozen=True)
class ScenarioConfig:
    array: LensArrayConfig
    user_count: int
    trial_count: int
    seed: int
    sector: SectorModel = DEFAULT_SECTOR

    def __post_init__(self):
        if self.user_count < 1:
            raise ValueError(f"user_count must be positive, got {self.user_count}")
        if self.trial_count < 1:
            raise ValueError(f"trial_count must be positive, got {self.trial_count}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class ScenarioResult:
    """Per-trial, per-user interference totals plus ensemble aggregates."""

    config: ScenarioConfig
    exact_totals: np.ndarray
    effective_totals: np.ndarray
    effective_counts: np.ndarray
    cdf_grid: np.ndarray
    cdf_values: np.ndarray
    exact_summary: dict
    effective_summary: dict
    mean_effective_count: float
    mean_effective_count_se: float


@dataclass(frozen=True)
class ApproximationReport:
    mean_exact: float
    mean_effective: float
    captured_fraction: float


def _trial_block(config: ScenarioConfig, phi: np.ndarray):
    """Exact totals, effective totals, and effective counts for one chunk.

    phi has shape (trials, L). _pair_powers gives every pairwise
    interference power of a drop at once, self-pairs zeroed. One scratch
    array of the powers' shape takes the kernel's divisor and then the
    mainlobe gate's |Theta|, which uses the raw spatial-frequency
    separations, so a chunk holds two (trials, L, L) float arrays.
    """
    arr = config.array
    st = np.sin(phi)
    scratch = np.empty(st.shape + st.shape[-1:])
    power = _pair_powers(arr, st, scratch=scratch)
    theta = _row_differences(st, st, scratch)
    theta *= arr.d_tilde
    eff_mask = np.abs(theta, out=theta) <= 1.0
    self_pair = np.arange(st.shape[1])
    eff_mask[:, self_pair, self_pair] = False

    exact = power.sum(axis=2)
    # The same summation with the gated-out powers zeroed keeps effective <= exact
    power *= eff_mask
    effective = power.sum(axis=2)
    counts = np.count_nonzero(eff_mask, axis=2)
    return exact, effective, counts


def _trial_chunk(user_count: int) -> int:
    # Trials per chunk within BLOCK_DOUBLES; a drop larger than that runs alone.
    return max(1, BLOCK_DOUBLES // (user_count * user_count))


def run_scenario(config: ScenarioConfig, threads: int = 1, doas: np.ndarray = None) -> ScenarioResult:
    """Run the drop ensemble and aggregate exact and effective statistics.

    Trial t uses DOA stream draws [t*L, (t+1)*L), so any chunking of the
    trial range reproduces the serial ensemble. An explicit doas array of
    shape (trial_count, user_count), in radians, bypasses the stream (used
    for forced geometries); forced identical DOAs are legitimate inputs.
    """
    T, L = config.trial_count, config.user_count
    if doas is not None:
        doas = np.asarray(doas, dtype=float)
        if doas.shape != (T, L):
            raise ValueError(f"doas must have shape {(T, L)}, got {doas.shape}")

    def block(a, b):
        if doas is None:
            phi = sample_doas(config.seed, (b - a) * L, offset=a * L, sector=config.sector)
            phi = phi.reshape(b - a, L)
        else:
            phi = doas[a:b]
        return _trial_block(config, phi)

    chunk = _trial_chunk(L)
    parts = _map_ranges(block, T, chunk, threads)

    exact = np.concatenate([p[0] for p in parts], axis=0)
    effective = np.concatenate([p[1] for p in parts], axis=0)
    counts = np.concatenate([p[2] for p in parts], axis=0)

    grid, cdf = _empirical_cdf(exact.ravel())
    mean_count = float(counts.mean())
    if T > 1:
        per_trial = counts.mean(axis=1)
        se = float(per_trial.std(ddof=1) / math.sqrt(T))
    else:
        se = 0.0

    return ScenarioResult(
        config=config,
        exact_totals=exact,
        effective_totals=effective,
        effective_counts=counts,
        cdf_grid=grid,
        cdf_values=cdf,
        exact_summary=_summary(exact),
        effective_summary=_summary(effective),
        mean_effective_count=mean_count,
        mean_effective_count_se=se,
    )


def _summary(totals: np.ndarray) -> dict:
    flat = totals.ravel()
    q10, q50, q90, q99 = np.quantile(flat, [0.10, 0.50, 0.90, 0.99])
    return {
        "mean": float(flat.mean()),
        "median": float(q50),
        "q10": float(q10),
        "q90": float(q90),
        "q99": float(q99),
    }


def _empirical_cdf(values: np.ndarray):
    """Log-spaced CDF grid between the 0.1% and 99.9% quantiles.

    Interference spans many dB across an ensemble, so the grid is geometric.
    Exact zeros (orthogonal or single-user drops) cannot anchor a log grid;
    the grid falls back to the smallest positive value, or to an all-zero
    grid when the ensemble is identically zero.
    """
    n = values.size
    sorted_vals = np.sort(values)
    lo, hi = np.quantile(sorted_vals, [0.001, 0.999])
    positive = sorted_vals[sorted_vals > 0.0]
    if positive.size == 0:
        grid = np.zeros(CDF_POINTS)
        return grid, np.ones(CDF_POINTS)
    if lo <= 0.0:
        lo = float(positive[0])
    if hi <= lo:
        grid = np.full(CDF_POINTS, lo)
    else:
        grid = np.geomspace(lo, hi, CDF_POINTS)
    cdf = np.searchsorted(sorted_vals, grid, side="right") / n
    return grid, cdf


def approximation_quality(
    config: ScenarioConfig, scenario_result: ScenarioResult = None
) -> ApproximationReport:
    """Ensemble means of exact and effective totals and the captured fraction
    of a ScenarioResult, or of a fresh serial run_scenario(config) without one.

    The fraction is the share of ensemble-average interference the mainlobe
    gate retains. A fully orthogonal (zero-interference) ensemble reports
    fraction 1 by convention.
    """
    if scenario_result is None:
        scenario_result = run_scenario(config)
    mean_exact = float(scenario_result.exact_totals.mean())
    mean_eff = float(scenario_result.effective_totals.mean())
    fraction = mean_eff / mean_exact if mean_exact > 0.0 else 1.0
    return ApproximationReport(
        mean_exact=mean_exact, mean_effective=mean_eff, captured_fraction=fraction
    )
