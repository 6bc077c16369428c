"""Multiuser drop ensembles and mainlobe-approximation quality metrics.

Each trial drops L users uniformly in the sector, computes every pairwise
interference power exactly, and aggregates per-user totals both exact and
mainlobe-gated. Trials consume disjoint, index-derived ranges of the DOA
stream, so results are reproducible for a fixed seed and independent of
how trials are partitioned across workers.
"""

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .array_model import GRID_SNAP_TOL, LensArrayConfig
from .interference import (
    _coincident_rows,
    _gram_powers,
    _row_differences,
    _self_pairs,
    _terms_gram,
    _user_terms,
)
from .stochastic import (
    DEFAULT_SECTOR,
    SectorModel,
    _check_seed,
    _check_threads,
    _is_integer,
    _map_ranges,
    sample_doas,
)

CDF_POINTS = 256

# Bytes of one chunk's working set, _trial_bytes per drop, sized to stay in a
# core's 2 MiB L2 cache. A sweep of the bench's two ensemble workloads (job
# p50 of 3 runs each, 2-core Xeon) over budgets of 0.76, 1.6, 2.3, 3.1, 4 and
# 8 MB was fastest at 1.6 MB: 2 drops a chunk at d_tilde 5, L 200 (0.089 s,
# against 0.101 s at 1 drop and 0.106 s at 10) and 430 at d_tilde 100, L 10
# (0.0081 s, against 0.0093 s at 2150).
CHUNK_BYTES = 1_600_000

# Bytes of a drop's per-user vectors, 24 doubles a user: the DOAs, sines and
# beam coordinates, the kernel's beam terms and their special-function
# operands, the sorted gap search and the three output rows.
USER_BYTES = 192


@dataclass(frozen=True)
class ScenarioConfig:
    array: LensArrayConfig
    user_count: int
    trial_count: int
    seed: int
    sector: SectorModel = DEFAULT_SECTOR

    def __post_init__(self):
        for name in ("user_count", "trial_count"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value}")
        _check_seed(self.seed)
        # Every pair power is at most A^2/M, so the totals sum to at most
        # T L (L - 1) A^2/M. The count is compared exactly, as it may exceed
        # a double, and the quotient of doubles rounds to inf rather than raise.
        L = int(self.user_count)
        pairs = int(self.trial_count) * L * (L - 1)
        peak = self.array.peak_power
        if peak > 0.0 and pairs > sys.float_info.max / peak:
            # The counts are not printed: an int of over 4300 digits has no str
            raise ValueError(
                "interference sum bound trial_count * user_count * (user_count - 1) * A^2/M "
                f"must be a finite double, got d_tilde {self.array.d_tilde}, a_z {self.array.a_z}"
            )


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


def _workspace(rows: int, user_count: int) -> tuple:
    """The (rows, L, L) arrays one thread reuses for each of its chunks: the
    powers, the kernel's divisor, the gate mask and the band mask."""
    shape = (rows, user_count, user_count)
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)


def _trial_block(
    config: ScenarioConfig, phi: np.ndarray, exact, effective, counts, work, st, terms, coincident
) -> None:
    """Exact totals, effective totals, and effective counts for one chunk,
    written into the (trials, L) rows exact, effective and counts.

    phi has shape (trials, L), st holds its sines, terms the _user_terms
    (t, v, u) of those sines and coincident the _coincident_rows of t, each
    computed once for the chunk's whole range. work is a _workspace of at
    least as many rows, whose leading rows the chunk overwrites.
    _terms_gram writes every pairwise G of a drop into the first array,
    self-pairs zeroed, which are squared into powers in place, and leaves
    its divisor, the beam-coordinate differences t_l - t_k, in the second.
    The gate writes the two bool arrays. So a chunk allocates nothing of
    size L x L.

    The mainlobe gate is |Theta| <= 1 for Theta = d (s_l - s_k) as rounded,
    with d = d_tilde and s = sin(phi). It is read off the divisor: a pair
    with |t_l - t_k| <= 1 - m is in and one with |t_l - t_k| > 1 + m is out,
    for the margin m = 2 GRID_SNAP_TOL + (2 d + 16) eps, eps = 2^-53. Each t
    is d s rounded, within d eps of the exact product since |s| <= 1, and
    then snapped to the grid by less than GRID_SNAP_TOL. So the exact
    difference of the two t is within 2 GRID_SNAP_TOL + 2 d eps of the
    exact d (s_l - s_k); rounding that difference, and the difference and
    product in Theta, adds at most 4 eps wherever |Theta| or |t_l - t_k| is
    near 1. The rest of the constant covers the rounding of 1 -+ m. The
    kernel leaves 0 at the self-pairs, which are then cleared, and at the
    coincident pairs, which lie well inside the mainlobe. A chunk whose
    divisors put any pair in the band (1 - m, 1 + m] takes the sine gate
    for every pair instead.
    """
    arr = config.array
    power, gap, eff_mask, band = (w[: len(phi)] for w in work)
    _gram_powers(arr, _terms_gram(arr, terms, coincident=coincident, scratch=gap, out=power))
    margin = 2.0 * GRID_SNAP_TOL + (2.0 * arr.d_tilde + 16.0) * 2.0**-53
    np.abs(gap, out=gap)
    np.less_equal(gap, 1.0 - margin, out=eff_mask)
    np.less_equal(gap, 1.0 + margin, out=band)
    if np.count_nonzero(band) != np.count_nonzero(eff_mask):
        theta = _row_differences(st, st, gap)
        theta *= arr.d_tilde
        np.less_equal(np.abs(theta, out=theta), 1.0, out=eff_mask)
    _self_pairs(eff_mask)[...] = False

    power.sum(axis=2, out=exact)
    # The same summation with the gated-out powers zeroed keeps effective <= exact
    power *= eff_mask
    power.sum(axis=2, out=effective)
    # Exact integer sums accumulated in the intp of counts, without the
    # per-row overhead of a bool sum along the last axis
    np.einsum("ijk->ij", eff_mask.view(np.uint8), out=counts, casting="safe")


def _trial_bytes(user_count: int) -> int:
    """Bytes one drop of L users takes in a chunk: 18 a pair for the two float
    and two bool L x L arrays of the workspace, and USER_BYTES a user for
    its per-user vectors."""
    return user_count * (18 * user_count + USER_BYTES)


def _trial_chunk(user_count: int) -> int:
    # Trials per chunk within CHUNK_BYTES; a drop larger than that runs alone.
    return max(1, CHUNK_BYTES // _trial_bytes(user_count))


def _range_chunks(user_count: int, chunk: int, chunks: int, threads: int) -> int:
    """How many chunks of chunk trials of L = user_count users make one
    range, when the run has chunks chunks: as many as keep the range's
    per-user vectors within CHUNK_BYTES, but no more than give a run of at
    least 4 * threads chunks 4 * threads ranges to share. At least one."""
    fit = CHUNK_BYTES // (USER_BYTES * user_count * chunk)
    return max(1, min(fit, chunks // (4 * threads)))


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioResult:
    """Run the drop ensemble and aggregate exact and effective statistics.

    Trial t uses DOA stream draws [t*L, (t+1)*L), so any chunking of the
    trial range reproduces the serial ensemble, and run_scenario(result.config)
    reproduces a result bit for bit.

    The trials split into ranges of whole chunks, laid out by _range_chunks,
    which the threads share. A range draws its DOAs and takes their sines,
    their _user_terms and the _coincident_rows of its drops once, for all
    of its drops; every step is elementwise or per drop, so the layout moves
    no bit. It then runs _trial_block on each of its chunks of
    _trial_chunk trials, whose L x L pairs stay in a core's cache. Each
    thread that takes a range allocates one _workspace on its first and
    reuses it for every later chunk, so a call holds at most one per
    thread.
    """
    _check_threads(threads)
    T, L = config.trial_count, config.user_count
    exact = np.empty((T, L))
    effective = np.empty((T, L))
    counts = np.empty((T, L), dtype=np.intp)
    chunk = _trial_chunk(L)
    span = chunk * _range_chunks(L, chunk, -(-T // chunk), threads)
    local = threading.local()

    def run_range(a, b):
        if not hasattr(local, "work"):
            local.work = _workspace(min(chunk, T), L)
        phi = sample_doas(config.seed, (b - a) * L, offset=a * L, sector=config.sector).reshape(b - a, L)
        st = np.sin(phi)
        terms = _user_terms(config.array, st)
        coincident = _coincident_rows(terms[0])
        for c in range(0, b - a, chunk):
            rows = slice(c, c + chunk)
            out = slice(a + c, min(a + c + chunk, b))
            _trial_block(config, phi[rows], exact[out], effective[out], counts[out], local.work,
                         st[rows], tuple(x[rows] for x in terms), coincident[rows])

    _map_ranges(run_range, T, span, threads)

    # One buffer holds each of the two sorted totals in turn
    ordered = np.empty(T * L)
    exact_summary = _summary(exact, ordered)
    grid, cdf = _empirical_cdf(ordered)
    effective_summary = _summary(effective, ordered)
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
        exact_summary=exact_summary,
        effective_summary=effective_summary,
        mean_effective_count=mean_count,
        mean_effective_count_se=se,
    )


def _summary(totals: np.ndarray, ordered: np.ndarray) -> dict:
    """Mean and quantiles of totals, whose values are left sorted in ordered,
    a float array of totals.size.

    Quantiles depend only on order statistics, so they have the bits of
    np.quantile on totals; its partition is cheap on sorted values.
    """
    ordered[...] = totals.ravel()
    ordered.sort()
    q10, q50, q90, q99 = np.quantile(ordered, [0.10, 0.50, 0.90, 0.99])
    return {
        "mean": float(totals.mean()),
        "median": float(q50),
        "q10": float(q10),
        "q90": float(q90),
        "q99": float(q99),
    }


def _empirical_cdf(ordered: np.ndarray):
    """Log-spaced CDF grid between the 0.1% and 99.9% quantiles of the
    sorted 1-D values ordered, and the empirical CDF on it.

    Interference spans many dB across an ensemble, so the grid is geometric.
    Exact zeros (orthogonal or single-user drops) cannot anchor a log grid;
    the grid falls back to the smallest positive value, or to an all-zero
    grid when the ensemble is identically zero.
    """
    n = ordered.size
    lo, hi = np.quantile(ordered, [0.001, 0.999])
    first_positive = np.searchsorted(ordered, 0.0, side="right")
    if first_positive == n:
        grid = np.zeros(CDF_POINTS)
        return grid, np.ones(CDF_POINTS)
    if lo <= 0.0:
        lo = float(ordered[first_positive])
    if hi <= lo:
        grid = np.full(CDF_POINTS, lo)
    else:
        grid = np.geomspace(lo, hi, CDF_POINTS)
    cdf = np.searchsorted(ordered, grid, side="right") / n
    return grid, cdf


def approximation_quality(
    config: ScenarioConfig, scenario_result: ScenarioResult = None
) -> ApproximationReport:
    """Ensemble means of exact and effective totals and the captured fraction
    of a ScenarioResult, or of a fresh serial run_scenario(config) without one.

    The fraction is the share of ensemble-average interference the mainlobe
    gate retains. A fully orthogonal (zero-interference) ensemble reports
    fraction 1 by convention. A result computed for another config raises
    ValueError.
    """
    if scenario_result is None:
        scenario_result = run_scenario(config)
    elif scenario_result.config != config:
        raise ValueError("scenario_result was computed for another config")
    mean_exact = scenario_result.exact_summary["mean"]
    mean_eff = scenario_result.effective_summary["mean"]
    fraction = mean_eff / mean_exact if mean_exact > 0.0 else 1.0
    return ApproximationReport(
        mean_exact=mean_exact, mean_effective=mean_eff, captured_fraction=fraction
    )
