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
    _difference_operands,
    _gram_operands,
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
# The probabilities of the quantiles that bound the CDF grid
CDF_ENDS = (0.001, 0.999)

# Bytes of one chunk's working set, as _layout counts it, sized to stay in a
# core's 2 MiB L2 cache. A sweep of the bench's two ensemble job shapes over
# budgets of 0.76, 1.6, 2.3 and 3.1 MB (one thread on a 2-core Xeon, medians
# of 10 alternating rounds of 9 or 25 jobs) kept 1.6 MB: 2 drops a chunk at
# d_tilde 5, L 200 (45.1 ms, against 45.0 ms at 1 drop, lower in 5 of 10
# rounds, and 48.9 ms at 3, lower in 2) and 441 at d_tilde 100, L 10
# (4.10 ms, against 4.13 ms at 635 drops, lower in 6 of 10, and 4.37 ms at 209).
CHUNK_BYTES = 1_600_000

# Bytes budgeted for a drop's per-user vectors, 24 doubles a user. A range
# holds 4 throughout: the DOAs and then their sines, and the three output
# rows. Expanding its users peaks at 8 more, in the special-function steps and
# the sorted gap search, and then holds 11: the beam coordinates and kernel
# terms t, v and u, and the 8 of their matrix-product operands (u, -v),
# (v, u), (t, 1) and (1, -t), written in place with no temporaries.
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
    """The arrays one thread reuses for each of its chunks: the (rows, L, L)
    signed G, the kernel's divisor, which ends each chunk as the 0.0/1.0
    gate, and the band mask, 17 bytes a pair, and then a row of L ones,
    which sums the gate's rows into the counts."""
    shape = (rows, user_count, user_count)
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool), np.ones(user_count)


def _trial_block(config: ScenarioConfig, st, exact, effective, counts, work, ops, coincident) -> None:
    """Exact totals, effective totals, and effective counts for one chunk,
    written into the (rows, L) rows exact, effective and counts.

    st holds the chunk's (rows, L) sines, ops the _gram_operands of their
    _user_terms and coincident the _coincident_rows of their beam
    coordinates t, each computed once for the chunk's whole range. work is
    a _workspace of at least rows rows, whose leading rows the chunk
    overwrites. _terms_gram, the kernel's drop form, writes every pairwise
    signed G of a drop into the first array and leaves its divisor, the
    beam-coordinate differences t_l - t_k, in the second. The comparisons
    write the band mask, and then the gate through the band mask, once its
    count is taken, as 0.0 and 1.0 over the divisor. So a chunk allocates
    nothing of size L x L.

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
    kernel leaves 0 at the coincident pairs, which lie well inside the
    mainlobe, and +inf at the self-pairs, which neither the gate nor the
    band mask, |t_l - t_k| <= 1 + m, admits. So the band mask holds every
    pair of the gate, and more exactly when some pair lies in the band
    (1 - m, 1 + m]. A chunk with such a pair takes the sine gate for every
    pair instead, its s_l - s_k formed as the divisors are, and clears its
    self-pairs, where Theta = 0.

    G is finite, so multiplying it by the float gate gives G for 1.0 and
    +-0 for 0.0, whose square is +0, the bits of a bool mask. The counts
    are the gate's row sums, sums of 0.0 and 1.0 that are exact in any
    order, as one matrix-vector product with the workspace's row of ones.
    The totals are A^2/M times the _square_sums of G, the exact ones before
    the gate scales G and the effective ones after, so each effective total
    adds the same terms in the same order, some of them +0, and is at most
    its exact total.
    """
    arr = config.array
    *pairs, ones = work
    g, gate, band = (w[:len(st)] for w in pairs)
    _terms_gram(arr, ops, coincident, scratch=gate, out=g)
    margin = 2.0 * GRID_SNAP_TOL + (2.0 * arr.d_tilde + 16.0) * 2.0**-53
    np.abs(gate, out=gate)
    in_band = np.count_nonzero(np.less_equal(gate, 1.0 + margin, out=band))
    # A bool comparison and one cast cost less than NumPy's buffered cast of a
    # comparison written into floats
    np.copyto(gate, np.less_equal(gate, 1.0 - margin, out=band))
    if _gate_counts(gate, counts, ones) != in_band:
        theta = np.matmul(*_difference_operands(st), out=gate)
        theta *= arr.d_tilde
        np.copyto(gate, np.less_equal(np.abs(theta, out=theta), 1.0, out=band))
        _self_pairs(gate)[...] = 0.0
        _gate_counts(gate, counts, ones)

    _square_sums(g, exact)
    exact *= arr.peak_power
    # The same summation with the gated-out G zeroed keeps effective <= exact
    g *= gate
    _square_sums(g, effective)
    effective *= arr.peak_power


def _square_sums(g, out=None):
    """The (rows, L) sums of squares of the (rows, L, L) array g over its
    last axis, written into out when given, the one summation of the
    ensemble totals.

    The two-operand einsum reduction adds each row's L products in one
    order fixed by L, whatever the batch shape or the alignment, so a
    drop's sums have the same bits alone and inside any chunk. Its loop is
    compiled at NumPy's build baseline, with no runtime SIMD dispatch and
    no BLAS call. The order does not depend on the values and rounding is
    monotone, so lowering the magnitude of some entries of a row never
    raises its sum.
    """
    return np.einsum("ijk,ijk->ij", g, g, out=out)


def _gate_counts(gate, counts, ones) -> float:
    """Write the row sums of the (rows, L, L) 0.0/1.0 gate, its product with
    the L ones of ones, into the (rows, L) counts, and return their total,
    all exact."""
    sums = gate.reshape(-1, gate.shape[2]) @ ones
    counts[...] = sums.reshape(counts.shape)
    return sums.sum()


def _layout(trials: int, users: int, threads: int) -> tuple:
    """(chunk, span), the drops a chunk and a range of an ensemble hold.

    A chunk holds as many drops as fit CHUNK_BYTES, L (17 L + USER_BYTES)
    bytes each: 17 a pair for the two float and one bool L x L arrays of
    the _workspace and USER_BYTES a user for its per-user vectors; at least
    one and at most trials. A range holds as many whole chunks as keep its
    per-user vectors within CHUNK_BYTES, but no more than give 4 * threads
    ranges once there are that many chunks; at least one.
    """
    chunk = min(trials, max(1, CHUNK_BYTES // (users * (17 * users + USER_BYTES))))
    fit = CHUNK_BYTES // (USER_BYTES * users * chunk)
    return chunk, chunk * max(1, min(fit, -(-trials // chunk) // (4 * threads)))


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioResult:
    """Run the drop ensemble and aggregate exact and effective statistics.

    Trial t uses DOA stream draws [t*L, (t+1)*L), so any chunking of the
    trial range reproduces the serial ensemble, and run_scenario(result.config)
    reproduces a result bit for bit.

    The trials split into ranges of whole chunks, both sized by _layout,
    which the threads share. A range draws its DOAs and takes their sines,
    their _user_terms, the _coincident_rows of its drops and the kernel's
    _gram_operands once, for all of its drops; every step is elementwise or
    per drop, so the layout moves no bit. It then runs _trial_block on each
    of its chunks, which slices those operands and whose L x L pairs stay
    in a core's cache. Each thread that takes a range allocates
    one _workspace of a chunk's rows on its first and reuses it for every
    later chunk, so a call holds at most one per thread.
    """
    _check_threads(threads)
    T, L = config.trial_count, config.user_count
    exact = np.empty((T, L))
    effective = np.empty((T, L))
    counts = np.empty((T, L), dtype=np.intp)
    chunk, span = _layout(T, L, threads)
    local = threading.local()

    def run_range(a, b):
        if not hasattr(local, "work"):
            local.work = _workspace(chunk, L)
        phi = sample_doas(config.seed, (b - a) * L, offset=a * L, sector=config.sector).reshape(b - a, L)
        st = np.sin(phi, out=phi)
        terms = _user_terms(config.array, st)
        coincident = _coincident_rows(terms[0])
        ops = _gram_operands(terms)
        for c in range(0, b - a, chunk):
            rows = slice(c, c + chunk)
            out = slice(a + c, min(a + c + chunk, b))
            _trial_block(config, st[rows], exact[out], effective[out], counts[out], local.work,
                         tuple(x[rows] for x in ops), coincident[rows])

    _map_ranges(run_range, T, span, threads)

    # One buffer holds each of the two sorted totals in turn
    ordered = np.empty(T * L)
    exact_summary = _summary(exact, ordered)
    grid, cdf = _empirical_cdf(ordered)
    effective_summary = _summary(effective, ordered)
    # Integer row sums are exact, so these have the bits of counts.mean()
    # and counts.mean(axis=1) without their float pass over T L counts
    trial_sums = counts.sum(axis=1)
    mean_count = int(trial_sums.sum()) / (T * L)
    if T > 1:
        per_trial = trial_sums / L
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
    """The mean and quantiles of totals, whose values are left sorted in
    ordered, a float array of totals.size.

    Quantiles depend only on order statistics, so read off the sorted
    values they have the bits of np.quantile on totals.
    """
    ordered[...] = totals.ravel()
    ordered.sort()
    q10, q50, q90, q99 = _sorted_quantiles(ordered, (0.10, 0.50, 0.90, 0.99))
    return {
        "mean": float(totals.mean()),
        "median": q50,
        "q10": q10,
        "q90": q90,
        "q99": q99,
    }


def _sorted_quantiles(ordered: np.ndarray, probs) -> list:
    """The quantiles of the sorted 1-D values ordered at the probabilities
    probs in [0, 1], as Python floats, with the bits of np.quantile's
    default "linear" method (Hyndman and Fan's type 7) for finite values,
    but for a -0.0 at the top, which may come back as +0.0; sums of squares
    are never -0.0.

    Each takes NumPy's formulas verbatim on the two order statistics around
    the virtual index h = (n - 1) q: a + (b - a) gamma, or, where
    gamma >= 0.5, b - (b - a) (1 - gamma), for gamma the fraction of h. It
    reads two values where np.quantile partitions and copies all n.
    """
    n = ordered.size
    out = []
    for q in probs:
        h = (n - 1) * q
        i = math.floor(h)
        gamma = h - i
        a = float(ordered[i])
        b = float(ordered[min(i + 1, n - 1)])
        out.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return out


def _empirical_cdf(ordered: np.ndarray):
    """Log-spaced CDF grid between the CDF_ENDS _sorted_quantiles of the
    sorted 1-D values ordered, and the empirical CDF on it.

    Interference spans many dB across an ensemble, so the grid is geometric.
    Exact zeros (orthogonal or single-user drops) cannot anchor a log grid;
    the grid falls back to the smallest positive value, or to an all-zero
    grid when the ensemble is identically zero.
    """
    n = ordered.size
    first_positive = np.searchsorted(ordered, 0.0, side="right")
    if first_positive == n:
        grid = np.zeros(CDF_POINTS)
        return grid, np.ones(CDF_POINTS)
    lo, hi = _sorted_quantiles(ordered, CDF_ENDS)
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
