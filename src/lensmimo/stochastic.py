"""Distributions induced by uniform sector drops of user terminals.

DOAs are i.i.d. uniform on [-half_width, half_width] (a 2*pi/3 sector by
default). The spatial frequency y = sin(phi) then has the arcsine-type
density 1/(2 h sqrt(1 - y^2)) on |y| <= sin(h), and the normalized
separation Theta = d_tilde * (sin phi_l - sin phi_k) of an interferer pair
has the convolution density theta_pdf, an elliptic integral of the first
kind that Carlson's R_F gives in closed form. The probability that an
interferer is effective, P(|Theta| <= 1), is available three ways: a fixed
Gauss-Legendre rule over theta_pdf, a first-order closed form valid for
large arrays, and Monte Carlo with deterministic parallel streams.

Monte Carlo decides most pairs from their DOA gap alone. Since
cos(h) gap <= |sin phi_l - sin phi_k| <= gap on the sector, a pair with
d_tilde gap < 1 - m is a sure hit and one with d_tilde cos(h) gap > 1 + m
a sure miss, where the margin m = (16 + 40 d_tilde) 2^-53 covers every
rounding step of the computed Theta (_gate_band). Only the pairs in the
band between take a sine.
"""

import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import elliprf


# Monte Carlo pairs per range. A range's uniforms are then one 1 MB array,
# and its passes stay in a 2 MB per-core L2 cache: on a 2-core Xeon a
# 1e6-sample estimate at d_tilde 10 took 15.5 ms, against 16.2 ms with 2^15
# and 15.9 ms with 2^17 pairs per range. Hits are integer sums, so the
# range size never changes a result.
MC_RANGE_PAIRS = 1 << 16


@dataclass(frozen=True)
class SectorModel:
    """Angular sector from which DOAs are drawn uniformly."""

    half_width: float = math.pi / 3.0

    def __post_init__(self):
        if not 0.0 < self.half_width <= math.pi / 2.0:
            raise ValueError(f"half_width must lie in (0, pi/2], got {self.half_width}")

    @property
    def max_spatial_freq(self) -> float:
        return math.sin(self.half_width)


DEFAULT_SECTOR = SectorModel()


# Two-sided 95% quantile of the standard normal distribution.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ProbEstimate:
    """A Monte Carlo probability with its binomial standard error."""

    value: float
    std_error: float
    sample_count: int
    seed: int

    @property
    def wilson_interval(self) -> tuple:
        """The 95% Wilson score interval (Wilson, JASA 1927) for the probability.

        Unlike value +- 1.96 std_error it stays inside [0, 1], and it keeps
        a nonzero width when value is 0 or 1, where std_error is 0. With
        c = z^2 / (2n) and r = z sqrt(p q / n + c / (2n)), q = 1 - p, the
        ends (p + c -+ r) / (1 + 2c) are written as p^2 / (p + c + r) and
        1 - q^2 / (q + c + r), so they are exactly 0 at p = 0 and exactly 1
        at p = 1.
        """
        n, p = self.sample_count, self.value
        q = 1.0 - p
        c = 0.5 * _Z95 * _Z95 / n
        r = _Z95 * math.sqrt(p * q / n + 0.5 * c / n)
        return p * p / (p + c + r), 1.0 - q * q / (q + c + r)


def _map_ranges(fn, count: int, chunk: int, threads: int) -> list:
    """fn(a, b) for the ranges [a, b) that split [0, count) into pieces of
    at most chunk indices, in range order, on up to threads threads.

    The calling thread works too. It runs range 0 while n helper threads
    start on ranges 1 to n, with n = min(threads, ranges) - 1, and then
    every thread takes the next unclaimed range from one shared counter
    until none is left. Results are stored by range index. No helper is
    started that would find no range, so no idle thread holds a malloc
    arena. The first exception stops every thread after its current range
    and reaches the caller.

    The ranges depend only on count and chunk, so a caller whose fn is a
    pure function of its range gets the same results whatever the thread
    count.
    """
    _check_threads(threads)
    ranges = [(a, min(a + chunk, count)) for a in range(0, count, chunk)]
    helpers = min(threads, len(ranges)) - 1
    if helpers == 0:
        return [fn(a, b) for a, b in ranges]
    results = [None] * len(ranges)
    lock = threading.Lock()
    next_index = helpers + 1

    def work(i):
        nonlocal next_index
        while i < len(ranges):
            try:
                results[i] = fn(*ranges[i])
            except BaseException:
                with lock:
                    next_index = len(ranges)
                raise
            with lock:
                i = next_index
                next_index += 1

    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(work, i) for i in range(1, helpers + 1)]
        work(0)
    for future in futures:
        future.result()
    return results


def _is_integer(value) -> bool:
    # Bools and floats pass range checks, and Philox truncates a float seed
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_threads(threads: int) -> None:
    if not (_is_integer(threads) and threads >= 1):
        raise ValueError(f"threads must be an integer of at least 1, got {threads}")


def _check_seed(seed: int) -> None:
    # Philox keys are 128-bit; its own error for others names no argument
    if not (_is_integer(seed) and 0 <= seed < 2**128):
        raise ValueError(f"seed must lie in [0, 2**128) and be an integer, got {seed}")


def _check_d_tilde(d_tilde: float) -> None:
    # inf would give P = 0 and NaN fails every comparison; below the least
    # normal double, the density's 1/d_tilde overflows
    if not (math.isfinite(d_tilde) and d_tilde >= sys.float_info.min):
        raise ValueError(f"d_tilde must be finite and at least {sys.float_info.min}, got {d_tilde}")


def _unit_stream(seed: int, offset: int, count: int) -> np.ndarray:
    """Doubles [offset, offset + count) of the uniform stream keyed by seed.

    Philox is counter based: one 128-bit block yields four doubles, so an
    arbitrary offset is reached by advancing whole blocks and discarding
    the in-block remainder. Disjoint ranges therefore reproduce the serial
    sequence exactly, whatever the partitioning.
    """
    _check_seed(seed)
    bitgen = Philox(key=seed)
    skip, rem = divmod(offset, 4)
    if skip:
        bitgen.advance(skip)
    gen = Generator(bitgen)
    if rem:
        gen.random(rem)
    return gen.random(count)


def sample_doas(seed: int, count: int, offset: int = 0, sector: SectorModel = DEFAULT_SECTOR) -> np.ndarray:
    """I.i.d. uniform DOAs in radians; draw i is a pure function of (seed, i)."""
    if not (_is_integer(count) and count >= 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    # Philox wraps a negative counter and fails on a float or NumPy integer
    if not (_is_integer(offset) and offset >= 0):
        raise ValueError(f"offset must be a non-negative integer, got {offset}")
    u = _unit_stream(seed, int(offset), count)
    # (2u - 1) h, rounded step by step as written, in place
    u *= 2.0
    u -= 1.0
    u *= sector.half_width
    return u


def spatial_freq_pdf(y, sector: SectorModel = DEFAULT_SECTOR):
    """Density of sin(phi) for phi uniform on the sector.

    Equals 1/(2 h sqrt(1 - y^2)) on |y| <= sin(h) and 0 outside; for the
    default sector the constant is 3/(2 pi).
    """
    y = np.asarray(y, dtype=float)
    s = sector.max_spatial_freq
    inside = np.abs(y) <= s
    ysafe = np.where(inside, y, 0.0)
    val = np.where(inside, 1.0 / (2.0 * sector.half_width * np.sqrt(1.0 - ysafe * ysafe)), 0.0)
    return float(val) if val.ndim == 0 else val


def theta_pdf(z, d_tilde: float, sector: SectorModel = DEFAULT_SECTOR):
    """Density of Theta = d_tilde * (sin phi_l - sin phi_k) at z.

    With a = |z|/d_tilde this is the self-convolution of the spatial-frequency
    density at separation a, which is even in z:

        f(z) = 1/(d_tilde (2h)^2) * integral over y in [-s, s - a] of
               dy / sqrt((1 - y)(1 + y)(1 - a - y)(1 + a + y)),

    s = sin(h). An integral of the inverse square root of four linear
    factors between two points is 2 R_F(U12^2, U13^2, U14^2) (Carlson,
    DLMF 19.29.4), with the U_ij built from the square roots of the factors
    at both ends. Here the factors at y = s - a are those at y = -s in
    reverse order, and with g = 2s - a the length of the interval,
    c = 1 - s^2 and q = 1 - s, the U_ij reduce to

        g U12 = 2c + a g,   g U13 = 2c + 2s g,   (g U14)^2 = 4c (q + a)(q + g).

    R_F is homogeneous of degree -1/2, so the integral is 2g times R_F of
    the left-hand sides squared. The density is 0 outside the support
    |z| < 2 s d_tilde and infinite at z = 0 for the half-space sector,
    s = 1. A float z gives a float; an array gives an array.
    """
    _check_d_tilde(d_tilde)
    s = sector.max_spatial_freq
    # A quotient beyond a double rounds to inf, outside the support like its z
    with np.errstate(over="ignore"):
        a = np.abs(np.asarray(z, dtype=float)) / d_tilde
    # The upper end s - a is rounded first, so g > 0 exactly when -s < s - a.
    g = (s - a) + s
    outside = g <= 0.0
    # Points outside the support are evaluated at z = 0 and then dropped.
    a = np.where(outside, 0.0, a)
    g = np.where(outside, 2.0 * s, g)
    q = 1.0 - s
    c = q * (1.0 + s)
    n12 = 2.0 * c + a * g
    n13 = 2.0 * (c + s * g)
    inner = 2.0 * g * elliprf(n12 * n12, n13 * n13, 4.0 * c * (q + a) * (q + g))
    h2 = 2.0 * sector.half_width
    val = np.where(outside, 0.0, inner / (d_tilde * h2 * h2))
    return float(val) if val.ndim == 0 else val


def _graded_rule() -> tuple:
    # 20-node Gauss-Legendre (DLMF 3.5(v)) on the 21 panels between 0,
    # 0.15^20, 0.15^19, ..., 0.15 and 1, a rule for [0, 1] graded toward 0;
    # the weights come twice, once for each half of _integrate's interval
    x, w = np.polynomial.legendre.leggauss(20)
    ends = np.concatenate(([0.0], 0.15 ** np.arange(20, 0, -1.0), [1.0]))
    start, half = ends[:-1, None], 0.5 * np.diff(ends)[:, None]
    return (start + half * (x + 1.0)).ravel(), np.tile((half * w).ravel(), 2)


_RULE_NODES, _RULE_WEIGHTS = _graded_rule()


def _integrate(f, lo: float, hi: float) -> float:
    """Integral of f over [lo, hi] by _graded_rule on each half, graded
    toward its outer end, so kinks at the ends cost no accuracy. f gets all
    840 points in one array and must be smooth inside; points may round onto
    lo or hi, where f must be finite, but none reaches lo = 0.
    """
    half = 0.5 * (hi - lo)
    offsets = half * _RULE_NODES
    return half * float(f(np.concatenate((lo + offsets, hi - offsets))) @ _RULE_WEIGHTS)


def effective_prob_quadrature(d_tilde: float, sector: SectorModel = DEFAULT_SECTOR) -> float:
    """P(|Theta| <= 1) by integrating theta_pdf over [-1, 1].

    The density is even, so the integral runs over [0, min(1, support edge)]
    and is doubled. Its corners, at 0 (a log singularity for the half-space
    sector) and at the support edge, then lie at ends of the interval.
    """
    _check_d_tilde(d_tilde)
    upper = min(1.0, 2.0 * sector.max_spatial_freq * d_tilde)
    val = _integrate(lambda z: theta_pdf(z, d_tilde, sector), 0.0, upper)
    return min(1.0, 2.0 * val)


def effective_prob_closed(d_tilde: float, sector: SectorModel = DEFAULT_SECTOR) -> float:
    """First-order closed form artanh(sin h) / (h^2 d_tilde), clamped to 1.

    For the default sector this is 9 artanh(sqrt(3)/2) / (pi^2 d_tilde).
    The expansion assumes a large array, so d_tilde < 2 is rejected.
    """
    _check_d_tilde(d_tilde)
    if d_tilde < 2.0:
        raise ValueError(
            f"closed form requires d_tilde >= 2 (large-array regime), got {d_tilde}"
        )
    h = sector.half_width
    return min(1.0, math.atanh(sector.max_spatial_freq) / (h * h * d_tilde))


# Unit roundoff of a double.
_EPS = 2.0**-53


def _gate_band(d_tilde: float, half_width: float) -> tuple:
    """Bounds (lo, hi) on the uniform gap |u_l - u_k| of a Monte Carlo pair.

    A pair whose uniform gap is below lo is a sure hit and one above hi a
    sure miss of the gate |Theta| <= 1 as _count_effective rounds it. With
    the DOA gap gap = |phi_l - phi_k| = 2h |u_l - u_k| and d = d_tilde, lo
    and hi are the bounds below divided by 2h:

        sure hit:   d gap < 1 - m,
        sure miss:  d cos(h) gap > 1 + m,   m = (16 + 40 d) eps,

    eps = 2^-53. sin is 1-Lipschitz and, on [-h, h], has slope at least
    cos h, so cos(h) gap <= |sin phi_l - sin phi_k| <= gap for the exact
    phi = (2u - 1) h. The margin m covers the rounding of the computed
    Theta: the DOA is off by at most 2 eps h (the product, and 2u - 1 when
    u < 1/4 is not a stream multiple of 2^-53), each sine by at most
    16 eps (8 ulps; NumPy's float64 sine matched the C library exactly on
    2e6 points on an AVX-512 Xeon), and the difference and the product by
    d each by a factor 1 + eps. So the computed Theta is within
    3 eps |Theta| + 39 d eps of the exact one, and both decisions hold
    once m >= 3 eps + 39 d eps. The rest of the constant covers the
    rounding of the uniform gap (exact for stream uniforms) and of lo and
    hi, up to 8 eps relative. As h -> pi/2, cos h -> 0 pushes hi above 1,
    past every uniform gap, so the sure-miss case switches itself off.
    """
    r = 1.0 / d_tilde
    width = 2.0 * half_width
    lo = (r - (16.0 * r + 40.0) * _EPS) / width
    hi = (r + (16.0 * r + 40.0) * _EPS) / (width * math.cos(half_width))
    return lo, hi


def _classify_pairs(u: np.ndarray, d_tilde: float, half_width: float) -> tuple:
    """Masks (sure, undecided) over the pairs (u[2i], u[2i+1]) of uniforms in
    [0, 1): sure hits, and pairs that _gate_band cannot decide from their gap.
    The rest are sure misses.
    """
    lo, hi = _gate_band(d_tilde, half_width)
    gap = u[0::2] - u[1::2]
    np.abs(gap, out=gap)
    sure = gap < lo
    # lo < hi, so the gaps up to hi without the sure hits are the band
    undecided = gap <= hi
    undecided ^= sure
    return sure, undecided


def _count_effective(d_tilde: float, seed: int, half_width: float, start: int, stop: int) -> int:
    """Hits |Theta| <= 1 among the Monte Carlo pairs [start, stop).

    Only the pairs that _gate_band leaves undecided take a sine. They are
    rounded step by step as (2u - 1) h and then d (sin phi_l - sin phi_k),
    so their hits, and with the margin every other pair's, are those of
    that expression evaluated for every pair.
    """
    u = _unit_stream(seed, 2 * start, 2 * (stop - start))
    sure, undecided = _classify_pairs(u, d_tilde, half_width)
    y = np.compress(undecided, u.reshape(-1, 2), axis=0)
    y *= 2.0
    y -= 1.0
    y *= half_width
    np.sin(y, out=y)
    theta = y[:, 0] - y[:, 1]
    theta *= d_tilde
    return int(np.count_nonzero(sure)) + int(np.count_nonzero(np.abs(theta, out=theta) <= 1.0))


def effective_prob_mc(
    d_tilde: float,
    sample_count: int,
    seed: int,
    threads: int = 1,
    sector: SectorModel = DEFAULT_SECTOR,
) -> ProbEstimate:
    """Monte Carlo estimate of P(|Theta| <= 1) with binomial standard error.

    Pair i consumes stream doubles 2i and 2i+1, so the result is a pure
    function of (seed, sample_count) and does not depend on how the index
    range is partitioned across workers. A pair with d_tilde gap < 1 - m
    counts as a hit and one with d_tilde cos(h) gap > 1 + m as a miss
    without a sine, gap = |phi_l - phi_k| and m = (16 + 40 d_tilde) 2^-53;
    the hits are those of d_tilde (sin phi_l - sin phi_k) taken for every
    pair.
    """
    _check_d_tilde(d_tilde)
    if not (_is_integer(sample_count) and sample_count >= 1):
        raise ValueError(f"sample_count must be a positive integer, got {sample_count}")
    count = functools.partial(_count_effective, d_tilde, seed, sector.half_width)
    hits = sum(_map_ranges(count, sample_count, MC_RANGE_PAIRS, threads))
    value = hits / sample_count
    std_error = math.sqrt(value * (1.0 - value) / sample_count)
    return ProbEstimate(value=value, std_error=std_error, sample_count=sample_count, seed=seed)
