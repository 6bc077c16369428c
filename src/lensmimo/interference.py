"""Pairwise and aggregate LOS interference under maximum-ratio combining.

With unit transmit power and MRC, the interference terminal k exerts on
terminal l depends only on the two spatial frequencies:

    I(l, k) = (1/M) * | h_l^H h_k |^2 = (A^2/M) * G(t_l, t_k)^2,
    G(a, b) = sum_{m=-K}^{K} sinc(m - a) sinc(m - b),

with t = d_tilde * phi_tilde the beam coordinates, K = (M - 1)/2 and the
normalized sinc(x) = sin(pi x)/(pi x) of the lens response.

G costs O(1) per pair, whatever M. Since sin(pi (m - t)) = -(-1)^m sin(pi t),
each summand is v_a v_b / ((m - a)(m - b)) with v = sin(pi t)/pi, and
partial fractions give

    G(a, b) = v_a v_b [S(a) - S(b)] / (a - b),   S(t) = sum_m 1/(m - t).

The digamma recurrence sums S(t) = psi(K + 1 - t) - psi(-K - t), and the
reflection formula psi(-K - t) = psi(K + 1 + t) + pi cot(pi t) (DLMF 5.5.2,
5.5.4, 5.15) moves the grid poles into cot, where v cancels them. With
c = cos(pi t) and

    u = v S(t) = v [psi(K + 1 - t) - psi(K + 1 + t)] - c,

G(a, b) = (u_a v_b - v_a u_b) / (a - b). Users beyond the element span,
K < |t| <= d_tilde, occur near end-fire when d_tilde is fractional, since
K = floor(d_tilde). No grid pole lies there, so the recurrence alone sums
S without cancellation, S(t) = sign(t) [psi(|t| - K) - psi(|t| + K + 1)],
and c = 0.

Pairs closer than COINCIDENT_GAP use the limit instead, with each
1/((m - a)(m - b)) taken as 1/(m - x)^2 at the midpoint x and summed
through Hurwitz zeta functions. Within the span the sum over all integers
m is sinc(a - b), and G is sinc(a - b) less the tail |m| > K; beyond it,
G is the nearest element's term plus the other elements.
pairwise_interference_closed expands each user on Python floats in one
call and passes a coincident pair's t and v to the same limit. The
per-user terms of _user_terms, their matrix-product operands and the
limit also serve the kernel's two array forms: the pair form here,
_pair_gram, which pairs one set of users with another for the pattern
sweep and selfcheck's batch, and the ensembles' drop form in harness.

pairwise_interference_direct builds the channel vectors of a broadcast
batch of pairs and takes their Hermitian inner products along the element
axis; it is the oracle the kernel is tested against.
The module also provides the pattern sweep and two pattern metrics in
closed form. A desired user on the beam grid has a one-hot profile, so
its pattern is exactly (A^2/M) sinc^2(d_tilde * delta): the first null
sits at 1/d_tilde, and the first sidelobe peaks at d_tilde * delta = x_1,
the first positive root of tan(pi x) = pi x, about 13.26 dB below the
mainlobe for every array.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, zeta

from .array_model import (
    GRID_SNAP_TOL,
    SPATIAL_FREQ_ERROR,
    LensArrayConfig,
    _validate_spatial_freq,
    channel_vectors,
    sinc,
)

# Beam-coordinate pairs closer than this take the coincident-pair limit of
# the kernel: the difference quotient would lose about eps/gap of G, the
# limit's midpoint expansion errs by about gap^2/4 of the tail.
COINCIDENT_GAP = 1e-5

# Powers are clamped here before dB conversion so emitted series stay finite.
DB_FLOOR = 1e-300

# First positive root of tan(pi x) = pi x: the peak of the first sidelobe of
# sinc^2(x), whose peak-to-sidelobe ratio is about 13.2615 dB.
SIDELOBE_PEAK_X = 1.430296653124203
SIDELOBE_RATIO_DB = -20.0 * math.log10(
    abs(math.sin(math.pi * SIDELOBE_PEAK_X) / (math.pi * SIDELOBE_PEAK_X))
)


class NullNotFoundError(RuntimeError):
    """Raised when the first pattern null lies beyond the element span or
    the admissible separation range."""


@dataclass(frozen=True)
class PatternSeries:
    """Interference sweep over angular separation at a fixed desired user."""

    phi_tilde_l: float
    deltas: np.ndarray
    theta_norms: np.ndarray
    powers_linear: np.ndarray
    powers_db: np.ndarray
    effective: np.ndarray
    skipped_count: int


def power_to_db(power_linear) -> float:
    """10 log10 of power, clamped at a tiny floor so exact zeros stay finite."""
    p = np.maximum(np.asarray(power_linear, dtype=float), DB_FLOOR)
    out = 10.0 * np.log10(p)
    return float(out) if out.ndim == 0 else out


def _beam_terms(t: np.ndarray, n: np.ndarray, max_index: int):
    """Per-user kernel terms v = sin(pi t)/pi and u = v S(t) of beam
    coordinates t, given their nearest integers n = rint(t).

    sin and cos are taken of the offset from the nearest integer, so grid
    users give v = 0 exactly. Coordinates beyond the span, |t| > K, take
    the recurrence form of S with c = 0; only those entries are redone.
    """
    e = np.pi * (t - n)
    # n - 2 floor(n / 2) is n mod 2, exactly, for every integral double n
    sign = 1.0 - 2.0 * (n - 2.0 * np.floor(0.5 * n))
    v = sign * np.sin(e) / np.pi
    k1 = max_index + 1.0
    # 0 * inf where a grid user snaps to t = +-(K + 1); such entries are redone below
    with np.errstate(invalid="ignore"):
        u = v * (digamma(k1 - t) - digamma(k1 + t)) - sign * np.cos(e)
    out = np.abs(t) > max_index
    if out.any():
        s = np.abs(t[out])
        u[out] = np.sign(t[out]) * v[out] * (digamma(s - max_index) - digamma(s + k1))
    return v, u


def _coincident_gram(a, b, v_a, v_b, max_index: int) -> np.ndarray:
    """G(a, b) for |a - b| < COINCIDENT_GAP, of 1-d arrays of pairs.

    Each 1/((m - a)(m - b)) at least 1 from the midpoint x is taken as
    1/(m - x)^2 and summed by the Hurwitz zeta function
    zeta(2, q) = sum_{j >= 0} 1/(j + q)^2. Each pair takes only the formula
    of its own region. With |x| <= K the sum over all m is sinc(|a - b|),
    less the tail |m| > K. With |x| > K the nearest element +-K is taken
    exactly and the other 2K elements are summed. Each term is symmetric
    in a and b, so G(a, b) and G(b, a) have the same bits.
    """
    x = 0.5 * (a + b)
    s = np.abs(x)
    k1 = max_index + 1.0
    g = np.empty_like(x)
    at = s <= max_index
    tail = zeta(2.0, k1 - x[at]) + zeta(2.0, k1 + x[at])
    g[at] = sinc(np.abs(a[at] - b[at])) - v_a[at] * v_b[at] * tail
    out = ~at
    if out.any():
        s, edge = s[out], np.copysign(max_index, x[out])
        near = sinc(edge - a[out]) * sinc(edge - b[out])
        g[out] = near + v_a[out] * v_b[out] * (zeta(2.0, s - max_index + 1.0) - zeta(2.0, s + k1))
    return g


def _user_terms(config: LensArrayConfig, sf) -> tuple:
    """(t, v, u) of the users of sf, an array of shape (..., L): the
    validated beam coordinates, snapped to the grid with the bits of
    _beam_coords, and their kernel terms of _beam_terms, each of sf's
    shape. The array twin of _user_float, it takes the same steps: each
    user is rounded once, and the snap is applied only when some user lies
    within GRID_SNAP_TOL of the grid, which a random drop almost never
    does. Every entry depends only on its own user."""
    sf = np.asarray(sf, dtype=float)
    _validate_spatial_freq(sf)
    # |sf| <= 1, so t is finite and t - n raises no invalid-value warning
    t = np.asarray(config.d_tilde * sf)
    n = np.rint(t)
    near = np.abs(t - n) < GRID_SNAP_TOL
    if near.any():
        # n keeps the sign of t, so a snapped -0.0 stays -0.0
        t = np.where(near, n, t)
    v, u = _beam_terms(t, n, config.max_index)
    return t, v, u


def _difference_operands(x: np.ndarray) -> tuple:
    """The (..., L, 2) rows (x, 1) and (..., 2, L) columns (1, -x) of x, an
    array of shape (..., L), each written into a fresh array.

    The matrix product of one array's rows and another's columns is
    x_l - y_k for every pair, the one rounding of a two-term sum, so it has
    the bits of x[..., :, None] - y[..., None, :] up to the sign of a zero.
    Like the numerators, a batch of such differences is one rank-2 product
    per row, which BLAS forms faster than NumPy broadcasts a subtraction.
    """
    rows = np.empty(x.shape + (2,))
    cols = np.empty(x.shape[:-1] + (2, x.shape[-1]))
    rows[..., 0] = x
    rows[..., 1] = 1.0
    cols[..., 0, :] = 1.0
    np.negative(x, out=cols[..., 1, :])
    return rows, cols


def _gram_operands(terms) -> tuple:
    """The matrix-product operands of the _user_terms (t, v, u) of shape
    (..., L): the numerator rows (u, -v) and columns (v, u), then the
    _difference_operands rows (t, 1) and columns (1, -t), each of shape
    (..., L, 2) or (..., 2, L) and written into a fresh array. Each holds
    its users' t or v, negated exactly where it holds -t or -v."""
    t, v, u = terms
    rows = np.empty(u.shape + (2,))
    cols = np.empty(u.shape[:-1] + (2, u.shape[-1]))
    rows[..., 0] = u
    np.negative(v, out=rows[..., 1])
    cols[..., 0, :] = v
    cols[..., 1, :] = u
    return (rows, cols) + _difference_operands(t)


def _pair_gram(config: LensArrayConfig, sf_l, sf_k) -> np.ndarray:
    """Signed G between every user of sf_l and every user of sf_k, the pair
    form of the kernel, which the pattern sweep and selfcheck's batch take.

    sf_l and sf_k have shapes (..., L) and (..., N) with the same leading
    shape, and the result has shape (..., L, N). The per-user _user_terms
    call the special functions O(L + N) times per row whatever M. The
    numerators u_l v_k - v_l u_k and the divisors t_l - t_k are each one
    rank-2 matrix product of their _gram_operands per row. Every pair
    closer than COINCIDENT_GAP, a user paired with itself included, takes
    the limit of _coincident_gram, found in one pass over the divisors.
    """
    terms = _user_terms(config, sf_l), _user_terms(config, sf_k)
    (num_l, _, div_l, _), (_, num_k, _, div_k) = (_gram_operands(x) for x in terms)
    g = np.matmul(num_l, num_k)
    diff = np.matmul(div_l, div_k)
    near = np.abs(diff) < COINCIDENT_GAP
    diff[near] = 1.0
    g /= diff
    if near.any():
        (t_l, v_l, _), (t_k, v_k, _) = terms
        ends = (t_l[..., :, None], t_k[..., None, :], v_l[..., :, None], v_k[..., None, :])
        g[near] = _coincident_gram(*(np.broadcast_to(x, g.shape)[near] for x in ends), config.max_index)
    return g


def _pair_powers(config: LensArrayConfig, sf_l, sf_k) -> np.ndarray:
    """Interference (A^2/M) G^2 between the users of sf_l and sf_k, of the
    pair form _pair_gram."""
    g = _pair_gram(config, sf_l, sf_k)
    np.square(g, out=g)
    g *= config.peak_power
    return g


def _user_float(config: LensArrayConfig, sf: float) -> tuple:
    """(t, v, u) of one user on Python floats: the validated, snapped t and
    the terms of _user_terms, with their bits and the sign of each zero,
    where NumPy's per-call overhead would dominate a single pair."""
    # Written so that NaN fails the test too
    if not abs(sf) <= 1.0:
        raise ValueError(SPATIAL_FREQ_ERROR)
    t = float(config.d_tilde * sf)
    n = round(t)
    if abs(t - n) < GRID_SNAP_TOL:
        t = math.copysign(n, t)
        # t - n is +0.0 on the array path, where n is a float of t's sign;
        # with the int n = 0 here, t = -0.0 would give e = -0.0
        e = 0.0
    else:
        e = math.pi * (t - n)
    v = math.sin(e) / math.pi
    c = math.cos(e)
    if n % 2:
        v, c = -v, -c
    k = config.max_index
    k1 = k + 1.0
    s = abs(t)
    if s > k:
        return t, v, math.copysign(1.0, t) * v * float(digamma(s - k) - digamma(s + k1))
    return t, v, v * float(digamma(k1 - t) - digamma(k1 + t)) - c


def pairwise_interference_direct(config: LensArrayConfig, phi_tilde_l, phi_tilde_k):
    """Interference via explicit channel vectors and a Hermitian inner product.

    phi_tilde_l and phi_tilde_k broadcast against each other, and each
    becomes a stack of channel_vectors of shape (..., M). The result is
    (1/M) |h_l^H h_k|^2 along the element axis, one power per broadcast
    pair; two floats give a float. A NaN or a magnitude above 1 anywhere
    raises ValueError. The common phase cancels in h_l^H h_k, so the result
    does not depend on phi0. It costs O(M) per pair and is the oracle the
    pair kernel is tested against.
    """
    h_l = channel_vectors(config, phi_tilde_l)
    h_k = channel_vectors(config, phi_tilde_k)
    inner = (h_l.conj()[..., None, :] @ h_k[..., :, None])[..., 0, 0]
    power = np.square(np.abs(inner)) / config.element_count
    return float(power) if power.ndim == 0 else power


def pairwise_interference_closed(
    config: LensArrayConfig, phi_tilde_l: float, phi_tilde_k: float
) -> float:
    """Closed-form interference, identical to the direct path to rounding.

    O(1) work whatever the element count, for every pair of users. A
    coincident pair, |t_l - t_k| < COINCIDENT_GAP, takes the limit of
    _coincident_gram on its users' t and v.
    """
    a, v_a, u_a = _user_float(config, float(phi_tilde_l))
    b, v_b, u_b = _user_float(config, float(phi_tilde_k))
    if abs(a - b) < COINCIDENT_GAP:
        g = float(_coincident_gram(*np.array([[a], [b], [v_a], [v_b]]), config.max_index)[0])
    else:
        g = (u_a * v_b - v_a * u_b) / (a - b)
    return config.peak_power * g * g


def sweep_pattern(config: LensArrayConfig, phi_tilde_l: float, delta_grid) -> PatternSeries:
    """Interference pattern versus angular separation delta = phi_l - phi_k.

    Grid points whose interferer frequency phi_tilde_l - delta falls outside
    [-1, 1] are skipped and counted in skipped_count.
    """
    _validate_spatial_freq(phi_tilde_l)
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must be non-empty")
    if deltas.size > 1 and not np.all(np.diff(deltas) > 0):
        raise ValueError("delta grid must be strictly increasing")
    sf_k = phi_tilde_l - deltas
    keep = np.abs(sf_k) <= 1.0
    deltas = deltas[keep]
    if deltas.size == 0:
        raise ValueError("no delta grid point keeps the interferer in range")
    powers = _pair_powers(config, [float(phi_tilde_l)], sf_k[keep])[0]
    theta = config.d_tilde * deltas
    return PatternSeries(
        phi_tilde_l=float(phi_tilde_l),
        deltas=deltas,
        theta_norms=theta,
        powers_linear=powers,
        powers_db=power_to_db(powers),
        effective=np.abs(theta) <= 1.0,
        skipped_count=int(np.count_nonzero(~keep)),
    )


def first_null(config: LensArrayConfig, phi_tilde_l: float) -> float:
    """Smallest positive separation where the pattern power vanishes.

    Requires phi_tilde_l on the beam grid, t = d_tilde * phi_tilde_l = n.
    With |n| <= K the profile is one-hot at element n, so the pattern is
    exactly (A^2/M) sinc^2(d_tilde * delta) and the first null is 1/d_tilde,
    provided the interferer there, at (n - 1)/d_tilde, is admissible.
    """
    t = _user_float(config, float(phi_tilde_l))[0]
    n = round(t)
    if t != n:
        raise ValueError("phi_tilde_l must be a beam grid point m/d_tilde")
    if abs(n) > config.max_index:
        raise NullNotFoundError(
            f"grid index {n} lies beyond the {config.element_count} elements; the pattern is zero"
        )
    if n - 1 < -config.d_tilde:
        raise NullNotFoundError("the null at 1/d_tilde puts the interferer beyond end-fire")
    return 1.0 / config.d_tilde


def sidelobe_ratio_db(config: LensArrayConfig) -> float:
    """Peak-to-first-sidelobe power ratio in dB for a broadside user.

    The broadside profile is one-hot, so the pattern is (A^2/M) sinc^2(x)
    with x = d_tilde * delta, and the ratio is -20 log10 |sinc(x_1)| for
    every array, with x_1 = SIDELOBE_PEAK_X.
    """
    if config.element_count < 11:
        raise ValueError("element_count must be at least 11 to resolve a sidelobe")
    return SIDELOBE_RATIO_DB
