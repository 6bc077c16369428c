"""Reference values computed without lensmimo, from NumPy and SciPy alone.

Every function here restates the model from its definitions, so a fault in
the package cannot hide behind the same fault in its own reference.
"""

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy import integrate, special

HALF_WIDTH = math.pi / 3.0  # default sector: DOAs uniform on [-60, 60] degrees


def element_count(d_tilde: float) -> int:
    return 1 + 2 * math.floor(d_tilde)


def mainlobe_share() -> float:
    """2 Si(2 pi) / pi: the share of unit sinc^2 energy inside |x| <= 1."""
    return 2.0 * special.sici(2.0 * math.pi)[0] / math.pi


def closed_prob(d_tilde: float) -> float:
    """First-order closed form artanh(sin h) / (h^2 d_tilde), clamped to 1."""
    h = HALF_WIDTH
    return min(1.0, math.atanh(math.sin(h)) / (h * h * d_tilde))


def density_centre(d_tilde: float) -> float:
    """f_Theta(0) = artanh(sin h) / (2 h^2 d_tilde), exact for any aperture."""
    h = HALF_WIDTH
    return math.atanh(math.sin(h)) / (2.0 * h * h * d_tilde)


def effective_prob(d_tilde: float) -> float:
    """P(|sin phi_l - sin phi_k| <= 1/d_tilde) for phi uniform on [-h, h].

    Conditioning on phi_l, the probability is the difference of the
    single-variate CDF F(y) = (asin(clip(y, -s, s)) + h) / (2h) of
    Y = sin(phi) at sin(phi_l) +- 1/d_tilde, averaged over phi_l. The
    integrand has kinks where sin(phi_l) +- 1/d_tilde meets +-s; they are
    passed to the integrator as break points.
    """
    h = HALF_WIDTH
    s = math.sin(h)
    w = 1.0 / d_tilde
    if w >= 2.0 * s:
        return 1.0

    def cdf(y):
        return (math.asin(min(s, max(-s, y))) + h) / (2.0 * h)

    def integrand(phi):
        y = math.sin(phi)
        return cdf(y + w) - cdf(y - w)

    kinks = sorted({math.asin(s - w), math.asin(w - s)})
    val, _ = integrate.quad(integrand, -h, h, points=kinks, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val / (2.0 * h)


def broadside_pattern(d_tilde: float, a_z: float, deltas: np.ndarray) -> np.ndarray:
    """(A^2 / M) sinc^2(d_tilde delta): the pattern of a user at broadside.

    A broadside user sits on the beam grid, so its profile is one-hot at
    element 0 and the pattern is exactly the interferer's sinc at m = 0.
    """
    a = d_tilde * a_z
    return (a * a / element_count(d_tilde)) * np.sinc(d_tilde * np.asarray(deltas)) ** 2


def pair_power(d_tilde: float, sf_l: float, sf_k: float) -> float:
    """(A^2 / M) (sum_m sinc(m - d_tilde sf_l) sinc(m - d_tilde sf_k))^2 for one pair."""
    k = (element_count(d_tilde) - 1) // 2
    m = np.arange(-k, k + 1, dtype=float)
    s = float(np.sinc(m - d_tilde * sf_l) @ np.sinc(m - d_tilde * sf_k))
    return d_tilde * d_tilde / m.size * s * s


def ensemble_means(seed: int, d_tilde: float, users: int, trials: int) -> dict:
    """Recompute one drop ensemble's means from its DOA stream.

    Layout (bench README, "Determinism"): the stream is the uniform doubles
    of Generator(Philox(key=seed)), trial t takes doubles [t L, (t + 1) L),
    and phi = (2 u - 1) h. Powers come from a sinc Gram matrix per trial,
    (A^2 / M) (p_l . p_k)^2 with p_l[m] = sinc(m - d_tilde sin phi_l), over
    ordered pairs l != k; a pair is effective when
    |d_tilde (sin phi_l - sin phi_k)| <= 1. Trials are taken in small
    blocks so the check never holds a large L x L array.
    """
    u = Generator(Philox(key=seed)).random(trials * users).reshape(trials, users)
    st = np.sin((2.0 * u - 1.0) * HALF_WIDTH)
    k = (element_count(d_tilde) - 1) // 2
    m = np.arange(-k, k + 1, dtype=float)
    scale = d_tilde * d_tilde / (2 * k + 1)
    off_diag = ~np.eye(users, dtype=bool)
    block = max(1, 1_000_000 // (users * (users + m.size)))
    exact = effective = count = 0.0
    for a in range(0, trials, block):
        s = st[a:a + block]
        prof = np.sinc(m - d_tilde * s[..., None])
        gram = prof @ prof.transpose(0, 2, 1)
        power = scale * gram * gram * off_diag
        gate = (np.abs(d_tilde * (s[:, :, None] - s[:, None, :])) <= 1.0) & off_diag
        exact += power.sum()
        effective += (power * gate).sum()
        count += gate.sum()
    n = trials * users
    return {"mean_exact": exact / n, "mean_effective": effective / n, "mean_effective_count": count / n}
