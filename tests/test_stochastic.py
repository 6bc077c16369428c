"""Distribution-layer tests.

The key oracle here is independent of the implementation under test: the
probability P(|Theta| <= 1) is recomputed from the analytic single-variate
CDF of a sine-transformed uniform angle, via

    P(W <= w) = E[ F(Y + w) ],   W = Y_l - Y_k,

which needs only one quadrature of a bounded integrand and never touches
the convolution integrand inside theta_pdf. Pointwise density values are
cross-checked as central differences of that same CDF.
"""

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lensmimo import (
    LensArrayConfig,
    ProbEstimate,
    ScenarioConfig,
    SectorModel,
    effective_prob_closed,
    effective_prob_mc,
    effective_prob_quadrature,
    run_scenario,
    sample_doas,
    spatial_freq_pdf,
    theta_pdf,
)
from lensmimo import stochastic
from lensmimo.stochastic import (
    MAX_THREADS,
    MC_RANGE_PAIRS,
    _classify_pairs,
    _count_effective,
    _gate_band,
    _integrate,
    _map_ranges,
    _unit_stream,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HALF_WIDTH = math.pi / 3.0
S_MAX = math.sin(HALF_WIDTH)
ARTANH_S = math.atanh(S_MAX)  # 1.3169578969248166

# Reference probabilities from the CDF-difference oracle below, frozen to
# ten digits after cross-checking against Monte Carlo at n = 2e7.
TRUE_P = {5.0: 0.2122855401, 10.0: 0.1122673842, 20.0: 0.0579480061}
CLOSED_P10 = 9.0 * ARTANH_S / (math.pi**2 * 10.0)


def cdf_of_difference(w: float) -> float:
    """P(sin(U1) - sin(U2) <= w) for U uniform on the default sector."""
    h = HALF_WIDTH

    def single_cdf(y):
        return (math.asin(min(S_MAX, max(-S_MAX, y))) + h) / (2.0 * h)

    val, _ = integrate.quad(
        lambda t: single_cdf(math.sin(t) + w), -h, h, epsabs=1e-12, limit=300
    )
    return val / (2.0 * h)


def oracle_effective_prob(d_tilde: float) -> float:
    return cdf_of_difference(1.0 / d_tilde) - cdf_of_difference(-1.0 / d_tilde)


def oracle_theta_pdf(z: float, d_tilde: float, eps: float = 1e-5) -> float:
    w = z / d_tilde
    return (cdf_of_difference(w + eps) - cdf_of_difference(w - eps)) / (2.0 * eps) / d_tilde


def nested_quad_theta_pdf(z: float, d_tilde: float, sector: SectorModel = SectorModel()) -> float:
    """theta_pdf by adaptive quadrature of its convolution integral.

    The substitution y = sin(t) removes the inverse-square-root endpoint
    singularities of the integrand in y.
    """
    s = sector.max_spatial_freq
    w = z / d_tilde
    y_lo = max(-s, -s - w)
    y_hi = min(s, s - w)
    if y_lo >= y_hi:
        return 0.0
    val, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - (math.sin(t) + w) ** 2),
        math.asin(y_lo), math.asin(y_hi), epsabs=1e-10, limit=200,
    )
    h2 = 2.0 * sector.half_width
    return val / (d_tilde * h2 * h2)


def chi2_pvalue_theta(d_tilde: float, n_pairs: int, seed: int, bins: int = 50) -> float:
    """Chi-squared p-value of Monte Carlo Theta draws against theta_pdf.

    Equal-probability bin edges come from numerically inverting the CDF of
    theta_pdf, so the test pins the density shape, not just its mass.
    """
    edge = math.sqrt(3.0) * d_tilde
    zs = np.linspace(0.0, edge, 2001)
    pdf = np.array([theta_pdf(z, d_tilde) for z in zs])
    half = integrate.cumulative_trapezoid(pdf, zs, initial=0.0)
    cdf = 0.5 + half / (2.0 * half[-1])

    qs = np.arange(1, bins) / bins
    interior = np.empty(bins - 1)
    for i, q in enumerate(qs):
        if q == 0.5:
            interior[i] = 0.0
        elif q > 0.5:
            interior[i] = np.interp(q, cdf, zs)
        else:
            interior[i] = -np.interp(1.0 - q, cdf, zs)

    phi = sample_doas(seed, 2 * n_pairs)
    theta = d_tilde * (np.sin(phi[0::2]) - np.sin(phi[1::2]))
    counts, _ = np.histogram(theta, bins=np.concatenate(([-2 * edge], interior, [2 * edge])))
    expected = n_pairs / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(stat, bins - 1))


class TestSectorModel:
    def test_default_half_width(self):
        assert SectorModel().half_width == pytest.approx(math.pi / 3, rel=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SectorModel(half_width=0.0)
        with pytest.raises(ValueError):
            SectorModel(half_width=2.0)

    def test_max_spatial_freq(self):
        assert SectorModel().max_spatial_freq == pytest.approx(S_MAX, rel=1e-15)


class TestSpatialFreqPdf:
    def test_center_value(self):
        assert spatial_freq_pdf(0.0) == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-14)

    def test_outside_support(self):
        assert spatial_freq_pdf(0.9) == 0.0
        assert spatial_freq_pdf(-0.9) == 0.0

    def test_normalization(self):
        val, _ = integrate.quad(spatial_freq_pdf, -S_MAX, S_MAX, epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
    @settings(max_examples=100)
    def test_even_and_nonnegative(self, y):
        assert spatial_freq_pdf(y) >= 0.0
        assert spatial_freq_pdf(y) == spatial_freq_pdf(-y)

    def test_half_space_sector_is_infinite_at_end_fire(self):
        # 1/(2 h sqrt(1 - y^2)) at |y| = 1, as theta_pdf is at z = 0 there
        sector = SectorModel(math.pi / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spatial_freq_pdf(1.0, sector) == spatial_freq_pdf(-1.0, sector) == math.inf
            got = spatial_freq_pdf(np.array([-1.0, 0.0, 1.0, 1.5]), sector)
        assert got.tolist() == [math.inf, 1.0 / math.pi, math.inf, 0.0]


class TestThetaPdf:
    def test_center_value_analytic(self):
        # inner integral at z = 0 is 2 artanh(sin h)
        expect = 2.0 * ARTANH_S / (10.0 * (2.0 * HALF_WIDTH) ** 2)
        assert theta_pdf(0.0, 10.0) == pytest.approx(expect, rel=1e-10)
        assert theta_pdf(0.0, 10.0) == pytest.approx(0.06004607981559583, rel=1e-9)

    @pytest.mark.parametrize(
        "z,expect",
        [(0.25, 0.05790853), (0.5, 0.05600870), (0.75, 0.05429452), (1.0, 0.05272980)],
    )
    def test_frozen_profile_at_d10(self, z, expect):
        assert theta_pdf(z, 10.0) == pytest.approx(expect, abs=2e-7)

    @pytest.mark.parametrize("z", [0.3, 0.7, 1.0, 4.0, 11.0])
    def test_matches_cdf_difference_oracle(self, z):
        assert theta_pdf(z, 10.0) == pytest.approx(oracle_theta_pdf(z, 10.0), rel=2e-4)

    def test_outside_support(self):
        assert theta_pdf(2.0 * math.sqrt(3.0) * 10.0, 10.0) == 0.0
        assert theta_pdf(math.sqrt(3.0) * 10.0, 10.0) == 0.0

    def test_just_inside_support_positive(self):
        assert theta_pdf(math.sqrt(3.0) * 10.0 - 0.05, 10.0) > 0.0

    @given(st.floats(min_value=-17.0, max_value=17.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_even_in_z(self, z):
        assert theta_pdf(z, 10.0) == pytest.approx(theta_pdf(-z, 10.0), abs=1e-9)

    def test_normalization_three_dimensions(self):
        for d_tilde in (2.0, 10.0, 50.0):
            edge = math.sqrt(3.0) * d_tilde
            half, _ = integrate.quad(
                lambda z: theta_pdf(z, d_tilde), 0.0, edge, epsabs=1e-10, limit=300
            )
            assert 2.0 * half == pytest.approx(1.0, abs=1e-6), f"d_tilde {d_tilde}"

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            theta_pdf(0.0, 0.0)

    def test_histogram_matches_density(self):
        assert chi2_pvalue_theta(10.0, n_pairs=200_000, seed=1618) > 0.01


class TestThetaPdfClosedForm:
    @pytest.mark.parametrize("half_width", [HALF_WIDTH, 0.1, 1.5])
    @pytest.mark.parametrize("d_tilde", [2.0, 10.0, 50.0, 10.0037])
    def test_matches_nested_quadrature(self, d_tilde, half_width):
        sector = SectorModel(half_width)
        edge = 2.0 * sector.max_spatial_freq * d_tilde
        for frac in (0.0, 0.01, 0.1, 0.3, 0.5, 0.8, 0.95, 0.999):
            for z in (frac * edge, -frac * edge):
                want = nested_quad_theta_pdf(z, d_tilde, sector)
                assert theta_pdf(z, d_tilde, sector) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("half_width", [HALF_WIDTH, 0.1, 1.5])
    @pytest.mark.parametrize("d_tilde", [2.0, 10.0, 57.3])
    def test_center_is_artanh(self, d_tilde, half_width):
        sector = SectorModel(half_width)
        expect = math.atanh(sector.max_spatial_freq) / (2.0 * half_width**2 * d_tilde)
        assert theta_pdf(0.0, d_tilde, sector) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("d_tilde", [0.3, 2.0, 10.0, 10.0037, 50.0])
    def test_exactly_zero_at_and_beyond_support_edge(self, d_tilde):
        edge = 2.0 * S_MAX * d_tilde
        zs = np.array([edge, -edge, np.nextafter(edge, np.inf), 1.5 * edge, -1e6 * edge])
        assert [theta_pdf(float(z), d_tilde) for z in zs] == [0.0] * zs.size
        np.testing.assert_array_equal(theta_pdf(zs, d_tilde), np.zeros(zs.size))

    def test_array_input_matches_scalar_calls(self):
        zs = np.linspace(-20.0, 20.0, 401)
        values = theta_pdf(zs, 10.0)
        assert isinstance(values, np.ndarray) and values.shape == zs.shape
        assert isinstance(theta_pdf(0.3, 10.0), float)
        np.testing.assert_array_equal(values, [theta_pdf(float(z), 10.0) for z in zs])

    def test_exactly_even(self):
        zs = np.linspace(0.0, 18.0, 181)
        np.testing.assert_array_equal(theta_pdf(zs, 10.0), theta_pdf(-zs, 10.0))

    def test_half_space_sector_diverges_at_center(self):
        # With s = 1 the inner integral at z = 0 is the integral of
        # 1/(1 - y^2) over [-1, 1], which diverges logarithmically.
        sector = SectorModel(math.pi / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theta_pdf(0.0, 10.0, sector) == math.inf
            value = theta_pdf(1.0, 10.0, sector)
        assert value == pytest.approx(nested_quad_theta_pdf(1.0, 10.0, sector), rel=1e-9)


def same_bits(x, y) -> bool:
    """Equal as doubles bit for bit, with any NaN equal to any NaN."""
    x, y = np.float64(x), np.float64(y)
    if math.isnan(x):
        return math.isnan(y)
    return x.tobytes() == y.tobytes()


class TestThetaPdfFloatPath:
    """A float z runs the array expressions as a 0-d array and gives a float
    with the bits of a one-element array."""

    @pytest.mark.parametrize("half_width", [HALF_WIDTH, math.pi / 2.0, 0.1])
    @pytest.mark.parametrize("d_tilde", [2.0, 10.0, 10.003, 50.0])
    def test_float_equals_one_element_array(self, d_tilde, half_width):
        sector = SectorModel(half_width)
        edge = 2.0 * sector.max_spatial_freq * d_tilde
        zs = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5 * edge, -1e6 * edge]
        for e in (edge, -edge):
            zs += [e, np.nextafter(e, 0.0), np.nextafter(e, 2.0 * e)]
        zs += np.random.default_rng(5).uniform(-edge, edge, 500).tolist()
        for z in zs:
            want = theta_pdf(np.array([z]), d_tilde, sector)[0]
            for arg in (float(z), np.float64(z)):
                got = theta_pdf(arg, d_tilde, sector)
                assert type(got) is float
                assert same_bits(got, want), (z, got, want)

    def test_half_space_center_is_infinite_on_both_paths(self):
        sector = SectorModel(math.pi / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theta_pdf(0.0, 10.0, sector) == math.inf
            assert theta_pdf(np.array([0.0]), 10.0, sector)[0] == math.inf


class TestThetaPdfBeyondADouble:
    """Where |z|/d_tilde exceeds the largest double the quotient rounds to
    inf, which is outside the support: those points give 0 without a
    warning, and every other point keeps the bits it has alone."""

    @pytest.mark.parametrize("d_tilde", [1e-300, sys.float_info.min, 1e-200])
    def test_overflowing_quotient_gives_zero_quietly(self, d_tilde):
        far = [-1e300, -sys.float_info.max, 1e300, sys.float_info.max, math.inf]
        near = [0.0, -0.5 * d_tilde, 1.3 * d_tilde, -1.7 * d_tilde, 1e-290 * d_tilde]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = theta_pdf(np.array(far + near), d_tilde)
            alone = theta_pdf(np.array(near), d_tilde)
            assert all(theta_pdf(z, d_tilde) == 0.0 for z in far)
        assert np.array_equal(got[: len(far)], np.zeros(len(far)))
        assert got[len(far):].tobytes() == alone.tobytes()
        assert np.all(alone[:4] > 0.0)


class TestIntegrate:
    """The fixed rule behind effective_prob_quadrature, on integrals known in
    closed form with the kinds of end behaviour theta_pdf has."""

    @pytest.mark.parametrize(
        "f, lo, hi, want",
        [
            (lambda z: -np.log(z), 0.0, 1.0, 1.0),
            (lambda z: np.sqrt(2.0 - z), 0.0, 2.0, 4.0 * math.sqrt(2.0) / 3.0),
            (np.log, 0.0, 3.0, 3.0 * math.log(3.0) - 3.0),
            (np.cos, -1.0, 0.5, math.sin(0.5) + math.sin(1.0)),
            (lambda z: z**39, 0.0, 1.0, 1.0 / 40.0),
        ],
        ids=["log-at-0", "sqrt-at-hi", "log-at-0-long", "smooth", "polynomial"],
    )
    def test_known_integrals(self, f, lo, hi, want):
        assert _integrate(f, lo, hi) == pytest.approx(want, rel=4e-15)

    def test_integrand_is_called_once_on_840_points_inside(self):
        calls = []

        def f(z):
            calls.append(z.copy())
            return np.ones_like(z)

        assert _integrate(f, 2.0, 5.0) == pytest.approx(3.0, rel=1e-15)
        assert len(calls) == 1 and calls[0].shape == (840,)
        assert calls[0].min() >= 2.0 and calls[0].max() <= 5.0

    # The quadrature probabilities of the prob command on both sectors and
    # selfcheck's density integrals, printed as the hex of their bytes
    PROBE = """
import math
from lensmimo.stochastic import SectorModel, _integrate, effective_prob_quadrature, theta_pdf
probs = [effective_prob_quadrature(d, s) for d in (2.0, 5.0, 5.3, 10.0, 20.0, 50.0)
         for s in (SectorModel(), SectorModel(math.pi / 2.0))]
norms = [_integrate(lambda z: theta_pdf(z, d), 0.0, math.sqrt(3.0) * d) for d in (2.0, 10.0, 50.0)]
print(" ".join(x.hex() for x in probs + norms))
"""

    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
    def test_bits_do_not_depend_on_the_blas_kernel(self, capsys, coretype):
        exec(self.PROBE, {})
        here = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_CORETYPE": coretype})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == here


class TestEffectiveProbQuadrature:
    @pytest.mark.parametrize("half_width", [0.1, HALF_WIDTH, 1.5, math.pi / 2.0])
    @pytest.mark.parametrize("d_tilde", [1e-3, 0.3, 2.0, 5.0, 10.0, 10.003, 50.0, 1e4, 1e6])
    def test_matches_tight_adaptive_quadrature(self, d_tilde, half_width):
        sector = SectorModel(half_width)
        upper = min(1.0, 2.0 * sector.max_spatial_freq * d_tilde)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            half, _ = integrate.quad(
                theta_pdf, 0.0, upper, args=(d_tilde, sector), epsabs=1e-14, epsrel=1e-14, limit=2000
            )
        assert effective_prob_quadrature(d_tilde, sector) == pytest.approx(min(1.0, 2.0 * half), abs=2e-15)

    @pytest.mark.parametrize("d_tilde", [5.0, 10.0, 20.0])
    def test_matches_independent_oracle(self, d_tilde):
        got = effective_prob_quadrature(d_tilde)
        assert got == pytest.approx(oracle_effective_prob(d_tilde), abs=1e-6)
        assert got == pytest.approx(TRUE_P[d_tilde], abs=1e-7)

    @pytest.mark.parametrize("d_tilde", [2.0, 5.0, 10.0, 20.0, 50.0])
    def test_matches_quadrature_of_nested_density(self, d_tilde):
        edge = 2.0 * S_MAX * d_tilde
        half, _ = integrate.quad(
            nested_quad_theta_pdf, 0.0, min(1.0, edge), args=(d_tilde,), epsabs=1e-8, limit=200
        )
        assert effective_prob_quadrature(d_tilde) == pytest.approx(2.0 * half, rel=1e-14)

    def test_tiny_array_captures_everything(self):
        assert effective_prob_quadrature(1.0 / (2.0 * math.sqrt(3.0))) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_monotone_nonincreasing(self):
        values = [effective_prob_quadrature(d) for d in (2.0, 5.0, 10.0, 20.0, 50.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestEffectiveProbClosed:
    def test_reference_values(self):
        assert effective_prob_closed(10.0) == pytest.approx(CLOSED_P10, rel=1e-12)
        assert effective_prob_closed(10.0) == pytest.approx(0.120089, abs=5e-5)
        assert effective_prob_closed(20.0) == pytest.approx(CLOSED_P10 / 2.0, rel=1e-12)

    def test_inverse_dimension_form(self):
        products = [effective_prob_closed(d) * d for d in (5.0, 10.0, 20.0, 50.0)]
        for p in products[1:]:
            assert p == pytest.approx(products[0], rel=1e-12)

    def test_large_array_guard(self):
        with pytest.raises(ValueError):
            effective_prob_closed(1.0)
        assert 0.0 < effective_prob_closed(2.0) <= 1.0

    @pytest.mark.parametrize("half_width", [math.pi / 2.0, math.pi / 2.0 - 1e-8])
    def test_sector_whose_sine_rounds_to_one_rejected(self, half_width):
        # artanh(sin h) diverges as sin h -> 1, while the probability stays finite
        sector = SectorModel(half_width)
        assert sector.max_spatial_freq == 1.0
        with pytest.raises(ValueError, match="half_width"):
            effective_prob_closed(10.0, sector)
        assert effective_prob_quadrature(10.0, sector) == pytest.approx(0.1091, abs=5e-5)
        with pytest.raises(ValueError, match="c/d_tilde"):
            effective_prob_closed(10.0, SectorModel(math.pi / 2.0 - 1e-7))

    @pytest.mark.parametrize("gap", [1e-7, 1e-4, 1e-2])
    def test_sector_near_half_space_rejected(self, gap):
        # c/d_tilde is 1.5e11, 2.5e5 and 47 here, where the form read 0.681,
        # 0.401 and 0.217 against 0.109 by quadrature
        sector = SectorModel(math.pi / 2.0 - gap)
        assert sector.max_spatial_freq < 1.0
        with pytest.raises(ValueError, match="c/d_tilde"):
            effective_prob_closed(10.0, sector)
        assert effective_prob_quadrature(10.0, sector) == pytest.approx(0.109, abs=1e-3)

    def test_error_law_bound(self):
        # c/d_tilde <= 1/2: the default sector keeps every d_tilde >= 2 (0.380
        # at 2), and a narrow one only d_tilde >= 2c, about 5.04 at h = 0.1
        h = math.pi / 3.0
        assert effective_prob_closed(2.0) == math.atanh(math.sin(h)) / (h * h * 2.0)
        narrow = SectorModel(0.1)
        c = 1.0 / (4.0 * math.cos(0.1) ** 2 * math.atanh(math.sin(0.1)))
        assert 5.03 < 2.0 * c < 5.05
        with pytest.raises(ValueError, match="c/d_tilde"):
            effective_prob_closed(5.03, narrow)
        assert 0.0 < effective_prob_closed(5.05, narrow) <= 1.0

    def test_first_order_error_law(self):
        """The closed form is first-order accurate: its gap to the true
        probability shrinks like c/d_tilde with c = 1/(4 cos^2 h artanh(sin h))
        (0.759/d_tilde for the default sector), so the absolute gap decreases
        monotonically with the array dimension while remaining far above
        quadrature accuracy."""
        quads = {d: effective_prob_quadrature(d) for d in (5.0, 10.0, 20.0, 40.0)}
        gaps = [abs(quads[d] - effective_prob_closed(d)) for d in (5.0, 10.0, 20.0, 40.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        rel_gaps = [
            abs(quads[d] - effective_prob_closed(d)) / quads[d] for d in (5.0, 10.0, 20.0)
        ]
        np.testing.assert_allclose(rel_gaps, [0.1314, 0.0697, 0.0362], atol=1e-3)

    @pytest.mark.parametrize("half_width, bound", [(math.pi / 3.0, 1.5), (0.1, 0.19), (1.2, 4.4)])
    def test_second_order_error_law(self, half_width, bound):
        """The separation density has a kink at 0, f(a) = f(0) - J^2 |a| +
        O(a^2), with J = 1/(2 h cos h) the jump of the spatial-frequency
        density at +-sin h. Integrating it over |a| <= 1/d_tilde gives
        P2 = P1 - 1/(4 h^2 cos^2 h d_tilde^2), with P1 the closed form, so
        P2 errs by O(1/d_tilde^2) relative. Each bound is the largest
        |P2 - quad|/quad * d_tilde^2 measured over these d_tilde, 1.36, 0.169
        and 3.96, each reached at d_tilde = 100, plus about 10% headroom."""
        h = half_width
        sector = SectorModel(h)
        for d in (5.0, 7.0, 10.0, 14.0, 20.0, 30.0, 50.0, 70.0, 100.0):
            quad = effective_prob_quadrature(d, sector)
            p2 = math.atanh(math.sin(h)) / (h * h * d) - 1.0 / (4.0 * h * h * math.cos(h) ** 2 * d * d)
            assert abs(p2 - quad) / quad <= bound / (d * d), d


class TestEffectiveProbMc:
    def test_agrees_with_quadrature(self):
        for d_tilde in (5.0, 10.0, 20.0):
            est = effective_prob_mc(d_tilde, sample_count=200_000, seed=99)
            assert abs(est.value - TRUE_P[d_tilde]) <= 4.0 * est.std_error

    def test_everything_effective_for_tiny_array(self):
        est = effective_prob_mc(1.0 / (2.0 * math.sqrt(3.0)), sample_count=10_000, seed=3)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_std_error_is_binomial(self):
        est = effective_prob_mc(10.0, sample_count=50_000, seed=8)
        expect = math.sqrt(est.value * (1.0 - est.value) / est.sample_count)
        assert est.std_error == pytest.approx(expect, rel=1e-12)

    def test_thread_count_does_not_change_value(self):
        base = effective_prob_mc(10.0, sample_count=300_000, seed=5, threads=1)
        for threads in (2, 3, 4, 8):
            alt = effective_prob_mc(10.0, sample_count=300_000, seed=5, threads=threads)
            assert alt.value == base.value

    def test_pairs_consume_the_doa_stream_in_order(self):
        # pair i uses stream draws 2i and 2i+1; recompute from sample_doas
        n = 50_000
        est = effective_prob_mc(10.0, sample_count=n, seed=12)
        phi = sample_doas(12, 2 * n)
        theta = 10.0 * (np.sin(phi[0::2]) - np.sin(phi[1::2]))
        assert est.value == np.count_nonzero(np.abs(theta) <= 1.0) / n

    def test_validation(self):
        # a float or a bool count would fail late, inside the range split, or run
        for sample_count in (0, 1e5, 1000.0, True):
            with pytest.raises(ValueError, match="sample_count"):
                effective_prob_mc(10.0, sample_count=sample_count, seed=1)
        with pytest.raises(ValueError):
            effective_prob_mc(-1.0, sample_count=10, seed=1)
        for threads in (0, -3, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="threads"):
                effective_prob_mc(10.0, sample_count=1000, seed=1, threads=threads)


D_TILDE_CONSUMERS = {
    "quadrature": effective_prob_quadrature,
    "closed": effective_prob_closed,
    "mc": lambda d_tilde: effective_prob_mc(d_tilde, sample_count=1000, seed=1),
    "theta_pdf": lambda d_tilde: theta_pdf(0.5, d_tilde),
}


@pytest.mark.parametrize(
    "fn, value",
    [pytest.param(fn, value, id=name + suffix)
     for value, suffix in ((math.nan, ""), (math.inf, "-inf"), (5e-324, "-5e-324"),
                           (1e-310, "-1e-310"), (np.nextafter(sys.float_info.min, 0.0), "-subnormal"))
     for name, fn in D_TILDE_CONSUMERS.items()],
)
def test_nan_dimension_rejected(fn, value):
    # NaN fails every comparison and inf passes d_tilde > 0, where each
    # estimator would return 0.0; a subnormal d_tilde overflows 1/d_tilde in
    # the density with a warning. The shared guard rejects all three.
    with pytest.raises(ValueError, match="d_tilde must be finite and at least"):
        fn(value)


@pytest.mark.parametrize("name", ["quadrature", "theta_pdf"])
def test_least_normal_dimension_accepted(name):
    # every warning is an error here, so no overflow reaches the result
    value = D_TILDE_CONSUMERS[name](sys.float_info.min)
    assert math.isfinite(value) and value >= 0.0


class TestMapRanges:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_ranges_tile_the_count_in_order(self, threads):
        got = _map_ranges(lambda a, b: (a, b), 10, 3, threads)
        assert got == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert _map_ranges(lambda a, b: (a, b), 5, 8, threads) == [(0, 5)]

    def test_results_keep_range_order_when_later_ranges_finish_first(self):
        def slow_first(a, b):
            time.sleep(0.01 * (8 - a))
            return a

        assert _map_ranges(slow_first, 8, 2, threads=4) == [0, 2, 4, 6]

    @pytest.mark.parametrize("threads", [0, -3, math.nan, 1.5, 2.0])
    def test_thread_count_below_one_rejected(self, threads):
        calls = []
        with pytest.raises(ValueError, match="threads"):
            _map_ranges(lambda a, b: calls.append(a), 10, 3, threads)
        assert calls == []


class TestMapRangesCallerJoins:
    """The calling thread runs ranges too, beside at most threads - 1 helpers."""

    @pytest.mark.parametrize("ranges", [2, 3, 9])
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_caller_works_and_threads_are_capped(self, threads, ranges):
        runners = []

        def fn(a, b):
            runners.append(threading.get_ident())
            time.sleep(0.002)
            return a

        assert _map_ranges(fn, 5 * ranges - 1, 5, threads) == list(range(0, 5 * ranges, 5))
        assert len(runners) == ranges
        assert threading.get_ident() in runners
        assert len(set(runners)) <= min(threads, ranges)

    @pytest.mark.parametrize("ranges", [2, 3, 9])
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_exception_in_any_range_reaches_the_caller(self, threads, ranges):
        for bad in range(ranges):
            def fn(a, b, bad=bad):
                if a == 5 * bad:
                    raise KeyError(bad)
                return a

            with pytest.raises(KeyError) as info:
                _map_ranges(fn, 5 * ranges, 5, threads)
            assert info.value.args == (bad,)

    def test_every_range_runs_once_under_frequent_switches(self):
        # A lost update of the shared counter would run a range twice or never.
        starts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _map_ranges(lambda a, b: starts.append(a) or a, 2000, 1, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(2000))
        assert sorted(starts) == list(range(2000))


class InlineExecutor:
    """A stand-in for ThreadPoolExecutor that records its max_workers and
    runs each submitted call at once on the calling thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestThreadBound:
    """threads is bounded by MAX_THREADS, so a call never asks for more
    helper threads, and their working sets, than that. No thread starts:
    the executor is patched."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        monkeypatch.setattr(stochastic, "ThreadPoolExecutor", InlineExecutor)
        monkeypatch.setattr(InlineExecutor, "sizes", [])
        return InlineExecutor.sizes

    def test_the_bound_is_the_most_helpers_asked_for(self, sizes):
        assert _map_ranges(lambda a, b: a, 1000, 1, MAX_THREADS) == list(range(1000))
        assert sizes == [MAX_THREADS - 1]

    @pytest.mark.parametrize("threads", [MAX_THREADS + 1, 100_000, 2**70])
    def test_threads_above_the_bound_rejected(self, sizes, threads):
        calls = []
        with pytest.raises(ValueError, match=f"threads must be an integer in \\[1, {MAX_THREADS}\\]"):
            _map_ranges(lambda a, b: calls.append(a), 10**6, 1, threads)
        with pytest.raises(ValueError, match="threads"):
            effective_prob_mc(10.0, sample_count=10**9, seed=1, threads=threads)
        cfg = ScenarioConfig(LensArrayConfig(5.0), 200, 1_000_000, 1)
        with pytest.raises(ValueError, match="threads"):
            run_scenario(cfg, threads=threads)
        assert calls == [] and sizes == []

    def test_results_at_the_bound_match_one_thread(self, sizes):
        cfg = ScenarioConfig(LensArrayConfig(10.3), 12, 700, 6)
        one, most = run_scenario(cfg), run_scenario(cfg, threads=MAX_THREADS)
        for field in ("exact_totals", "effective_totals", "effective_counts", "cdf_grid", "cdf_values"):
            assert getattr(most, field).tobytes() == getattr(one, field).tobytes(), field
        mc = [effective_prob_mc(10.0, sample_count=300_000, seed=5, threads=t) for t in (1, MAX_THREADS)]
        assert mc[0] == mc[1]
        # 3 ranges of whole chunks and 5 Monte Carlo ranges
        assert sizes == [2, 4]


def full_sin_hits(u, d_tilde, half_width):
    """Per pair (u[2i], u[2i+1]), whether |Theta| <= 1 from the plain expressions."""
    phi = (2.0 * u.reshape(-1, 2) - 1.0) * half_width
    theta = d_tilde * (np.sin(phi[:, 0]) - np.sin(phi[:, 1]))
    return np.abs(theta) <= 1.0


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_hits_do_not_depend_on_the_range_size(threads):
    n = 3 * MC_RANGE_PAIRS + 1234
    est = effective_prob_mc(10.0, sample_count=n, seed=21, threads=threads)
    hits = _count_effective(10.0, 21, HALF_WIDTH, 0, n)
    assert est.value == hits / n
    # the in-place steps count the same hits as the plain expressions
    assert hits == np.count_nonzero(full_sin_hits(_unit_stream(21, 0, 2 * n), 10.0, HALF_WIDTH))


BAND_HALF_WIDTHS = [0.3, math.pi / 3.0, math.pi / 2.0 - 1e-3, math.pi / 2.0]


class TestGateBand:
    """Pairs decided from their DOA gap count the hits of the full-sine gate."""

    @pytest.mark.parametrize("half_width", BAND_HALF_WIDTHS)
    @pytest.mark.parametrize("d_tilde", [0.2, 0.7, 2.0, 5.0, 10.0, 57.3, 1e4, 1e6])
    def test_hits_equal_the_full_sine_count(self, d_tilde, half_width):
        n = 2 * MC_RANGE_PAIRS + 4321
        sector = SectorModel(half_width)
        for seed in (1, 77, 2**100 + 5):
            expect = np.count_nonzero(full_sin_hits(_unit_stream(seed, 0, 2 * n), d_tilde, half_width))
            for threads in (1, 4):
                est = effective_prob_mc(d_tilde, sample_count=n, seed=seed, threads=threads, sector=sector)
                assert est.value == expect / n

    @pytest.mark.parametrize("half_width", [0.3, math.pi / 3.0])
    @pytest.mark.parametrize("d_tilde", [5.0, 10.0, 1e6])
    def test_gaps_on_and_one_ulp_beside_each_bound(self, d_tilde, half_width):
        lo, hi = _gate_band(d_tilde, half_width)
        assert 0.0 < lo < hi < 1.0
        below, above = np.nextafter([lo, hi], 0.0), np.nextafter([lo, hi], 1.0)
        gaps = [below[0], lo, above[0], below[1], hi, above[1]]
        # u_k = 0 makes each gap exact; the swapped pair gives the same gap
        u = np.array([[g, 0.0] for g in gaps] + [[0.0, g] for g in gaps]).ravel()
        sure, undecided = _classify_pairs(u, d_tilde, half_width)
        expect_sure = [True, False, False, False, False, False] * 2
        expect_undecided = [False, True, True, True, True, False] * 2
        assert sure.tolist() == expect_sure
        assert undecided.tolist() == expect_undecided

    @pytest.mark.parametrize("half_width", [0.3, math.pi / 3.0, math.pi / 2.0 - 1e-3])
    @pytest.mark.parametrize("d_tilde", [1e9, 1e12, 1e16])
    def test_pairs_at_the_bounds_without_margin_are_decided_right(self, d_tilde, half_width):
        # Gaps around 1/(2 h d) and 1/(2 h d cos h), next to the lower
        # sector edge, above the centre and in the upper half. There the
        # rounding of the computed Theta, about d eps, is far larger than
        # the distance of the exact Theta from the gate.
        rng = np.random.default_rng(int(math.log10(d_tilde)))
        bases = np.concatenate([1e-3 * rng.random(8), 0.5 + 1e-3 * rng.random(8), 1.0 - 0.5 * rng.random(8)])
        pairs = []
        for bound in (1.0 / (2.0 * half_width * d_tilde),
                      1.0 / (2.0 * half_width * d_tilde * math.cos(half_width))):
            gap = bound * (1.0 + np.linspace(-1e-2, 1e-2, 4001))
            for b in bases:
                other = np.clip(b + gap if b < 0.5 else b - gap, 0.0, np.nextafter(1.0, 0.0))
                pairs.append(np.column_stack([other, np.full_like(other, b)]))
        u = np.concatenate(pairs).ravel()
        sure, undecided = _classify_pairs(u, d_tilde, half_width)
        hits = full_sin_hits(u, d_tilde, half_width)
        assert not np.any(sure & ~hits)
        assert not np.any(~sure & ~undecided & hits)

    @pytest.mark.parametrize("d_tilde", [0.2, 10.0, 1e6, 1e15, 1e300])
    def test_sure_miss_switches_off_at_the_half_space(self, d_tilde):
        assert _gate_band(d_tilde, math.pi / 2.0)[1] > 1.0

    def test_tiny_aperture_is_all_sure_hits(self):
        u = _unit_stream(3, 0, 20_000)
        sure, undecided = _classify_pairs(u, 0.2, HALF_WIDTH)
        assert sure.all() and not undecided.any()


class TestSampleDoas:
    def test_reproducible(self):
        assert np.array_equal(sample_doas(42, 1000), sample_doas(42, 1000))

    def test_support(self):
        phi = sample_doas(7, 100_000)
        assert np.all(np.abs(phi) <= HALF_WIDTH)

    def test_mean_near_zero(self):
        phi = sample_doas(11, 1_000_000)
        tol = 3.0 * (HALF_WIDTH / math.sqrt(3.0)) / math.sqrt(1_000_000)
        assert abs(phi.mean()) <= tol

    @pytest.mark.parametrize("half_width", [HALF_WIDTH, math.pi / 2.0, 0.1])
    def test_scaled_from_the_unit_stream_as_written(self, half_width):
        u = _unit_stream(3, 5, 999)
        expect = (2.0 * u - 1.0) * half_width
        assert sample_doas(3, 999, offset=5, sector=SectorModel(half_width)).tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "count, offset, match",
        [(0, 0, "count must be a positive"), (1.9, 0, "count must be a positive"),
         (10.0, 0, "count must be a positive"), (True, 0, "count must be a positive")]
        + [(3, offset, "offset must be a non-negative")
           for offset in (-4, -1, 1.5, 2.0, True, np.float64(4.0))],
    )
    def test_rejects_counts_and_offsets_that_are_not_integers(self, count, offset, match):
        with pytest.raises(ValueError, match=match):
            sample_doas(1, count, offset=offset)

    def test_offset_reconstructs_the_tail(self):
        full = sample_doas(31, 100)
        tail = sample_doas(31, 63, offset=37)
        assert np.array_equal(full[37:], tail)
        assert np.array_equal(sample_doas(31, 63, offset=np.int64(37)), tail)

    def test_spatial_freq_histogram_matches_pdf(self):
        # analytic equal-probability edges: y_q = sin(h (2q - 1))
        n, bins = 200_000, 50
        y = np.sin(sample_doas(2024, n))
        qs = np.arange(1, bins) / bins
        edges = np.sin(HALF_WIDTH * (2.0 * qs - 1.0))
        counts, _ = np.histogram(y, bins=np.concatenate(([-1.0], edges, [1.0])))
        expected = n / bins
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(stat, bins - 1) > 0.01


class TestUnitStream:
    def test_offset_matches_any_block_phase(self):
        full = _unit_stream(5, 0, 100)
        for offset in (1, 2, 3, 4, 5, 37, 96):
            part = _unit_stream(5, offset, 100 - offset)
            assert np.array_equal(full[offset:], part)

    def test_disjoint_ranges_concatenate(self):
        full = _unit_stream(9, 0, 90)
        parts = [_unit_stream(9, a, 30) for a in (0, 30, 60)]
        assert np.array_equal(full, np.concatenate(parts))


# Philox truncates a float key and takes a bool as 0 or 1, so each of the
# last four would reuse an integer seed's stream
@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 1.9, 1.0, True, np.float64(3.0)])
@pytest.mark.parametrize(
    "fn",
    [
        lambda seed: effective_prob_mc(10.0, sample_count=1000, seed=seed),
        lambda seed: sample_doas(seed, 10),
    ],
    ids=["mc", "sample_doas"],
)
def test_seed_outside_philox_key_range_rejected(fn, seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
        fn(seed)


def test_seed_range_ends_accepted():
    assert sample_doas(0, 3).shape == (3,)
    assert sample_doas(2**128 - 1, 3).shape == (3,)
    for seed in (np.int64(7), np.uint64(7), np.int8(7)):
        assert np.array_equal(sample_doas(seed, 3), sample_doas(7, 3))


class TestProbEstimate:
    def test_fields(self):
        est = ProbEstimate(value=0.5, std_error=0.01, sample_count=100, seed=1)
        assert est.value == 0.5 and est.sample_count == 100

    @pytest.mark.parametrize("hits,n", [(0, 1000), (1000, 1000), (1, 7), (37, 100), (500, 1000), (112_010, 1_000_000)])
    def test_wilson_interval_matches_scipy(self, hits, n):
        p = hits / n
        est = ProbEstimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), sample_count=n, seed=1)
        ci = stats.binomtest(hits, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert est.wilson_interval == pytest.approx((ci.low, ci.high), rel=1e-12, abs=1e-15)

    def test_wilson_interval_is_not_degenerate_at_zero_and_one(self):
        sure = effective_prob_mc(0.001, 1000, 1)
        assert sure.value == 1.0 and sure.std_error == 0.0
        lo, hi = sure.wilson_interval
        assert 0.99 < lo < hi == 1.0
        never = ProbEstimate(value=0.0, std_error=0.0, sample_count=1000, seed=1)
        lo, hi = never.wilson_interval
        assert 0.0 == lo < hi < 0.01
