"""Geometry, sinc evaluation, and array response tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo import LensArrayConfig, channel_vectors, sinc, snap_to_grid


class TestDeriveElementCount:
    def test_integer_dimension(self):
        assert LensArrayConfig(10.0).element_count == 21

    def test_subunit_dimension_collapses_to_one(self):
        assert LensArrayConfig(0.5).element_count == 1

    def test_fractional_dimension_keeps_odd_count(self):
        # 1 + floor(2 * 10.6) would be 22 (even); the odd-guarantee rule floors first
        assert LensArrayConfig(10.6).element_count == 21

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LensArrayConfig(0.0)

    @given(st.floats(min_value=0.1, max_value=500.0, allow_nan=False))
    @settings(max_examples=100)
    def test_count_is_odd_and_placement_valid(self, d_tilde):
        m = LensArrayConfig(d_tilde).element_count
        assert m % 2 == 1
        assert (m - 1) / 2 <= d_tilde


class TestConfigValidation:
    def test_defaults_derive_count(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        assert cfg.element_count == 21
        assert cfg.max_index == 10

    def test_aperture_product(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        assert cfg.aperture == 100.0

    def test_element_count_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LensArrayConfig(10.0, element_count=21)

    @given(st.floats(min_value=1e-3, max_value=500.0, allow_nan=False))
    @settings(max_examples=100)
    def test_count_is_always_derived(self, d_tilde):
        assert LensArrayConfig(d_tilde=d_tilde).element_count == 1 + 2 * math.floor(d_tilde)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            LensArrayConfig(d_tilde=-1.0)
        with pytest.raises(ValueError):
            LensArrayConfig(d_tilde=10.0, a_z=0.0)

    @pytest.mark.parametrize("field", ["d_tilde", "a_z"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_dimensions_rejected(self, field, value):
        kwargs = {"d_tilde": 10.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LensArrayConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, value):
        with pytest.raises(ValueError, match="phi0 must be finite"):
            LensArrayConfig(d_tilde=10.0, phi0=value)


class TestSinc:
    def test_unit_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_half_integer(self):
        assert sinc(0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_exact_zero_at_nonzero_integers(self):
        for n in (1, -1, 2, 7, -40):
            assert sinc(float(n)) == 0.0

    def test_near_zero_series_is_smooth(self):
        assert sinc(1e-9) == pytest.approx(1.0, abs=1e-15)
        assert sinc(-1e-12) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200)
    def test_even_function(self, x):
        assert sinc(x) == sinc(-x)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200)
    def test_bounded_by_one(self, x):
        assert abs(sinc(x)) <= 1.0


class TestSnapToGrid:
    def test_snaps_within_tolerance(self):
        assert snap_to_grid(5.0 + 1e-12) == 5.0
        assert snap_to_grid(-3.0 - 1e-10) == -3.0

    def test_leaves_distant_values(self):
        assert snap_to_grid(5.1) == 5.1

    def test_array_input(self):
        out = snap_to_grid(np.array([1.0 + 1e-12, 1.5]))
        assert out[0] == 1.0 and out[1] == 1.5

    def test_non_finite_values_pass_through_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = snap_to_grid(np.array([np.inf, 1.0 + 1e-12, np.nan, -np.inf]))
        assert out[0] == np.inf and out[1] == 1.0
        assert np.isnan(out[2]) and out[3] == -np.inf


class TestArrayResponse:
    def test_one_hot_at_broadside(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        h = channel_vectors(cfg, 0.0)
        assert h[cfg.max_index] == 10.0 + 0.0j
        others = np.delete(h, cfg.max_index)
        assert np.all(others == 0.0)

    def test_one_hot_at_grid_point(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        h = channel_vectors(cfg, 0.5)
        assert h[cfg.max_index + 5] == pytest.approx(10.0, rel=1e-15)
        assert np.count_nonzero(h) == 1

    def test_off_grid_center_entry(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        h = channel_vectors(cfg, 0.05)
        # sqrt(A) * sinc(-0.5) = 10 * 2/pi
        assert h[cfg.max_index].real == pytest.approx(6.366197723675814, rel=1e-14)

    def test_out_of_range_rejected(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        with pytest.raises(ValueError):
            channel_vectors(cfg, 1.5)

    @pytest.mark.parametrize("d_tilde", [5.0, 10.3, 20.0])
    def test_batch_matches_per_terminal_calls(self, d_tilde):
        # grid points (one-hot rows), off-grid points and the end-fire edges
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0, phi0=0.4)
        sf = np.array([
            [0.0, 1.0 / d_tilde, -3.0 / d_tilde, 0.05],
            [0.31, -0.47, 2.0 / d_tilde, 0.6],
            [-0.2, 0.7, -1.0, 1.0],
        ])
        batch = channel_vectors(cfg, sf)
        assert batch.shape == (3, 4, cfg.element_count)
        single = np.array([channel_vectors(cfg, float(x)) for x in sf.ravel()])
        assert batch.tobytes() == single.reshape(batch.shape).tobytes()

    def test_real_entries_without_common_phase(self):
        cfg = LensArrayConfig(d_tilde=5.0)
        h = channel_vectors(cfg, 0.3)
        assert np.all(h.imag == 0.0)

    def test_common_phase_rotates_uniformly(self):
        base = LensArrayConfig(d_tilde=5.0)
        rot = LensArrayConfig(d_tilde=5.0, phi0=0.7)
        h0 = channel_vectors(base, 0.3)
        h1 = channel_vectors(rot, 0.3)
        np.testing.assert_allclose(h1, h0 * complex(math.cos(0.7), -math.sin(0.7)), rtol=1e-15)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50)
    def test_negation_reverses_entries(self, phi_tilde):
        cfg = LensArrayConfig(d_tilde=7.0, a_z=3.0)
        fwd = channel_vectors(cfg, phi_tilde)
        rev = channel_vectors(cfg, -phi_tilde)
        assert np.array_equal(rev, fwd[::-1])

    @given(
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=-10, max_value=10),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_grid_orthogonality_exact(self, p, q, phi0):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=2.0, phi0=phi0)
        h_a = channel_vectors(cfg, p / 10.0)
        h_b = channel_vectors(cfg, q / 10.0)
        inner = np.vdot(h_a, h_b)
        if p == q:
            assert abs(inner) == pytest.approx(cfg.aperture, rel=1e-12)
        else:
            assert abs(inner) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=6.2, allow_nan=False),
        st.floats(min_value=-0.8, max_value=0.8, allow_nan=False),
        st.floats(min_value=-0.8, max_value=0.8, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_inner_product_magnitude_ignores_common_phase(self, phi0, sf_a, sf_b):
        plain = LensArrayConfig(d_tilde=8.0)
        shifted = LensArrayConfig(d_tilde=8.0, phi0=phi0)
        ref = abs(np.vdot(channel_vectors(plain, sf_a), channel_vectors(plain, sf_b)))
        got = abs(np.vdot(channel_vectors(shifted, sf_a), channel_vectors(shifted, sf_b)))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestSincInterpolationIdentity:
    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=80)
    def test_truncated_sum_approximates_sinc_of_difference(self, a, b):
        # The shifted-sinc family is orthonormal over the integers; a 41-term
        # truncation reproduces sinc(a - b) to within 0.05 for central a, b.
        cfg = LensArrayConfig(d_tilde=20.0)
        total = sum(sinc(m - a) * sinc(m - b) for m in range(-cfg.max_index, cfg.max_index + 1))
        assert abs(total - sinc(a - b)) <= 0.05
