"""Interference paths, pattern metrics, and their cross-oracle identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from lensmimo import (
    GRID_SNAP_TOL,
    LensArrayConfig,
    NullNotFoundError,
    ScenarioConfig,
    effective_interference,
    first_null,
    pairwise_interference_closed,
    pairwise_interference_direct,
    power_to_db,
    run_scenario,
    sidelobe_ratio_db,
    sweep_pattern,
)
from lensmimo.array_model import _profile_matrix
from lensmimo.interference import (
    SIDELOBE_PEAK_X,
    SIDELOBE_RATIO_DB,
    _pair_powers,
    _row_differences,
)

SQRT3_HALF = math.sqrt(3.0) / 2.0

sector_freqs = st.floats(min_value=-SQRT3_HALF, max_value=SQRT3_HALF, allow_nan=False)


def _direct_correlation(config, phi_tilde_l: float, deltas) -> np.ndarray:
    """Signed channel correlation sum_m sinc(m - t_l) sinc(m - t_k) from sinc profiles."""
    sf_k = np.clip(phi_tilde_l - np.asarray(deltas, dtype=float), -1.0, 1.0)
    return _profile_matrix(config, sf_k) @ _profile_matrix(config, phi_tilde_l)


def scan_nulls(config, phi_tilde_l: float, count: int) -> list:
    """The first `count` positive nulls of the direct pattern.

    A sign-change scan of the signed correlation over the admissible
    separations, each bracket refined by brentq; it assumes nothing about
    the shape of the pattern.
    """
    delta_max = min(2.0, 1.0 + phi_tilde_l)
    if delta_max <= 0:
        raise NullNotFoundError("no admissible separation range on this side")
    n_scan = max(2001, 200 * int(math.ceil(config.d_tilde)))
    grid = np.linspace(delta_max / n_scan, delta_max, n_scan)
    corr = _direct_correlation(config, phi_tilde_l, grid)
    nulls = []
    for i in range(n_scan - 1):
        if corr[i] == 0.0:
            nulls.append(float(grid[i]))
        elif corr[i] * corr[i + 1] < 0.0:
            f = lambda d: float(_direct_correlation(config, phi_tilde_l, [d])[0])
            nulls.append(optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-14))
        if len(nulls) == count:
            return nulls
    raise NullNotFoundError(f"found {len(nulls)} nulls within delta <= {delta_max}")


def scan_sidelobe_db(config) -> float:
    """Broadside peak over the direct pattern's maximum between its first two nulls."""
    n1, n2 = scan_nulls(config, 0.0, 2)
    power = lambda d: pairwise_interference_direct(config, 0.0, -float(d))
    res = optimize.minimize_scalar(
        lambda d: -power(d), bounds=(n1, n2), method="bounded", options={"xatol": 1e-12}
    )
    return 10.0 * math.log10(power(0.0) / -res.fun)


def _agree(a: float, b: float, rel: float = 1e-9, tiny: float = 1e-12) -> bool:
    if min(a, b) < 1e-6:
        return abs(a - b) <= tiny
    return abs(a - b) / max(a, b) <= rel


class TestPairwiseDirect:
    def test_grid_self_alignment(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        value = pairwise_interference_direct(cfg, 0.5, 0.5)
        assert value == pytest.approx(100.0**2 / 21.0, rel=1e-12)

    def test_distinct_grid_points_exactly_zero(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        assert pairwise_interference_direct(cfg, 0.3, 0.7) == 0.0

    def test_independent_of_common_phase(self):
        a = LensArrayConfig(d_tilde=10.0, phi0=0.0)
        b = LensArrayConfig(d_tilde=10.0, phi0=2.1)
        va = pairwise_interference_direct(a, 0.13, 0.31)
        vb = pairwise_interference_direct(b, 0.13, 0.31)
        assert va == pytest.approx(vb, rel=1e-12)


class TestBatchedDirect:
    """The oracle over arrays agrees with its own per-pair calls."""

    def _per_pair(self, cfg, sf_l, sf_k):
        sf_l, sf_k = np.broadcast_arrays(np.asarray(sf_l, dtype=float), np.asarray(sf_k, dtype=float))
        return np.array([
            pairwise_interference_direct(cfg, a, b) for a, b in zip(sf_l.ravel().tolist(), sf_k.ravel().tolist())
        ]).reshape(sf_l.shape)

    @pytest.mark.parametrize("d_tilde", [0.7, 5.0, 5.9, 20.0])
    def test_matches_per_pair_calls(self, d_tilde):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0, phi0=0.4)
        rng = np.random.default_rng(17)
        pairs = rng.uniform(-1.0, 1.0, size=(400, 2))
        # near-coincident pairs, and grid points m/d_tilde with |m| <= d_tilde
        pairs[:40, 1] = pairs[:40, 0] * (1.0 - 1e-7)
        pairs[40:60] = np.trunc(pairs[40:60] * d_tilde) / d_tilde
        batch = pairwise_interference_direct(cfg, pairs[:, 0], pairs[:, 1])
        assert batch.shape == (400,)
        for got, want in zip(batch, self._per_pair(cfg, pairs[:, 0], pairs[:, 1])):
            assert _agree(got, want, rel=1e-12), f"batch {got!r} per pair {want!r}"

    @pytest.mark.parametrize(
        "shape_l, shape_k, shape",
        [((5, 1), (1, 7), (5, 7)), ((3,), (), (3,)), ((), (4,), (4,)), ((2, 3, 1), (4,), (2, 3, 4))],
    )
    def test_broadcast_shapes(self, shape_l, shape_k, shape):
        cfg = LensArrayConfig(d_tilde=10.0)
        rng = np.random.default_rng(5)
        sf_l = rng.uniform(-0.9, 0.9, size=shape_l)
        sf_k = rng.uniform(-0.9, 0.9, size=shape_k)
        got = pairwise_interference_direct(cfg, sf_l, sf_k)
        assert got.shape == shape
        want = self._per_pair(cfg, sf_l, sf_k)
        assert all(_agree(g, w, rel=1e-12) for g, w in zip(got.ravel(), want.ravel()))

    def test_distinct_grid_pairs_exactly_zero(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=3.0, phi0=1.1)
        grid = np.arange(-10, 11) / 10.0
        got = pairwise_interference_direct(cfg, grid[:, None], grid[None, :])
        off = ~np.eye(grid.size, dtype=bool)
        assert np.all(got[off] == 0.0)
        assert np.all(got[~off] > 0.0)

    @pytest.mark.parametrize("bad", [math.nan, 1.0000001, -1.5, math.inf])
    @pytest.mark.parametrize("side", ["l", "k"])
    def test_invalid_entry_anywhere_rejected(self, bad, side):
        cfg = LensArrayConfig(d_tilde=10.0)
        sf = np.linspace(-0.5, 0.5, 9)
        sf[6] = bad
        other = np.zeros(9)
        args = (sf, other) if side == "l" else (other, sf)
        with pytest.raises(ValueError, match="spatial frequency"):
            pairwise_interference_direct(cfg, *args)

    def test_float_pair_gives_float(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        assert type(pairwise_interference_direct(cfg, 0.13, 0.31)) is float
        assert type(pairwise_interference_direct(cfg, np.float64(0.13), 0)) is float


class TestClosedFormEquivalence:
    def test_reference_pair(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        d = pairwise_interference_direct(cfg, 0.13, 0.31)
        c = pairwise_interference_closed(cfg, 0.13, 0.31)
        assert _agree(d, c)

    def test_broadside_self_alignment_exercises_fallback(self):
        # At phi_l = phi_k the kernel takes its coincident-pair limit
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        expect = cfg.aperture**2 / cfg.element_count
        assert pairwise_interference_closed(cfg, 0.0, 0.0) == pytest.approx(expect, rel=1e-12)
        assert pairwise_interference_direct(cfg, 0.0, 0.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d_tilde", [5.0, 10.0, 20.0])
    def test_random_pairs_agree(self, d_tilde):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        rng = np.random.default_rng(421)
        pairs = rng.uniform(-SQRT3_HALF, SQRT3_HALF, size=(1000, 2))
        for sf_l, sf_k in pairs:
            d = pairwise_interference_direct(cfg, sf_l, sf_k)
            c = pairwise_interference_closed(cfg, sf_l, sf_k)
            assert _agree(d, c), f"direct {d!r} closed {c!r} at ({sf_l}, {sf_k})"

    @given(sector_freqs, sector_freqs)
    @settings(max_examples=100)
    def test_swap_symmetry(self, sf_l, sf_k):
        cfg = LensArrayConfig(d_tilde=10.0)
        assert pairwise_interference_closed(cfg, sf_l, sf_k) == pytest.approx(
            pairwise_interference_closed(cfg, sf_k, sf_l), rel=1e-12, abs=1e-300
        )

    @given(sector_freqs, sector_freqs)
    @settings(max_examples=100)
    def test_joint_negation_symmetry(self, sf_l, sf_k):
        cfg = LensArrayConfig(d_tilde=10.0)
        assert pairwise_interference_closed(cfg, sf_l, sf_k) == pytest.approx(
            pairwise_interference_closed(cfg, -sf_l, -sf_k), rel=1e-12, abs=1e-300
        )

    @given(sector_freqs, sector_freqs)
    @settings(max_examples=60)
    def test_aperture_scaling_is_quadratic(self, sf_l, sf_k):
        base = LensArrayConfig(d_tilde=10.0, a_z=1.0)
        scaled = LensArrayConfig(d_tilde=10.0, a_z=3.0)
        v0 = pairwise_interference_direct(base, sf_l, sf_k)
        v1 = pairwise_interference_direct(scaled, sf_l, sf_k)
        assert v1 == pytest.approx(9.0 * v0, rel=1e-12, abs=1e-300)

    @given(sector_freqs, sector_freqs)
    @settings(max_examples=60)
    def test_bounded_by_alignment_peak(self, sf_l, sf_k):
        # Cauchy-Schwarz: |h_l^H h_k|^2 <= |h_l|^2 |h_k|^2
        cfg = LensArrayConfig(d_tilde=10.0, a_z=2.0)
        peak_l = pairwise_interference_direct(cfg, sf_l, sf_l)
        peak_k = pairwise_interference_direct(cfg, sf_k, sf_k)
        value = pairwise_interference_direct(cfg, sf_l, sf_k)
        assert 0.0 <= value <= math.sqrt(peak_l * peak_k) * (1.0 + 1e-12)


def _kernel_paths(cfg, pairs):
    """Power of each (sf_l, sf_k) pair from the scalar closed path, the
    batch path and the ensemble path, next to the direct oracle at the
    same spatial frequencies."""
    pairs = np.asarray(pairs, dtype=float)
    # run_scenario takes DOAs and recomputes sin; use its spatial frequencies
    sf = np.sin(np.arcsin(pairs))
    scenario = ScenarioConfig(array=cfg, user_count=2, trial_count=len(sf), seed=0)
    ensemble = run_scenario(scenario, doas=np.arcsin(pairs)).exact_totals[:, 0]
    rows = []
    for (sf_l, sf_k), from_ensemble in zip(sf, ensemble):
        rows.append((
            pairwise_interference_direct(cfg, sf_l, sf_k),
            pairwise_interference_closed(cfg, sf_l, sf_k),
            _pair_powers(cfg, [sf_l], [sf_k])[0, 0],
            float(from_ensemble),
        ))
    return rows


def _assert_kernel_matches_direct(cfg, pairs):
    for direct, *fast in _kernel_paths(cfg, pairs):
        for value in fast:
            assert _agree(direct, value), f"direct {direct!r} fast {fast!r}"


def test_row_differences_match_broadcast_subtraction():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-87.0, 87.0, (4, 9)), rng.uniform(-87.0, 87.0, (4, 6))
    expect = x[:, :, None] - y[:, None, :]
    assert np.array_equal(_row_differences(x, y), expect)
    out = np.full((4, 9, 6), np.nan)
    assert _row_differences(x, y, out) is out
    assert np.array_equal(out, expect)


class TestPairKernel:
    """The O(1) kernel on every path against the direct inner product,
    under the oracle bounds of _agree, at the inputs where it switches
    formula or loses digits."""

    APERTURES = [5.0, 10.0, 20.0, 57.3, 100.0]

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_coincident_pairs_across_the_switch(self, d_tilde):
        # beam-coordinate gaps from 1e-14 to 1e-2, with COINCIDENT_GAP = 1e-5 bracketed
        # and at t = +-(K - 1/2), where the tail the limit form subtracts is largest
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        gaps = np.concatenate([np.logspace(-14, -2, 25), [0.99e-5, 1e-5, 1.01e-5]])
        edge = (cfg.max_index - 0.5) / d_tilde
        rng = np.random.default_rng(17)
        pairs = [(base, base + gap / d_tilde)
                 for base in (rng.uniform(-SQRT3_HALF, SQRT3_HALF), edge, -edge)
                 for gap in gaps]
        _assert_kernel_matches_direct(cfg, pairs + [(b, a) for a, b in pairs])

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_coordinates_at_the_snap_tolerance(self, d_tilde):
        # within GRID_SNAP_TOL (snapped onto the grid) and just outside it
        cfg = LensArrayConfig(d_tilde=d_tilde)
        offsets = np.array([0.0, 0.4, -0.9, 1.1, -2.0, 5.0]) * GRID_SNAP_TOL
        m = np.array([0, 1, -3, 4, 2, -1])
        near_grid = (m + offsets) / d_tilde
        partners = np.concatenate([np.roll(near_grid, 1), [0.31, -0.47, 0.05, 0.6, -0.2, 0.7]])
        pairs = np.stack([np.tile(near_grid, 2), partners], axis=1)
        _assert_kernel_matches_direct(cfg, pairs)

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_pairs_near_pattern_nulls(self, d_tilde):
        # separations n/d_tilde put a grid user's pattern at its nulls
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=3.0)
        pairs = []
        for phi_l in (0.0, 2.0 / d_tilde, 0.3137):
            for n in (1, -2, 3):
                for eps in (0.0, 1e-12, -1e-9, 1e-6):
                    pairs.append((phi_l, phi_l - (n + eps) / d_tilde))
        _assert_kernel_matches_direct(cfg, pairs)

    @pytest.mark.parametrize("d_tilde", [0.95, 20.95, 57.3])
    def test_beyond_span_pairs(self, d_tilde):
        # K = floor(d_tilde) leaves users with |t| in (K, d_tilde] beyond the
        # element span; pairs among them, coincident ones included
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        k = cfg.max_index
        rng = np.random.default_rng(29)
        pairs = list(rng.uniform(-1.0, 1.0, size=(40, 2)))
        for t in (k - 1e-7, k, k + 2e-9, 0.5 * (k + d_tilde), d_tilde, -(k + 0.7 * (d_tilde - k))):
            for gap in (0.0, 1e-12, 1e-7, 1.01e-5, 1e-3, 0.4):
                # the partner steps toward broadside, so it stays admissible
                pairs.append((t / d_tilde, (t - math.copysign(gap, t)) / d_tilde))
        _assert_kernel_matches_direct(cfg, pairs)

    def test_span_edge_with_derived_count(self):
        # pairs at, across and beyond the span edges +-K, at K = 0, 2, 5 and 5,
        # the last with end-fire users snapped to the grid index K + 1
        for d_tilde in (0.7, 2.5, 5.9, 5.9999999995):
            cfg = LensArrayConfig(d_tilde=d_tilde)
            k = cfg.max_index
            beyond = d_tilde - k
            pairs = []
            for side in (1.0, -1.0):
                for t in (k - 1e-4, k, k + 0.4 * beyond, d_tilde - 0.01, d_tilde):
                    for gap in (0.0, 1e-12, 1e-9, 2e-5, 0.05, -1e-12, -1e-9, -2e-5, -0.05):
                        if abs(t + gap) <= d_tilde:
                            pairs.append((side * t / d_tilde, side * (t + gap) / d_tilde))
                # straddling K, coincident with the midpoint on either side of it, and not
                for a, b in ((-2e-9, 5e-9), (-5e-9, 2e-9), (-3e-6, 4e-6), (-2e-5, 3e-5)):
                    pairs.append((side * (k + a) / d_tilde, side * (k + b) / d_tilde))
            _assert_kernel_matches_direct(cfg, pairs)

    def test_grid_user_beyond_span_is_orthogonal(self):
        # K = 5, and sin(phi) = +-1 snaps to the grid index +-6 = +-(K + 1),
        # whose profile is zero on every element
        d_tilde = 5.9999999995
        cfg = LensArrayConfig(d_tilde=d_tilde)
        others = [1.0, -1.0, 1.0 - 1e-12, 0.0, 0.37, -0.999, 5.0 / d_tilde, 5.5 / d_tilde]
        pairs = [(edge, other) for edge in (1.0, -1.0) for other in others]
        for direct, *fast in _kernel_paths(cfg, pairs):
            assert direct == 0.0
            assert fast == [0.0, 0.0, 0.0]

    def test_nan_spatial_frequency_rejected(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        with pytest.raises(ValueError, match="magnitude at most 1"):
            pairwise_interference_closed(cfg, math.nan, 0.1)
        with pytest.raises(ValueError, match="magnitude at most 1"):
            _pair_powers(cfg, [0.1], [math.nan])

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_grid_pairs_exact(self, d_tilde):
        # distinct grid points give exactly 0.0, self-alignment exactly A^2/M
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=3.0)
        peak = cfg.aperture**2 / cfg.element_count
        for _, *fast in _kernel_paths(cfg, [(3 / d_tilde, -2 / d_tilde), (0.0, 1 / d_tilde)]):
            assert fast == [0.0, 0.0, 0.0]
        for _, *fast in _kernel_paths(cfg, [(4 / d_tilde, 4 / d_tilde), (0.0, 0.0)]):
            assert fast == [peak, peak, peak]


class TestEffectiveInterference:
    def test_aligned_pair_is_effective(self):
        cfg = LensArrayConfig(d_tilde=10.0, a_z=10.0)
        power = effective_interference(cfg, 0.2, 0.2)
        assert type(power) is float
        assert power == pytest.approx(cfg.aperture**2 / cfg.element_count, rel=1e-12)

    def test_far_interferer_gated_to_zero(self):
        # theta_norm = 10 * (0 - 0.5) = -5, outside the mainlobe
        cfg = LensArrayConfig(d_tilde=10.0)
        assert effective_interference(cfg, 0.0, 0.5) == 0.0
        assert effective_interference(cfg, 0.0, 0.53) == 0.0
        assert pairwise_interference_closed(cfg, 0.0, 0.53) > 0.0

    def test_boundary_region_keeps_full_power(self):
        # theta_norm = 10 * 0.05 = 0.5, inside the mainlobe
        cfg = LensArrayConfig(d_tilde=10.0)
        assert effective_interference(cfg, 0.05, 0.0) == pytest.approx(
            pairwise_interference_direct(cfg, 0.05, 0.0), rel=1e-9
        )

    @given(sector_freqs, sector_freqs)
    @settings(max_examples=100)
    def test_effective_never_exceeds_full(self, sf_l, sf_k):
        cfg = LensArrayConfig(d_tilde=10.0)
        power = effective_interference(cfg, sf_l, sf_k)
        full = pairwise_interference_closed(cfg, sf_l, sf_k)
        assert power <= full * (1.0 + 1e-12)
        if abs(cfg.d_tilde * (sf_l - sf_k)) <= 1.0:
            assert power == full
        else:
            assert power == 0.0

    def test_rejects_out_of_range(self):
        # Gated-out pairs are validated too, though they need no kernel call
        cfg = LensArrayConfig(d_tilde=10.0)
        for pair in ((1.2, 0.0), (0.0, -1.2), (math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                effective_interference(cfg, *pair)


class TestSweepPattern:
    def _series(self, d_tilde=20.0, lo=-0.5, hi=0.5, n=2001, phi_l=0.0):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        return sweep_pattern(cfg, phi_l, np.linspace(lo, hi, n))

    def test_global_maximum_at_alignment(self):
        series = self._series()
        assert series.deltas[np.argmax(series.powers_linear)] == 0.0

    def test_non_monotonic_with_many_sidelobes(self):
        series = self._series()
        p = series.powers_linear
        interior = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
        maxima_deltas = series.deltas[1:-1][interior]
        assert np.count_nonzero(maxima_deltas < 0) >= 5
        assert np.count_nonzero(maxima_deltas > 0) >= 5

    def test_mirror_symmetry_at_broadside(self):
        series = self._series()
        np.testing.assert_allclose(
            series.powers_linear, series.powers_linear[::-1], rtol=1e-9, atol=1e-300
        )

    def test_out_of_range_points_skipped(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        series = sweep_pattern(cfg, 0.9, np.linspace(-0.5, 0.5, 101))
        assert series.skipped_count > 0
        assert len(series) + series.skipped_count == 101
        assert np.all(np.abs(0.9 - series.deltas) <= 1.0)

    def test_effective_flags_follow_theta(self):
        series = self._series()
        np.testing.assert_array_equal(series.effective, np.abs(series.theta_norms) <= 1.0)

    def test_rejects_empty_and_unsorted_grids(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        with pytest.raises(ValueError):
            sweep_pattern(cfg, 0.0, [])
        with pytest.raises(ValueError):
            sweep_pattern(cfg, 0.0, [0.2, 0.1])


class TestPatternMetrics:
    def test_first_null_d20(self):
        cfg = LensArrayConfig(d_tilde=20.0)
        null = first_null(cfg, 0.0)
        assert abs(null - 0.05) <= 0.005

    def test_first_null_d10(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        null = first_null(cfg, 0.0)
        assert abs(null - 0.10) <= 0.010

    def test_first_null_off_center_grid_point(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        null = first_null(cfg, 0.3)
        assert 0.0 < null <= 0.2

    def test_first_null_requires_grid_point(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        with pytest.raises(ValueError):
            first_null(cfg, 0.123)

    def test_mainlobe_width_spans_theta_two(self):
        # Width between the first nulls is 2/d_tilde: theta_norm spans [-1, 1]
        cfg = LensArrayConfig(d_tilde=20.0)
        width = 2.0 * first_null(cfg, 0.0)
        assert width * cfg.d_tilde == pytest.approx(2.0, rel=1e-6)

    def test_sidelobe_ratio_d20(self):
        ratio = sidelobe_ratio_db(LensArrayConfig(d_tilde=20.0))
        assert 12.5 <= ratio <= 14.0
        assert ratio == pytest.approx(13.26, abs=0.15)

    def test_sidelobe_ratio_d10(self):
        ratio = sidelobe_ratio_db(LensArrayConfig(d_tilde=10.0))
        assert 12.5 <= ratio <= 14.0

    def test_sidelobe_ratio_ignores_aperture(self):
        r1 = sidelobe_ratio_db(LensArrayConfig(d_tilde=20.0, a_z=1.0))
        r2 = sidelobe_ratio_db(LensArrayConfig(d_tilde=20.0, a_z=7.0))
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_sidelobe_requires_enough_elements(self):
        with pytest.raises(ValueError):
            sidelobe_ratio_db(LensArrayConfig(d_tilde=4.0))

    def test_small_array_null_out_of_reach(self):
        # d_tilde < 1 gives M = 1 and a correlation sinc(d_tilde * delta)
        # whose first zero lies beyond the admissible separation range
        with pytest.raises(NullNotFoundError):
            first_null(LensArrayConfig(d_tilde=0.4), 0.0)


class TestPatternMetricsAgainstScan:
    @pytest.mark.parametrize(
        "d_tilde,n",
        [(5.0, 0), (5.0, 2), (5.0, -3), (10.0, 0), (10.0, 3), (10.0, 10), (10.0, -8),
         (20.0, 0), (20.0, -7), (20.0, 20), (57.3, 0), (57.3, 57), (57.3, -56), (100.0, -41)],
    )
    def test_first_null_is_the_scanned_null(self, d_tilde, n):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        null = first_null(cfg, n / d_tilde)
        assert null == 1.0 / d_tilde
        # The direct pattern is exactly 0 wherever the interferer snaps to
        # the grid point n - 1, so brentq may stop anywhere in that window.
        assert abs(scan_nulls(cfg, n / d_tilde, 1)[0] - null) <= GRID_SNAP_TOL / d_tilde

    @pytest.mark.parametrize("d_tilde,n", [(10.0, -10), (57.3, -57), (0.4, 0)])
    def test_no_null_where_the_scan_finds_none(self, d_tilde, n):
        cfg = LensArrayConfig(d_tilde=d_tilde)
        with pytest.raises(NullNotFoundError):
            scan_nulls(cfg, n / d_tilde, 1)
        with pytest.raises(NullNotFoundError):
            first_null(cfg, n / d_tilde)

    @pytest.mark.parametrize("d_tilde", [5.0, 10.0, 20.0, 57.3, 100.0])
    def test_sidelobe_ratio_is_the_scanned_ratio(self, d_tilde):
        cfg = LensArrayConfig(d_tilde=d_tilde)
        assert sidelobe_ratio_db(cfg) == pytest.approx(scan_sidelobe_db(cfg), abs=1e-9)

    def test_sidelobe_peak_solves_tan_equation(self):
        x1 = SIDELOBE_PEAK_X
        assert math.tan(math.pi * x1) == pytest.approx(math.pi * x1, rel=1e-13)
        # tan(pi x) - pi x increases on (1/2, 3/2), so this root is its only one
        root = optimize.brentq(lambda x: math.tan(math.pi * x) - math.pi * x, 0.51, 1.49,
                               xtol=1e-16)
        assert root == pytest.approx(x1, rel=1e-15)
        assert SIDELOBE_RATIO_DB == pytest.approx(13.261458884048285, rel=1e-15)

    def test_grid_index_beyond_element_span_has_no_null(self):
        # K = 5, and sin(phi) = 1 snaps to the grid index 6: the profile is
        # zero, so the pattern has no null
        with pytest.raises(NullNotFoundError, match="grid index 6"):
            first_null(LensArrayConfig(d_tilde=5.9999999995), 1.0)

    def test_null_with_interferer_at_end_fire(self):
        # 1 + (-0.9) rounds below 0.1, yet the interferer at -1 is admissible
        cfg = LensArrayConfig(d_tilde=10.0)
        assert first_null(cfg, -0.9) == 0.1
        assert pairwise_interference_direct(cfg, -0.9, -1.0) == 0.0

    @pytest.mark.parametrize("phi", [math.nan, math.inf, 1.2, -1.0000001])
    def test_first_null_rejects_invalid_frequency(self, phi):
        with pytest.raises(ValueError):
            first_null(LensArrayConfig(d_tilde=10.0), phi)


class TestPowerToDb:
    def test_floor_keeps_finite(self):
        assert power_to_db(0.0) == -3000.0
        assert math.isfinite(power_to_db(0.0))

    def test_linear_values(self):
        assert power_to_db(100.0) == pytest.approx(20.0, rel=1e-12)

    def test_array_input(self):
        out = power_to_db(np.array([1.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 10.0], atol=1e-12)
