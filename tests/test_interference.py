"""Interference paths, pattern metrics, and their cross-oracle identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from lensmimo import (
    GRID_SNAP_TOL,
    LensArrayConfig,
    NullNotFoundError,
    ScenarioConfig,
    first_null,
    interference,
    pairwise_interference_closed,
    pairwise_interference_direct,
    power_to_db,
    sidelobe_ratio_db,
    sweep_pattern,
)
from lensmimo.array_model import SPATIAL_FREQ_ERROR, _beam_coords, _profile_matrix
from lensmimo.interference import (
    COINCIDENT_GAP,
    SIDELOBE_PEAK_X,
    SIDELOBE_RATIO_DB,
    _beam_terms,
    _coincident_rows,
    _difference_operands,
    _gram_operands,
    _pair_gram,
    _pair_powers,
    _terms_gram,
    _user_float,
    _user_terms,
)
from scipy.special import digamma, zeta

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
        expect = cfg.peak_power
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


def _kernel_paths(run_forced, cfg, pairs):
    """Power of each (sf_l, sf_k) pair from the scalar closed path, the
    batch path and the ensemble path, next to the direct oracle at the
    same spatial frequencies."""
    pairs = np.asarray(pairs, dtype=float)
    # the ensemble draws DOAs and recomputes sin; use its spatial frequencies
    sf = np.sin(np.arcsin(pairs))
    scenario = ScenarioConfig(array=cfg, user_count=2, trial_count=len(sf), seed=0)
    ensemble = run_forced(scenario, np.arcsin(pairs)).exact_totals[:, 0]
    rows = []
    for (sf_l, sf_k), from_ensemble in zip(sf, ensemble):
        rows.append((
            pairwise_interference_direct(cfg, sf_l, sf_k),
            pairwise_interference_closed(cfg, sf_l, sf_k),
            _pair_powers(cfg, [sf_l], [sf_k])[0, 0],
            float(from_ensemble),
        ))
    return rows


def _assert_kernel_matches_direct(run_forced, cfg, pairs):
    for direct, *fast in _kernel_paths(run_forced, cfg, pairs):
        for value in fast:
            assert _agree(direct, value), f"direct {direct!r} fast {fast!r}"


def test_differences_match_broadcast_subtraction():
    # The kernel's divisors t_l - t_k and the sine gate's s_l - s_k are matrix
    # products of _difference_operands, one rounding of a two-term sum. They
    # keep the bits of the broadcast subtraction, between two sets of users
    # and with a 3-D leading shape, out to users snapped onto t = +-(K + 1);
    # only the sign of a zero may differ, and array_equal does not see it.
    cfg = LensArrayConfig(d_tilde=6.0 - 5e-10, a_z=2.0)
    rng = np.random.default_rng(3)
    sf = rng.uniform(-1.0, 1.0, (2, 3, 9))
    sf[..., 0], sf[..., 1] = 1.0, -1.0
    sf[..., 3] = sf[..., 2]
    sf_k = rng.uniform(-1.0, 1.0, (2, 3, 6))
    sf_k[..., 0] = sf[..., 2]
    t, t_k = _user_terms(cfg, sf)[0], _user_terms(cfg, sf_k)[0]
    assert np.all(np.abs(t[..., :2]) == cfg.max_index + 1)
    sines = np.sin(rng.uniform(-math.pi / 3.0, math.pi / 3.0, (4, 7, 11)))
    for x, y in ((t, t_k), (t, t), (t[0, 0], t_k[1, 2]), (sines, sines), (sines[..., :5], sines[..., 3:])):
        expect = x[..., :, None] - y[..., None, :]
        got = np.matmul(_difference_operands(x)[0], _difference_operands(y)[1])
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)
    # the sine gate's Theta, d_tilde times the difference, as the block forms it
    theta = np.matmul(*_difference_operands(sines[0]))
    theta *= cfg.d_tilde
    assert np.array_equal(theta, cfg.d_tilde * (sines[0][:, :, None] - sines[0][:, None, :]))
    # the drop form's scratch holds the same differences, 0 where G took the
    # coincident limit and +inf at the self-pairs
    drops = t.reshape(6, 9)
    expect = drops[:, :, None] - drops[:, None, :]
    scratch = np.full(expect.shape, np.nan)
    _terms_gram(cfg, _gram_operands(_user_terms(cfg, sf.reshape(6, 9))), _coincident_rows(drops),
                scratch=scratch)
    limit = np.abs(expect) < COINCIDENT_GAP
    limit[:, range(9), range(9)] = False
    assert limit.any()
    expect = np.where(limit, 0.0, expect)
    expect[:, range(9), range(9)] = np.inf
    assert np.array_equal(scratch, expect)


def test_operands_have_the_bits_of_stacked_columns():
    # The operands are written in place; they keep the bytes of stacking the
    # terms and their negations, so the sign of each zero too. Grid users
    # have v = +-0, and users at broadside t = +-0.
    cfg = LensArrayConfig(d_tilde=5.0)
    rng = np.random.default_rng(8)
    sf = rng.uniform(-1.0, 1.0, (3, 4, 11))
    sf[..., :8] = [0.0, -0.0, 0.2, -0.2, 0.4, -0.6, 1.0, -1.0]
    terms = _user_terms(cfg, sf)
    t, v, u = terms
    assert np.any(np.signbit(v[..., :8])) and not np.all(np.signbit(v[..., :8]))
    assert np.all(v[..., :8] == 0.0) and np.signbit(t[..., 1]).all()
    def stacked(x):
        ones = np.ones_like(x)
        return np.stack((x, ones), -1), np.stack((ones, -x), -2)

    cases = [(_difference_operands(x), stacked(x)) for x in (t, t[0, 0], np.sin(sf))]
    cases.append((_gram_operands(terms), (np.stack((u, -v), -1), np.stack((v, u), -2)) + stacked(t)))
    for got, expect in cases:
        assert [a.shape for a in got] == [a.shape for a in expect]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect]


def beam_terms_mod_reference(t, max_index):
    """_beam_terms with the parity of n = rint(t) taken as n % 2.0."""
    n = np.rint(t)
    e = np.pi * (t - n)
    sign = 1.0 - 2.0 * (n % 2.0)
    v = sign * np.sin(e) / np.pi
    k1 = max_index + 1.0
    with np.errstate(invalid="ignore"):
        u = v * (digamma(k1 - t) - digamma(k1 + t)) - sign * np.cos(e)
    out = np.abs(t) > max_index
    s = np.abs(t[out])
    u[out] = np.sign(t[out]) * v[out] * (digamma(s - max_index) - digamma(s + k1))
    return v, u


class TestBeamTermsParity:
    """The floor form of the parity gives the bits of n % 2.0."""

    HUGE = [2.0**52 - 1.0, 2.0**52, 2.0**53]

    @pytest.mark.parametrize("d_tilde", [2.5, 10.3, 100.0])
    def test_bits_equal_the_remainder_form(self, d_tilde):
        k = LensArrayConfig(d_tilde=d_tilde).max_index
        grid = np.arange(-k - 1.0, k + 2.0)
        special = [0.0, -0.0, -1.0, -2.0, -3.0, -4.0, 3.0, 4.0] + self.HUGE + [-x for x in self.HUGE]
        rng = np.random.default_rng(5)
        t = np.concatenate([
            grid, special,
            grid + 0.25, grid - 0.4999, grid + 1e-9,
            # beyond the span, K < |t| <= d_tilde, where d_tilde is fractional
            np.linspace(k, d_tilde, 7), -np.linspace(k, d_tilde, 7),
            rng.uniform(-d_tilde, d_tilde, 500),
        ]).reshape(2, -1)
        v, u = _beam_terms(t, k)
        v_ref, u_ref = beam_terms_mod_reference(t, k)
        assert v.tobytes() == v_ref.tobytes()
        assert u.tobytes() == u_ref.tobytes()

    def test_signed_zero_and_huge_parities(self):
        k = 10
        t = np.array([0.0, -0.0, -1.0, -2.0, 2.0**52 - 1.0, -(2.0**52 - 1.0), 2.0**52, 2.0**53])
        v, _ = _beam_terms(t, k)
        sign = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
        # v = sign sin(0) / pi is a zero of the parity's sign
        assert np.array_equal(np.signbit(v), sign < 0.0)


def _user_inputs(d_tilde):
    """Spatial frequencies at +-0, at grid points and GRID_SNAP_TOL either
    side of them, at end-fire, beyond the span, and between grid points."""
    k = LensArrayConfig(d_tilde=d_tilde).max_index
    m = np.arange(-k - 1, k + 2, dtype=float)
    t = np.concatenate([m, m + GRID_SNAP_TOL, m - GRID_SNAP_TOL, m + 0.999 * GRID_SNAP_TOL,
                        m - 1.001 * GRID_SNAP_TOL, m + 0.5, m + 0.3, np.linspace(k, d_tilde, 9)])
    rng = np.random.default_rng(41)
    sf = np.concatenate([t / d_tilde, -t / d_tilde, [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324],
                         rng.uniform(-1.0, 1.0, 300)])
    return [x for x in sf.tolist() if abs(x) <= 1.0]


class TestUserFloat:
    """_user_float gives, on Python floats, the bits of the array path:
    _beam_coords and _beam_terms of a one-element array."""

    @pytest.mark.parametrize("d_tilde", [0.95, 2.5, 5.0, 5.9999999995, 10.3, 20.95, 100.0])
    def test_bits_equal_the_array_path(self, d_tilde):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        for sf in _user_inputs(d_tilde):
            t, v, u = _user_float(cfg, sf)
            t_ref = _beam_coords(cfg, np.array([sf]))
            v_ref, u_ref = _beam_terms(t_ref, cfg.max_index)
            assert type(t) is float and type(v) is float and type(u) is float
            # t = -0.0 gives v = -0.0 here and 0.0 there, a sign the squared power drops
            if t == 0.0:
                assert v == v_ref[0] == 0.0
                v = v_ref[0]
            for got, want in ((t, t_ref[0]), (v, v_ref[0]), (u, u_ref[0])):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (sf, got, want)

    def test_snapped_zero_keeps_its_sign(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        for sf in (-0.0, -1e-11, -GRID_SNAP_TOL / 20.0):
            assert math.copysign(1.0, _user_float(cfg, sf)[0]) == -1.0
        assert math.copysign(1.0, _user_float(cfg, 1e-11)[0]) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf, 1.0000000000000002, -1.5])
    def test_scalar_pair_rejects_each_side(self, bad):
        cfg = LensArrayConfig(d_tilde=10.0)
        for pair in ((bad, 0.1), (0.1, bad), (bad, bad)):
            with pytest.raises(ValueError) as info:
                pairwise_interference_closed(cfg, *pair)
            assert str(info.value) == SPATIAL_FREQ_ERROR
        with pytest.raises(ValueError) as info:
            _pair_powers(cfg, [0.1], [bad])
        assert str(info.value) == SPATIAL_FREQ_ERROR

    def test_peak_power_is_the_grid_self_alignment_on_every_path(self, run_forced):
        # A^2/M is spelled a * a / m once; a ** 2 may round otherwise
        cfg = LensArrayConfig(d_tilde=12.457, a_z=1.0)
        a = cfg.aperture
        assert cfg.peak_power == a * a / cfg.element_count
        for _, *fast in _kernel_paths(run_forced, cfg, [(0.0, 0.0), (5 / 12.457, 5 / 12.457)]):
            assert fast == [cfg.peak_power] * 3


class TestPairKernel:
    """The O(1) kernel on every path against the direct inner product,
    under the oracle bounds of _agree, at the inputs where it switches
    formula or loses digits."""

    APERTURES = [5.0, 10.0, 20.0, 57.3, 100.0]

    @pytest.mark.parametrize("d_tilde", [0.5, 1.5, 2.5, 5.0, 5.9999999995, 10.0, 10.3, 20.0, 57.3, 100.0])
    def test_coincident_pairs_across_the_switch(self, run_forced, d_tilde):
        # beam-coordinate gaps from 1e-14 to 1e-2, with COINCIDENT_GAP = 1e-5 bracketed,
        # at a random user, at t = +-(K - 1/2), where the tail the limit form subtracts
        # is largest, at a grid user and at end-fire, where a fractional d_tilde puts
        # the midpoint beyond the span; each partner steps both ways where it stays
        # a spatial frequency. At d_tilde = 0.5, K = 0 and every coincident pair lies
        # beyond the span; at 5.9999999995 the end-fire pairs snap together onto
        # +-(K + 1)
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        coincident = [0.0, 1e-12 * d_tilde, 1e-9, 3e-6]
        gaps = np.concatenate([coincident, np.logspace(-14, -2, 25), [0.99e-5, 1e-5, 1.01e-5]])
        edge = (cfg.max_index - 0.5) / d_tilde
        rng = np.random.default_rng(17)
        bases = (rng.uniform(-SQRT3_HALF, SQRT3_HALF), edge, -edge, 1.0 / d_tilde, 1.0, -1.0)
        pairs = [(base, partner) for base in bases for gap in gaps
                 for partner in (base + gap / d_tilde, base - gap / d_tilde) if abs(partner) <= 1.0]
        pairs += [(b, a) for a, b in pairs]
        _assert_kernel_matches_direct(run_forced, cfg, pairs)
        # A coincident pair on the scalar path is the array kernel's G, squared and scaled
        peak = cfg.peak_power
        for a, b in pairs:
            if abs(a - b) * d_tilde < 0.9 * COINCIDENT_GAP:
                g = _pair_gram(cfg, [a], [b])[0, 0]
                assert pairwise_interference_closed(cfg, a, b) == peak * g * g

    @pytest.mark.parametrize("d_tilde", [2.5, 1e-3])
    def test_each_coincident_limit_is_taken_once(self, monkeypatch, d_tilde):
        # A three-user cluster, inside the span at d_tilde = 2.5, and an end-fire
        # pair beyond it, among users far apart: four unordered coincident pairs.
        # Each pair's limit takes two zeta evaluations, whatever its region, and
        # a scalar pair passes its users' terms to the limit without expanding
        # them again.
        cfg = LensArrayConfig(d_tilde=d_tilde)
        gap = 1e-7 / d_tilde
        sf = np.array([0.1, 0.1 + gap, 0.1 + 2.0 * gap, 0.999, 0.999 + gap, -0.5, 0.3, -0.9])
        terms = _user_terms(cfg, sf[None])
        ops = _gram_operands(terms)
        seen, expanded = [], []
        monkeypatch.setattr(interference, "zeta", lambda s, q: seen.append(np.size(q)) or zeta(s, q))
        _terms_gram(cfg, ops, _coincident_rows(terms[0]))
        assert sum(seen) == 8
        monkeypatch.setattr(interference, "_beam_terms", lambda *a: expanded.append(a) or _beam_terms(*a))
        for a, b in ((sf[0], sf[2]), (sf[4], sf[3])):
            seen.clear()
            pairwise_interference_closed(cfg, a, b)
            assert sum(seen) == 2
        assert not expanded

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_coordinates_at_the_snap_tolerance(self, run_forced, d_tilde):
        # within GRID_SNAP_TOL (snapped onto the grid) and just outside it
        cfg = LensArrayConfig(d_tilde=d_tilde)
        offsets = np.array([0.0, 0.4, -0.9, 1.1, -2.0, 5.0]) * GRID_SNAP_TOL
        m = np.array([0, 1, -3, 4, 2, -1])
        near_grid = (m + offsets) / d_tilde
        partners = np.concatenate([np.roll(near_grid, 1), [0.31, -0.47, 0.05, 0.6, -0.2, 0.7]])
        pairs = np.stack([np.tile(near_grid, 2), partners], axis=1)
        _assert_kernel_matches_direct(run_forced, cfg, pairs)

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_pairs_near_pattern_nulls(self, run_forced, d_tilde):
        # separations n/d_tilde put a grid user's pattern at its nulls
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=3.0)
        pairs = []
        for phi_l in (0.0, 2.0 / d_tilde, 0.3137):
            for n in (1, -2, 3):
                for eps in (0.0, 1e-12, -1e-9, 1e-6):
                    pairs.append((phi_l, phi_l - (n + eps) / d_tilde))
        _assert_kernel_matches_direct(run_forced, cfg, pairs)

    @pytest.mark.parametrize("d_tilde", [0.95, 20.95, 57.3])
    def test_beyond_span_pairs(self, run_forced, d_tilde):
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
        _assert_kernel_matches_direct(run_forced, cfg, pairs)

    def test_span_edge_with_derived_count(self, run_forced):
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
            _assert_kernel_matches_direct(run_forced, cfg, pairs)

    def test_grid_user_beyond_span_is_orthogonal(self, run_forced):
        # K = 5, and sin(phi) = +-1 snaps to the grid index +-6 = +-(K + 1),
        # whose profile is zero on every element
        d_tilde = 5.9999999995
        cfg = LensArrayConfig(d_tilde=d_tilde)
        others = [1.0, -1.0, 1.0 - 1e-12, 0.0, 0.37, -0.999, 5.0 / d_tilde, 5.5 / d_tilde]
        pairs = [(edge, other) for edge in (1.0, -1.0) for other in others]
        for direct, *fast in _kernel_paths(run_forced, cfg, pairs):
            assert direct == 0.0
            assert fast == [0.0, 0.0, 0.0]

    def test_nan_spatial_frequency_rejected(self):
        cfg = LensArrayConfig(d_tilde=10.0)
        with pytest.raises(ValueError, match="magnitude at most 1"):
            pairwise_interference_closed(cfg, math.nan, 0.1)
        with pytest.raises(ValueError, match="magnitude at most 1"):
            _pair_powers(cfg, [0.1], [math.nan])

    @pytest.mark.parametrize("d_tilde", APERTURES)
    def test_grid_pairs_exact(self, run_forced, d_tilde):
        # distinct grid points give exactly 0.0, self-alignment exactly A^2/M
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=3.0)
        peak = cfg.peak_power
        for _, *fast in _kernel_paths(run_forced, cfg, [(3 / d_tilde, -2 / d_tilde), (0.0, 1 / d_tilde)]):
            assert fast == [0.0, 0.0, 0.0]
        for _, *fast in _kernel_paths(run_forced, cfg, [(4 / d_tilde, 4 / d_tilde), (0.0, 0.0)]):
            assert fast == [peak, peak, peak]

    @pytest.mark.parametrize("d_tilde", [2.5, 5.0, 10.3])
    def test_out_receives_the_bits_of_a_fresh_result(self, d_tilde):
        # a drop's workspace passed to the drop form as out is returned,
        # holding the G a call without it gives, and as scratch holds the
        # divisors, with grid users, coincident pairs below COINCIDENT_GAP
        # and exactly coincident pairs
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        k = cfg.max_index
        rng = np.random.default_rng(23)
        sf = rng.uniform(-1.0, 1.0, (4, 9))
        sf[:, 0] = rng.integers(1 - k, k, 4) / d_tilde
        sf[:, 1] = sf[:, 0] + 0.3 * COINCIDENT_GAP / d_tilde
        sf[1:, 3] = sf[1:, 2]
        terms = _user_terms(cfg, sf)
        ops = _gram_operands(terms)
        coincident = _coincident_rows(terms[0])
        fresh = _terms_gram(cfg, ops, coincident)
        out = np.full(fresh.shape, np.nan)
        scratch = np.full(fresh.shape, np.nan)
        assert _terms_gram(cfg, ops, coincident, scratch=scratch, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        # the divisors are the coordinate differences, 0 where G took the
        # coincident limit and +inf at the self-pairs
        t = terms[0]
        diff = t[:, :, None] - t[:, None, :]
        limit = np.abs(diff) < COINCIDENT_GAP
        assert limit.any()
        diff = np.where(limit, 0.0, diff)
        diff[:, range(9), range(9)] = np.inf
        assert np.array_equal(scratch, diff)


# Spacings of planted chains of users, in units of COINCIDENT_GAP: ties,
# chains whose ends lie within the gap, chains whose neighbours do but whose
# ends do not, and users just beyond it
CHAIN_STEPS = (0.0, 0.2, 0.3, 0.45, 0.6, 0.95, 1.05, 3.0)


@st.composite
def planted_coordinates(draw):
    """(d_tilde, sf): (rows, L) spatial frequencies whose beam coordinates
    hold, row by row, a chain of near-coincident users, exact ties, users
    snapped onto one grid point, a row in which every user coincides, or
    no planted user."""
    d_tilde = draw(st.sampled_from((0.01, 2.5, 5.0, 10.3)))
    rows, users = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    lim = 0.99 * d_tilde
    t = np.array(draw(st.lists(st.floats(-lim, lim), min_size=rows * users, max_size=rows * users)))
    t = t.reshape(rows, users)
    for row in t:
        kind = draw(st.sampled_from(("none", "chain", "whole", "ties", "grid")))
        size = users if kind == "whole" else draw(st.integers(min(2, users), users))
        at = draw(st.permutations(range(users)))[:size]
        if kind == "whole":
            # every pair of the row lies within the gap
            step = draw(st.floats(0.0, 0.99 / max(1, users - 1))) * COINCIDENT_GAP
        else:
            step = draw(st.sampled_from(CHAIN_STEPS)) * COINCIDENT_GAP
        if kind in ("chain", "whole"):
            start = min(row[at[0]], lim - step * size)
            row[at] = start + step * np.arange(size)
        elif kind == "ties":
            row[at] = row[at[0]]
        elif kind == "grid":
            jitter = draw(st.lists(st.floats(-0.9, 0.9), min_size=size, max_size=size))
            row[at] = round(row[at[0]]) + GRID_SNAP_TOL * np.array(jitter)
    return d_tilde, np.clip(t / d_tilde, -1.0, 1.0)


# one drop whose four-user chain has its ends within the gap, three sorted
# places apart, among users far from it
_CHAIN_OF_FOUR = np.array([[1.3 + 0.9 * COINCIDENT_GAP, -3.0, 1.3 + 0.3 * COINCIDENT_GAP, 2.0,
                            1.3, 0.0, 1.3 + 0.6 * COINCIDENT_GAP]]) / 5.0
# two drops in which every user coincides, and one with none
_WHOLE_ROWS = np.array([0.004 + 0.1 * COINCIDENT_GAP * np.arange(10),
                        np.full(10, -0.002),
                        np.linspace(-0.009, 0.009, 10)]) / 0.01


@given(planted_coordinates())
@example((5.0, _CHAIN_OF_FOUR))
@example((0.01, _WHOLE_ROWS))
@settings(max_examples=150, deadline=None)
def test_sorted_search_finds_the_pairs_of_every_pair_search(case):
    # The drop form, with its rows flagged by _coincident_rows, finds the
    # coincident pairs by comparing users s sorted places apart; the pair
    # form of the same users against themselves searches every divisor.
    # With the pair form's self-pairs set to 0 both give the same G, and
    # the drop form's scratch holds +inf at the self-pairs and 0 at every
    # coincident pair.
    d_tilde, sf = case
    cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
    terms = _user_terms(cfg, sf)
    t = terms[0]
    rows, users = t.shape
    scratch = np.full((rows, users, users), np.nan)
    g = _terms_gram(cfg, _gram_operands(terms), _coincident_rows(t), scratch=scratch)
    pair = _pair_gram(cfg, sf, sf)
    off = ~np.eye(users, dtype=bool)
    pair[:, ~off] = 0.0
    assert g[:, off].tobytes() == pair[:, off].tobytes()
    assert np.array_equal(g, pair)
    diff = t[:, :, None] - t[:, None, :]
    expect = np.where(np.abs(diff) < COINCIDENT_GAP, 0.0, diff)
    expect[:, ~off] = np.inf
    assert np.array_equal(scratch, expect)


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
        assert series.deltas.size + series.skipped_count == 101
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
