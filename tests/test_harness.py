"""Ensemble harness tests: determinism, additivity, bounds, capture quality."""

import math

import numpy as np
import pytest

from lensmimo import (
    LensArrayConfig,
    ScenarioConfig,
    approximation_quality,
    effective_prob_mc,
    pairwise_interference_direct,
    run_scenario,
    sample_doas,
)
from lensmimo import harness
from lensmimo.harness import BLOCK_DOUBLES, _trial_chunk

TRUE_P10 = 0.1122673842  # see test_stochastic for the independent oracle


def _cfg(d_tilde=10.0, users=10, trials=2000, seed=1, a_z=1.0):
    return ScenarioConfig(
        array=LensArrayConfig(d_tilde=d_tilde, a_z=a_z),
        user_count=users,
        trial_count=trials,
        seed=seed,
    )


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            _cfg(users=0)
        with pytest.raises(ValueError):
            _cfg(trials=0)
        with pytest.raises(ValueError):
            _cfg(seed=-1)

    def test_rejects_bad_doas_shape(self):
        cfg = _cfg(users=3, trials=4)
        with pytest.raises(ValueError):
            run_scenario(cfg, doas=np.zeros((4, 2)))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_rejects_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            _cfg(seed=seed)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_scenario(_cfg(users=3, trials=4), threads=threads)


class TestSingleUser:
    def test_everything_zero(self):
        res = run_scenario(_cfg(users=1, trials=50))
        assert np.all(res.exact_totals == 0.0)
        assert np.all(res.effective_totals == 0.0)
        assert np.all(res.effective_counts == 0)
        assert res.mean_effective_count == 0.0
        assert np.all(res.cdf_grid == 0.0)
        assert np.all(res.cdf_values == 1.0)

    def test_degenerate_fraction_is_one(self):
        rep = approximation_quality(_cfg(users=1, trials=50))
        assert rep.captured_fraction == 1.0


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = _cfg(trials=500)
        r1, r2 = run_scenario(cfg), run_scenario(cfg)
        assert np.array_equal(r1.exact_totals, r2.exact_totals)
        assert np.array_equal(r1.effective_totals, r2.effective_totals)
        assert np.array_equal(r1.effective_counts, r2.effective_counts)
        assert np.array_equal(r1.cdf_grid, r2.cdf_grid)

    def test_thread_count_invariant(self):
        cfg = _cfg(trials=1000, users=100)
        # the pool only runs when the trials span several chunks
        assert _trial_chunk(100) < 1000
        serial = run_scenario(cfg, threads=1)
        for threads in (2, 3, 7):
            par = run_scenario(cfg, threads=threads)
            assert np.array_equal(serial.exact_totals, par.exact_totals)
            assert np.array_equal(serial.effective_totals, par.effective_totals)
            assert np.array_equal(serial.effective_counts, par.effective_counts)

    def test_chunk_size_invariant(self, monkeypatch):
        # trial t is a pure function of its stream range, so the chunk size
        # changes no output bit
        cfg = _cfg(d_tilde=5.0, users=100, trials=50)
        assert _trial_chunk(100) < 50
        runs = [run_scenario(cfg)]
        for chunk in (1, 7):
            monkeypatch.setattr(harness, "_trial_chunk", lambda user_count, c=chunk: c)
            runs.append(run_scenario(cfg))
        ref = runs[0]
        for res in runs[1:]:
            for field in ("exact_totals", "effective_totals", "effective_counts",
                          "cdf_grid", "cdf_values"):
                assert np.array_equal(getattr(ref, field), getattr(res, field)), field
            assert res.effective_counts.dtype == ref.effective_counts.dtype
            assert res.exact_summary == ref.exact_summary
            assert res.effective_summary == ref.effective_summary
            assert res.mean_effective_count == ref.mean_effective_count
            assert res.mean_effective_count_se == ref.mean_effective_count_se

    def test_different_seeds_differ(self):
        r1 = run_scenario(_cfg(seed=1, trials=50))
        r2 = run_scenario(_cfg(seed=2, trials=50))
        assert not np.array_equal(r1.exact_totals, r2.exact_totals)

    def test_trials_use_stream_ranges(self):
        # trial t consumes DOA draws [t L, (t+1) L): the ensemble of a longer
        # run starts with the ensemble of a shorter one
        short = run_scenario(_cfg(trials=100))
        long = run_scenario(_cfg(trials=300))
        assert np.array_equal(long.exact_totals[:100], short.exact_totals)


class TestChunking:
    def test_many_users_bound_every_pair_array(self):
        # each float64 (chunk, L, L) intermediate stays within BLOCK_DOUBLES
        assert BLOCK_DOUBLES == 400_000
        for users in (100, 200, 632):
            assert _trial_chunk(users) * users * users <= BLOCK_DOUBLES
        assert _trial_chunk(200) == 10
        # a single drop too large for the budget still runs, one trial a chunk
        assert _trial_chunk(1000) == 1
        assert _trial_chunk(3000) == 1

    def test_small_drops_share_one_chunk(self):
        # the budget counts only the L x L arrays, so a wide array with few
        # users keeps a long ensemble in one chunk
        assert _trial_chunk(10) >= 1500


class TestAdditivity:
    def test_per_user_totals_match_pairwise_sums(self):
        self._audit(_cfg(users=6, trials=300, d_tilde=5.0, a_z=2.0, seed=3))

    def test_beyond_span_totals_match_pairwise_sums(self):
        # d_tilde = 2.5 derives K = 2, so users with |sin(phi)| > 0.8 lie
        # beyond the element span
        cfg = _cfg(users=6, trials=300, d_tilde=2.5, a_z=2.0, seed=3)
        self._audit(cfg, beyond_span=True)

    @staticmethod
    def _audit(cfg, beyond_span=False):
        # audit 1% of trials against the direct oracle;
        # with beyond_span, only trials that hold a user beyond the span
        res = run_scenario(cfg)
        phi = sample_doas(cfg.seed, cfg.trial_count * cfg.user_count).reshape(
            cfg.trial_count, cfg.user_count
        )
        t_beam = cfg.array.d_tilde * np.sin(phi)
        beyond = (np.abs(t_beam) > cfg.array.max_index).any(axis=1)
        if beyond_span:
            pool = np.flatnonzero(beyond)
        else:
            assert not beyond.any()
            pool = cfg.trial_count
        rng = np.random.default_rng(0)
        audit_trials = rng.choice(pool, size=3, replace=False)
        for t in audit_trials:
            freqs = np.sin(phi[t])
            for l in range(cfg.user_count):
                got = res.exact_totals[t, l]
                direct = sum(pairwise_interference_direct(cfg.array, freqs[l], freqs[k])
                             for k in range(cfg.user_count) if k != l)
                assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestBounds:
    def test_effective_below_exact_and_counts_in_range(self):
        cfg = _cfg(users=8, trials=800, d_tilde=10.0)
        res = run_scenario(cfg)
        assert np.all(res.effective_totals <= res.exact_totals + 1e-12)
        assert np.all(res.effective_counts >= 0)
        assert np.all(res.effective_counts <= cfg.user_count - 1)

    def test_summaries_are_consistent(self):
        res = run_scenario(_cfg(users=5, trials=500))
        s = res.exact_summary
        assert s["q10"] <= s["median"] <= s["q90"] <= s["q99"]
        assert s["mean"] == pytest.approx(res.exact_totals.mean(), rel=1e-12)

    def test_cdf_grid_properties(self):
        res = run_scenario(_cfg(users=5, trials=500))
        assert len(res.cdf_grid) >= 100
        assert np.all(np.diff(res.cdf_values) >= 0.0)
        assert np.all(res.cdf_grid > 0.0)
        # top grid point is the interpolated 99.9% quantile; the empirical
        # CDF there can sit up to one order statistic below the level
        assert res.cdf_values[-1] >= 0.999 - 1.0 / res.exact_totals.size


class TestEffectiveCount:
    def test_matches_pair_probability(self):
        cfg = _cfg(users=10, trials=4000, d_tilde=10.0, seed=21)
        res = run_scenario(cfg, threads=4)
        expect = (cfg.user_count - 1) * TRUE_P10
        assert abs(res.mean_effective_count - expect) <= 3.0 * res.mean_effective_count_se

    def test_matches_mc_estimator_within_combined_error(self):
        cfg = _cfg(users=10, trials=4000, d_tilde=10.0, seed=22)
        res = run_scenario(cfg, threads=4)
        est = effective_prob_mc(10.0, sample_count=500_000, seed=1001)
        combined = math.hypot(res.mean_effective_count_se, (cfg.user_count - 1) * est.std_error)
        assert abs(res.mean_effective_count - (cfg.user_count - 1) * est.value) <= 3.0 * combined


class TestForcedGeometries:
    def test_identical_doas_fully_captured(self):
        cfg = _cfg(users=2, trials=5)
        doas = np.full((5, 2), 0.25)
        rep = approximation_quality(cfg, scenario_result=run_scenario(cfg, doas=doas))
        assert rep.captured_fraction == 1.0
        assert rep.mean_exact > 0.0

    def test_orthogonal_grid_drop_reports_fraction_one(self):
        cfg = _cfg(users=3, trials=4, d_tilde=10.0)
        grid_freqs = np.array([0.0, 0.3, 0.7])
        doas = np.tile(np.arcsin(grid_freqs), (4, 1))
        res = run_scenario(cfg, doas=doas)
        assert np.all(res.exact_totals == 0.0)
        rep = approximation_quality(cfg, scenario_result=res)
        assert rep.captured_fraction == 1.0


class TestCaptureQuality:
    def test_fraction_in_expected_band(self):
        cfg = _cfg(users=10, trials=4000, d_tilde=20.0, seed=5)
        rep = approximation_quality(cfg, scenario_result=run_scenario(cfg, threads=4))
        assert 0.85 <= rep.captured_fraction <= 0.98
        assert rep.mean_effective <= rep.mean_exact

    def test_fraction_decreases_toward_sinc_mainlobe_share(self):
        """The gate keeps the pattern mainlobe, whose share of the sinc^2
        correlation energy is about 0.903 in the wide-array limit. At finite
        d_tilde the separation density weights the mainlobe extra, so the
        captured fraction approaches that limit from above as d_tilde
        grows."""
        fracs = {}
        for d_tilde in (5.0, 10.0, 20.0):
            cfg = _cfg(users=10, trials=4000, d_tilde=d_tilde, seed=5)
            res = run_scenario(cfg, threads=4)
            fracs[d_tilde] = approximation_quality(cfg, scenario_result=res).captured_fraction
        assert fracs[5.0] > fracs[10.0] > fracs[20.0]
        assert fracs[20.0] > 0.903
