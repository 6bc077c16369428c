"""Ensemble harness tests: determinism, additivity, bounds, capture quality."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import special

from lensmimo import (
    LensArrayConfig,
    ScenarioConfig,
    approximation_quality,
    effective_prob_mc,
    pairwise_interference_direct,
    run_scenario,
    sample_doas,
    snap_to_grid,
)
from lensmimo import harness, interference
from lensmimo.array_model import GRID_SNAP_TOL, _beam_coords
from lensmimo.harness import CHUNK_BYTES, USER_BYTES, _layout, _square_sums, _workspace
from lensmimo.interference import (COINCIDENT_GAP, _coincident_rows, _gram_operands, _pair_gram, _terms_gram,
                                   _user_terms)
from lensmimo.selfcheck import DETERMINISM_USERS
from lensmimo.stochastic import SectorModel

from test_acceptance import _ensembles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
        # a float count would construct and then fail inside run_scenario
        for count in (0, 2.5, 3.0, True):
            with pytest.raises(ValueError, match="user_count must be a positive integer"):
                _cfg(users=count)
            with pytest.raises(ValueError, match="trial_count must be a positive integer"):
                _cfg(trials=count)
        with pytest.raises(ValueError):
            _cfg(seed=-1)

    @pytest.mark.parametrize("array, users, trials", [
        pytest.param(LensArrayConfig(0.5, a_z=1e154), 7, 5, id="a_z"),
        pytest.param(LensArrayConfig(0.5, a_z=1.85e153), 7, 6, id="trials"),
        pytest.param(LensArrayConfig(0.5, a_z=1.85e153), np.int64(2**62), 1, id="numpy-users"),
        pytest.param(LensArrayConfig(10.0), 10**400, 10**400, id="huge-counts"),
    ])
    def test_rejects_ensembles_whose_sum_bound_overflows(self, array, users, trials):
        # T L (L - 1) A^2/M bounds the totals' sum; past the largest double the
        # mean was inf, after a warning. The check itself warns of nothing.
        with pytest.raises(ValueError, match=r"\(user_count - 1\) \* A\^2/M must be a finite double"):
            ScenarioConfig(array, users, trials, 7)

    def test_largest_ensemble_sums_accepted(self):
        # 210 (A^2/M) is within 0.1% of the largest double
        res = run_scenario(ScenarioConfig(LensArrayConfig(0.5, a_z=1.85e153), 7, 5, 7))
        assert math.isfinite(res.exact_summary["mean"]) and res.exact_summary["mean"] > 1e306
        assert np.isfinite(res.cdf_grid).all()
        # a peak power that underflows to 0 bounds nothing
        ScenarioConfig(LensArrayConfig(10.0, a_z=1e-200), 10**400, 10**400, 7)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, 1.0, True])
    def test_rejects_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            _cfg(seed=seed)

    @pytest.mark.parametrize("threads", [0, -3, 1.5, 2.0, True])
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
        assert _layout(1000, 100, 1)[0] < 1000
        serial = run_scenario(cfg, threads=1)
        for threads in (2, 3, 7):
            par = run_scenario(cfg, threads=threads)
            assert np.array_equal(serial.exact_totals, par.exact_totals)
            assert np.array_equal(serial.effective_totals, par.effective_totals)
            assert np.array_equal(serial.effective_counts, par.effective_counts)

    def test_chunk_size_invariant(self, monkeypatch, run_forced):
        # trial t is a pure function of its stream range, whether the stream
        # is seeded or forced, so neither the chunk size, nor the chunks a
        # range holds, nor the thread count changes an output bit. The
        # reference runs one chunk a range; (7, 3) gives ranges of 21 trials
        # whose last holds a chunk of 7 and a ragged one of 1, and (3, 5)
        # ends on a range of 5 trials, a chunk of 3 and one of 2.
        assert _layout(50, 100, 1)[0] < 50
        layouts = [(1, 1), (7, 1), (49, 1), (1, 8), (7, 3), (3, 5), (49, 2)]
        rng = np.random.default_rng(8)
        for users in (100, 1, 2):
            cfg = _cfg(d_tilde=5.0, users=users, trials=50)
            forced = sample_doas(9, 50 * users).reshape(50, users)
            # grid users and coincident pairs in the forced drops
            forced[::3, 0] = np.arcsin(rng.integers(-4, 5, 17) / 5.0)
            forced[1::4, -1] = forced[1::4, 0]
            for doas in (None, forced):
                def run(threads=1):
                    return run_scenario(cfg, threads) if doas is None else run_forced(cfg, doas, threads)

                with monkeypatch.context() as m:
                    m.setattr(harness, "_layout", lambda *args, c=_layout(50, users, 1)[0]: (c, c))
                    ref = run()
                runs = []
                for chunk, per_range in layouts:
                    with monkeypatch.context() as m:
                        m.setattr(harness, "_layout", lambda *args, c=chunk, r=per_range: (c, c * r))
                        runs += [run(threads) for threads in (1, 2, 3)]
                assert_element_space_totals(cfg, ref, doas)
                for res in runs:
                    for field, dtype in (("exact_totals", np.float64), ("effective_totals", np.float64),
                                         ("effective_counts", np.intp)):
                        out = getattr(res, field)
                        assert out.shape == (50, users) and out.dtype == dtype, field
                        assert out.flags.c_contiguous, field
                        assert np.array_equal(getattr(ref, field), out), field
                    for field in ("cdf_grid", "cdf_values"):
                        assert np.array_equal(getattr(ref, field), getattr(res, field)), field
                    assert res.exact_summary == ref.exact_summary
                    assert res.effective_summary == ref.effective_summary
                    assert res.mean_effective_count == ref.mean_effective_count
                    assert res.mean_effective_count_se == ref.mean_effective_count_se
            # a caller's scratch holds the divisors, and +inf at the self-pairs
            scratch = np.full((50, users, users), np.nan)
            terms = _user_terms(cfg.array, np.sin(forced))
            gram = _terms_gram(cfg.array, _gram_operands(terms), _coincident_rows(terms[0]), scratch=scratch)
            assert np.all(np.diagonal(scratch, axis1=1, axis2=2) == np.inf)
            assert np.all(np.diagonal(gram, axis1=1, axis2=2) == 0.0)
            assert not np.isnan(scratch).any()

    def test_config_reproduces_the_result(self):
        # the config is the ensemble's only input
        assert list(inspect.signature(run_scenario).parameters) == ["config", "threads"]
        res = run_scenario(_cfg(d_tilde=7.3, users=9, trials=300, seed=11), threads=2)
        again = run_scenario(res.config)
        for field in ("exact_totals", "effective_totals", "effective_counts", "cdf_grid", "cdf_values"):
            assert getattr(again, field).tobytes() == getattr(res, field).tobytes(), field
        assert float_bits(again.exact_summary) == float_bits(res.exact_summary)
        assert float_bits(again.effective_summary) == float_bits(res.effective_summary)

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
    # (trials, users, threads) -> (chunk, span) of _layout
    SMALL_DROPS = [
        # the per-user vectors count too, so a wide array with few users
        # still takes hundreds of drops a chunk, and a range of one chunk
        ((1500, 10, 1), (441, 441)),
        ((4 * 441, 10, 1), (441, 441)),
    ]
    MANY_USERS = [
        # one drop a chunk from L = 212, whose two drops overflow the budget,
        # and at most T drops a chunk
        ((2, 212, 3), (1, 1)),
        ((2, 211, 3), (2, 2)),
        ((1, 30, 1), (1, 1)),
        ((9, 200, 1), (2, 2)),
        ((5, 3000, 2), (1, 1)),
    ]
    RANGES = [
        # the bench's many-users shape: 5 ranges of 20 chunks of 2 drops, and
        # more, smaller ranges for more threads
        ((200, 200, 1), (2, 40)),
        ((200, 200, 2), (2, 24)),
        ((200, 200, 3), (2, 16)),
    ]
    USERS = (1, 2, 10, 50, 100, 200, DETERMINISM_USERS - 1, DETERMINISM_USERS, 292, 293, 301, 302, 1000, 3000)
    TRIALS = (1, 2, 7, 100, 431, 10**6, 10**9)
    THREADS = (1, 2, 3, 16)

    def test_many_users_bound_every_pair_array(self):
        for args, expected in self.MANY_USERS:
            assert _layout(*args) == expected, args
        # a chunk's whole working set stays within CHUNK_BYTES, and its L x L
        # part is the workspace itself: two float arrays and one bool array,
        # beside the one row of L ones a thread keeps for the counts
        assert CHUNK_BYTES == 1_600_000
        *pairs, ones = _workspace(3, 200)
        assert sum(w.nbytes for w in pairs) == 3 * 17 * 200 * 200
        assert ones.tobytes() == np.ones(200).tobytes()
        for users in self.USERS:
            size = users * (17 * users + USER_BYTES)
            # a single drop too large for the budget still runs, one trial a chunk
            assert (2 * size > CHUNK_BYTES) == (users >= DETERMINISM_USERS)
            assert (size > CHUNK_BYTES) == (users > 301)
            for trials in self.TRIALS:
                for threads in self.THREADS:
                    chunk = _layout(trials, users, threads)[0]
                    assert 1 <= chunk <= trials
                    assert chunk * size <= CHUNK_BYTES or chunk == 1
                    assert chunk == trials or (chunk + 1) * size > CHUNK_BYTES

    def test_small_drops_share_one_chunk(self):
        for args, expected in self.SMALL_DROPS:
            assert _layout(*args) == expected, args

    def test_range_rule(self):
        for args, expected in self.RANGES:
            assert _layout(*args) == expected, args
        for users in self.USERS:
            for trials in self.TRIALS:
                for threads in self.THREADS:
                    chunk, span = _layout(trials, users, threads)
                    # a range's per-user vectors fit CHUNK_BYTES, and a run of
                    # enough chunks gives every thread at least 4 ranges
                    assert span >= chunk and span % chunk == 0
                    assert span * users * USER_BYTES <= CHUNK_BYTES
                    chunks, ranges = -(-trials // chunk), -(-trials // span)
                    if chunks >= 4 * threads:
                        assert ranges >= 4 * threads

    def test_block_sees_each_chunk_of_doas_second(self, monkeypatch):
        # A timing wrapper reads a chunk's size off args[1], the (rows, L)
        # sines of its DOAs, as bench/tracing.py counts harness.chunks and
        # harness.chunk_bytes_max.
        chunk = _layout(200, 200, 1)[0]
        cfg = _cfg(d_tilde=5.0, users=200, trials=2 * chunk + 1, seed=4)
        seen = []
        block = harness._trial_block

        def wrapped(*args, **kwargs):
            seen.append(np.array(args[1]))
            return block(*args, **kwargs)

        monkeypatch.setattr(harness, "_trial_block", wrapped)
        res = run_scenario(cfg, threads=2)
        assert sorted(st.shape for st in seen) == [(1, 200), (chunk, 200), (chunk, 200)]
        sines = np.sin(sample_doas(cfg.seed, cfg.trial_count * 200)).reshape(-1, 200)
        starts = [a for st in seen for a in (0, chunk, 2 * chunk) if np.array_equal(sines[a:a + len(st)], st)]
        assert sorted(starts) == [0, chunk, 2 * chunk]
        monkeypatch.undo()
        assert np.array_equal(res.exact_totals, run_scenario(cfg).exact_totals)

    def test_each_range_draws_its_doas_once(self, monkeypatch):
        # the bench's many-users shape runs 100 chunks of 2 drops, and
        # draws, expands and searches its users once per range of chunks
        cfg = _cfg(d_tilde=5.0, users=200, trials=200, seed=4242)
        assert _layout(200, 200, 1) == (2, 40)
        calls = []
        sample = harness.sample_doas

        def counted(*args, **kwargs):
            calls.append(kwargs["offset"])
            return sample(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_doas", counted)
        res = run_scenario(cfg, threads=1)
        assert 1 < len(calls) <= 5
        monkeypatch.undo()
        with monkeypatch.context() as m:
            m.setattr(harness, "_layout", lambda *args: (2, 2))
            ref = run_scenario(cfg)
        for field in ("exact_totals", "effective_totals", "effective_counts"):
            assert np.array_equal(getattr(res, field), getattr(ref, field)), field

    @pytest.mark.parametrize("users, trials, threads",
                             [(200, 200, 1), (200, 45, 2), (10, 2000, 3), (206, 3, 2)])
    def test_beam_terms_see_each_user_once(self, monkeypatch, users, trials, threads):
        cfg = _cfg(d_tilde=5.0, users=users, trials=trials, seed=6)
        seen = []
        terms = interference._beam_terms

        def recorded(t, max_index):
            seen.append(np.array(t).ravel())
            return terms(t, max_index)

        monkeypatch.setattr(interference, "_beam_terms", recorded)
        run_scenario(cfg, threads=threads)
        doas = sample_doas(cfg.seed, trials * users)
        assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(_beam_coords(cfg.array, np.sin(doas))))


class TestWorkspace:
    @pytest.mark.parametrize("users, trials", [(200, 9), (10, 1700), (30, 1)])
    def test_each_thread_reuses_one_workspace(self, monkeypatch, users, trials):
        # every chunk a thread takes writes the same three arrays, of the
        # layout's chunk rows and 17 bytes a pair, and reads the same row of
        # L ones, and a call holds at most one per thread
        cfg = _cfg(d_tilde=5.0, users=users, trials=trials, seed=4)
        ref = run_scenario(cfg)
        block = harness._trial_block
        for threads in (1, 2, 3):
            chunk = _layout(trials, users, threads)[0]
            seen = []

            def wrapped(*args):
                seen.append((threading.get_ident(), args[5]))
                return block(*args)

            with monkeypatch.context() as m:
                m.setattr(harness, "_trial_block", wrapped)
                res = run_scenario(cfg, threads)
            assert len(seen) == -(-trials // chunk)
            by_thread, workspaces = {}, []
            for ident, work in seen:
                assert [w.shape for w in work] == [(chunk, users, users)] * 3 + [(users,)]
                assert sum(w.nbytes for w in work[:3]) == 17 * chunk * users * users
                first = by_thread.setdefault(ident, work)
                assert all(np.shares_memory(a, b) for a, b in zip(first, work))
                if not any(np.shares_memory(work[0], w[0]) for w in workspaces):
                    workspaces.append(work)
            assert len(workspaces) == len(by_thread) <= threads
            for field in ("exact_totals", "effective_totals", "effective_counts"):
                assert np.array_equal(getattr(res, field), getattr(ref, field)), field


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


class TestRowSums:
    """The totals' one summation, the row sums of squares _square_sums, adds
    each row in an order fixed by L alone, and a lower term never raises a
    sum."""

    @pytest.mark.parametrize("users", [1, 2, 7, 8, 9, 10, 200, 301])
    def test_a_drop_alone_matches_its_rows_in_a_chunk_at_any_offset(self, users):
        rows = 3
        g = np.random.default_rng(users).standard_normal(size=(rows, users, users))
        alone = [_square_sums(g[r:r + 1]) for r in range(rows)]
        # a float buffer shifted by 0 to 7 doubles moves the chunk's alignment
        # through every residue of a 64-byte vector
        for shift in range(8):
            buffer = np.empty(g.size + shift)
            chunk = buffer[shift:].reshape(g.shape)
            chunk[...] = g
            out = np.full((rows, users), np.nan)
            assert _square_sums(chunk, out) is out
            for r in range(rows):
                assert np.array_equal(out[r:r + 1], alone[r]), (shift, r)

    # Sums of squares of exact inputs, signed Philox uniforms scaled by powers
    # of two with no transcendental call, printed as the hex of their bytes
    PROBE = """
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from lensmimo.harness import _square_sums
rng = np.random.Generator(np.random.Philox(26))
sums = [_square_sums(np.ldexp(rng.random((3, users, users)) - 0.5, rng.integers(-40, 40, (3, users, users))))
        for users in (1, 2, 7, 8, 9, 10, 200, 301)]
print(__cpu_features__["X86_V4"], np.concatenate(sums, axis=None).tobytes().hex())
"""

    @pytest.mark.skipif(
        not np._core._multiarray_umath.__cpu_features__["AVX512F"],
        reason="AVX-512 dispatch can be switched off only where the CPU has it")
    @pytest.mark.parametrize("setting, avx512", [
        ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, "False"),
        ({"OPENBLAS_CORETYPE": "Prescott"}, None),
    ])
    def test_bits_do_not_depend_on_simd_dispatch_or_the_blas_kernel(self, capsys, setting, avx512):
        exec(self.PROBE, {})
        here = capsys.readouterr().out.split()
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC, **setting})
        assert proc.returncode == 0, proc.stderr
        dispatch, sums = proc.stdout.split()
        assert dispatch == (avx512 or here[0])
        assert sums == here[1]

    @pytest.mark.parametrize("d_tilde, users, trials", [
        (5.0, 200, 6), (100.0, 10, 900), (10.3, 12, 700), (0.5, 60, 20),
    ])
    def test_effective_never_above_exact(self, d_tilde, users, trials):
        # at d_tilde 0.5 every pair of the sector lies in one mainlobe
        cfg = _cfg(d_tilde=d_tilde, users=users, trials=trials, seed=23)
        for threads in (1, 2, 3):
            res = run_scenario(cfg, threads)
            kept = res.effective_counts == users - 1
            assert np.all(res.effective_totals <= res.exact_totals)
            assert np.array_equal(res.effective_totals[kept], res.exact_totals[kept])
            assert kept.all() == (d_tilde == 0.5)


def mean_pair_power(d_tilde, half_width=math.pi / 3.0, panels=64, nodes=64):
    """E[I] = (A^2/M) ||C||_F^2 for a_z = 1: the mean power of one pair of
    independent DOAs uniform on the sector, with C = E[p(phi) p(phi)^T] and
    p the M-element sinc profile, by Gauss-Legendre on panels x nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    phi = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x
    weight = (half * w).ravel() / (2.0 * half_width)
    cfg = LensArrayConfig(d_tilde)
    m = np.arange(-cfg.max_index, cfg.max_index + 1)
    p = np.sinc(m - d_tilde * np.sin(phi.ravel())[:, None])
    c = (p * weight[:, None]).T @ p
    return cfg.aperture**2 / cfg.element_count * float(np.sum(c * c))


class TestEnsembleMean:
    """The ensemble against a reference built from np.sinc, not the kernel."""

    def test_reference_converged(self):
        for d_tilde in (5.0, 100.0):
            assert mean_pair_power(d_tilde, panels=32, nodes=32) == pytest.approx(
                mean_pair_power(d_tilde), rel=1e-13)

    @pytest.mark.parametrize("d_tilde, users, trials, seed",
                             [(5.0, 10, 2000, 1), (20.0, 10, 2000, 2), (10.3, 12, 1000, 3),
                              (100.0, 10, 1500, 4)])
    def test_mean_exact_total_within_three_se(self, d_tilde, users, trials, seed):
        # each user's total sums L - 1 independent pair powers
        res = run_scenario(_cfg(d_tilde=d_tilde, users=users, trials=trials, seed=seed))
        per_trial = res.exact_totals.mean(axis=1)
        se = per_trial.std(ddof=1) / math.sqrt(trials)
        assert abs(per_trial.mean() - (users - 1) * mean_pair_power(d_tilde)) <= 3.0 * se


def gated_pair_power(d_tilde, panels=24, nodes=16, inner=32, block=256):
    """E[I 1{|Theta| <= 1}] for a_z = 1: the mean gated power of one pair of
    independent DOAs uniform on the sector, with pairwise_interference_direct
    as the integrand, not the kernel. The outer Gauss-Legendre rule over
    phi_l takes panels x nodes on each piece of the sector between the
    points where sin phi_l -+ 1/d_tilde meets its edge; the inner rule takes
    inner nodes over phi_k on the mainlobe interval |sin phi_l - sin phi_k|
    <= 1/d_tilde clipped to the sector. block outer nodes run at a time."""
    h = SectorModel().half_width
    edge, w = math.sin(h), 1.0 / d_tilde
    cuts = [math.asin(x) for x in (w - edge, edge - w) if -edge < x < edge]
    breaks = np.unique([-h, h, *cuts])
    x, wx = np.polynomial.legendre.leggauss(nodes)
    edges = np.append(np.concatenate([np.linspace(a, b, panels + 1)[:-1]
                                      for a, b in zip(breaks[:-1], breaks[1:])]), h)
    half = 0.5 * np.diff(edges)[:, None]
    phi_l = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x).ravel()
    weight_l = (half * wx).ravel()
    y, wy = np.polynomial.legendre.leggauss(inner)
    cfg = LensArrayConfig(d_tilde)
    total = 0.0
    for a in range(0, phi_l.size, block):
        s_l = np.sin(phi_l[a:a + block])[:, None]
        lo = np.arcsin(np.maximum(-edge, s_l - w))
        hi = np.arcsin(np.minimum(edge, s_l + w))
        phi_k = 0.5 * (lo + hi) + 0.5 * (hi - lo) * y
        power = pairwise_interference_direct(cfg, s_l, np.sin(phi_k))
        total += weight_l[a:a + block] @ (0.5 * (hi - lo)[:, 0] * (power @ wy))
    return total / (2.0 * h) ** 2


def captured_share(d_tilde):
    """kappa(d_tilde) = E[I 1{|Theta| <= 1}] / E[I], the captured fraction
    of an infinite ensemble, from the two quadrature references."""
    return gated_pair_power(d_tilde) / mean_pair_power(d_tilde)


class TestGatedMean:
    """The captured fraction against the gated-mean reference, built from
    pairwise_interference_direct, not the kernel."""

    def test_reference_converged(self):
        for d_tilde in (5.0, 20.0):
            assert gated_pair_power(d_tilde, panels=16, nodes=16, inner=24) == pytest.approx(
                gated_pair_power(d_tilde), rel=1e-12)

    def test_share_falls_toward_the_mainlobe_share(self):
        # the sector's bounded separation density cuts off more sidelobe
        # energy at small apertures; the two values are those an earlier,
        # separate quadrature of the same integrals gave
        mainlobe_share = 2.0 * special.sici(2.0 * math.pi)[0] / math.pi
        assert captured_share(5.0) == pytest.approx(0.93609, abs=5e-6)
        assert captured_share(20.0) == pytest.approx(0.91781, abs=5e-6)
        assert captured_share(5.0) > captured_share(20.0) > mainlobe_share

    @pytest.mark.parametrize("d_tilde", [5.0, 20.0])
    def test_criterion_6_fractions_within_three_se(self, d_tilde):
        # the fraction is a ratio of the per-trial means of the effective
        # and exact totals; its delta-method SE is that of e - R x over x
        config, result = _ensembles()[d_tilde]
        fraction = approximation_quality(config, scenario_result=result).captured_fraction
        e, x = result.effective_totals.mean(axis=1), result.exact_totals.mean(axis=1)
        se = np.std(e - fraction * x, ddof=1) / math.sqrt(x.size) / x.mean()
        assert abs(fraction - captured_share(d_tilde)) <= 3.0 * se


def element_space_totals(config, doas, block=100):
    """Every drop's exact totals (A^2/M) (p_l^T W p_l - (p_l^T p_l)^2), with
    p the M-element sinc profiles of the snapped beam coordinates and
    W = P^T P a drop's profile sum: no pair loop and no kernel. The drops
    run block at a time, which bounds the (block, M, M) sums."""
    arr = config.array
    m = np.arange(-arr.max_index, arr.max_index + 1)
    totals = []
    for rows in np.array_split(doas, -(-len(doas) // block)):
        p = np.sinc(m - snap_to_grid(arr.d_tilde * np.sin(rows))[..., None])
        w = np.swapaxes(p, 1, 2) @ p
        totals.append(((p @ w) * p).sum(-1) - np.square((p * p).sum(-1)))
    return arr.peak_power * np.concatenate(totals)


def assert_element_space_totals(config, result, doas=None):
    """The exact totals of result within 1e-11 (A^2/M) (1 + total / (A^2/M))
    of element_space_totals, on the config's stream or the forced doas."""
    if doas is None:
        doas = sample_doas(config.seed, config.trial_count * config.user_count, sector=config.sector)
    doas = np.reshape(doas, (config.trial_count, config.user_count))
    expected = element_space_totals(config, doas)
    err = np.abs(result.exact_totals - expected) / (config.array.peak_power + np.abs(expected))
    assert err.max() <= 1e-11, err.max()


class TestElementSpaceOracle:
    """Every drop's exact totals against the element-space identity, built
    from np.sinc and snap_to_grid, not the kernel. Subtracting the self
    term limits the identity's accuracy, so the bound scales with the
    total; the worst error seen was 8.7e-13 of it, at d_tilde 10, L 200."""

    @pytest.mark.parametrize("d_tilde, users, trials, seed, a_z", [
        pytest.param(5.0, 200, 200, 4242, 1.0, id="many-users"),
        pytest.param(100.0, 10, 1500, 4242, 1.0, id="wide-array"),
        pytest.param(10.0, 200, 200, 4242, 1.0, id="d10"),
        pytest.param(2.5, 300, 20, 4242, 2.0, id="beyond-span"),
        pytest.param(5.0, 200, 200, 777, 3.0, id="many-users-777"),
    ])
    def test_exact_totals(self, d_tilde, users, trials, seed, a_z):
        cfg = _cfg(d_tilde=d_tilde, users=users, trials=trials, seed=seed, a_z=a_z)
        assert_element_space_totals(cfg, run_scenario(cfg, threads=2))


class TestCoincidentPairs:
    """Forced coincident pairs, |t_l - t_k| < COINCIDENT_GAP, in one chunk.
    The ensemble's drop form searches only the users with a sorted
    neighbour within the gap; the reference is the pair form of each drop
    with itself, which searches every pair."""

    D_TILDE = 5.0

    @staticmethod
    def beams():
        beams = np.random.default_rng(41).uniform(-4.3, 4.3, (6, 40))
        # three users whose outer pair, not adjacent in sorted order, is
        # within the gap too
        beams[0, [3, 17, 29]] = 1.3 + np.array([0.0, 0.45e-5, 0.9e-5])
        # two clusters in one drop
        beams[1, [1, 2]] = -2.2 + np.array([0.0, 3e-6])
        beams[1, [30, 31, 32]] = 0.7 + np.array([0.0, 4e-6, 8e-6])
        # pairs in two more drops of the chunk, one of them exactly coincident
        beams[2, [5, 6]] = 0.4
        beams[3, [9, 11]] = -1.1 + np.array([0.0, 2e-7])
        # two users snapped onto one grid point
        beams[4, [0, 39]] = 2.0 + np.array([4e-10, -6e-10])
        return beams

    def test_clusters_match_the_search_of_every_pair(self, run_forced):
        cfg = _cfg(d_tilde=self.D_TILDE, users=40, trials=6)
        assert _layout(6, 40, 1)[0] == 6
        doas = np.arcsin(self.beams() / self.D_TILDE)
        t = _beam_coords(cfg.array, np.sin(doas))
        near = np.abs(t[:, :, None] - t[:, None, :]) < COINCIDENT_GAP
        near[:, np.arange(40), np.arange(40)] = False
        assert (np.count_nonzero(near, axis=(1, 2)) // 2).tolist() == [3, 4, 1, 1, 1, 0]
        assert t[4, 0] == t[4, 39] == 2.0
        for threads in (1, 2):
            res = run_forced(cfg, doas, threads)
            for drop, st in enumerate(np.sin(doas)):
                g = _pair_gram(cfg.array, st, st)
                np.fill_diagonal(g, 0.0)
                gate = np.abs(self.D_TILDE * (st[:, None] - st[None, :])) <= 1.0
                np.fill_diagonal(gate, False)
                exact, effective = gated_totals(cfg, g[None], gate[None])
                assert np.array_equal(res.exact_totals[drop], exact[0]), drop
                assert np.array_equal(res.effective_totals[drop], effective[0]), drop
                assert np.array_equal(res.effective_counts[drop], np.count_nonzero(gate, axis=1)), drop
            assert_element_space_totals(cfg, res, doas)

    @pytest.mark.parametrize("d_tilde, users, trials", [
        pytest.param(1e-6, 50, 3, id="every-pair"),
        pytest.param(1e-3, 60, 4, id="d0.001"),
        pytest.param(0.01, 200, 2, id="d0.01"),
    ])
    def test_near_coincident_ensembles(self, d_tilde, users, trials):
        # one element, K = 0, so every user and every coincident pair's
        # midpoint lies beyond the span; at 1e-6 every pair coincides, and
        # the sorted search runs all L - 1 of its steps
        cfg = _cfg(d_tilde=d_tilde, users=users, trials=trials, seed=29)
        doas = sample_doas(cfg.seed, trials * users).reshape(trials, users)
        t = _beam_coords(cfg.array, np.sin(doas))
        assert cfg.array.max_index == 0 and np.all(t != 0.0)
        near = np.abs(t[:, :, None] - t[:, None, :]) < COINCIDENT_GAP
        assert np.all(near.sum(axis=(1, 2)) > users)
        if d_tilde == 1e-6:
            assert near.all()
        ref, *runs = (run_scenario(cfg, threads) for threads in (1, 2, 3))
        for res in runs:
            for field in ("exact_totals", "effective_totals", "effective_counts", "cdf_grid", "cdf_values"):
                assert getattr(res, field).tobytes() == getattr(ref, field).tobytes(), field
            assert float_bits(res.exact_summary) == float_bits(ref.exact_summary)
            assert float_bits(res.effective_summary) == float_bits(ref.effective_summary)
            assert res.mean_effective_count == ref.mean_effective_count
            assert res.mean_effective_count_se == ref.mean_effective_count_se
        assert_element_space_totals(cfg, ref)


class TestEffectiveCount:
    @pytest.mark.parametrize("trials", [1, 2, 7, 300])
    def test_moments_have_the_bits_of_the_float_means(self, run_forced, trials):
        # From the integer row sums; a count's mean and its per-trial means
        # keep the bits of NumPy's float means of the counts
        cfg = _cfg(d_tilde=5.0, users=9, trials=trials, seed=23)
        rng = np.random.default_rng(trials)
        doas = rng.uniform(-math.pi / 3.0, math.pi / 3.0, (trials, 9))
        # grid users, one at broadside, and a tight cluster
        doas[::2, :4] = np.arcsin(np.array([0.0, 0.2, 0.4, -0.6]))
        doas[1::3, 4:7] = 0.3 + np.array([0.0, 1e-3, 2e-3])
        res = run_forced(cfg, doas)
        counts = res.effective_counts
        assert len(np.unique(counts)) > 2
        assert type(res.mean_effective_count) is float
        assert res.mean_effective_count.hex() == float(counts.mean()).hex()
        se = float(counts.mean(axis=1).std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        assert type(res.mean_effective_count_se) is float
        assert res.mean_effective_count_se.hex() == se.hex()

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
    def test_identical_doas_fully_captured(self, run_forced):
        cfg = _cfg(users=2, trials=5)
        doas = np.full((5, 2), 0.25)
        rep = approximation_quality(cfg, scenario_result=run_forced(cfg, doas))
        assert rep.captured_fraction == 1.0
        assert rep.mean_exact > 0.0

    def test_orthogonal_grid_drop_reports_fraction_one(self, run_forced):
        cfg = _cfg(users=3, trials=4, d_tilde=10.0)
        grid_freqs = np.array([0.0, 0.3, 0.7])
        doas = np.tile(np.arcsin(grid_freqs), (4, 1))
        res = run_forced(cfg, doas)
        assert np.all(res.exact_totals == 0.0)
        rep = approximation_quality(cfg, scenario_result=res)
        assert rep.captured_fraction == 1.0


def reference_summary(totals):
    """Mean and quantiles by np.quantile on the unsorted totals."""
    flat = totals.ravel()
    q10, q50, q90, q99 = np.quantile(flat, [0.10, 0.50, 0.90, 0.99])
    return {"mean": float(flat.mean()), "median": float(q50), "q10": float(q10),
            "q90": float(q90), "q99": float(q99)}


def reference_cdf(totals):
    """The log-grid CDF from a fresh sort and the positive totals copied out."""
    values = np.sort(totals.ravel())
    lo, hi = np.quantile(values, [0.001, 0.999])
    positive = values[values > 0.0]
    if positive.size == 0:
        return np.zeros(harness.CDF_POINTS), np.ones(harness.CDF_POINTS)
    if lo <= 0.0:
        lo = float(positive[0])
    grid = np.full(harness.CDF_POINTS, lo) if hi <= lo else np.geomspace(lo, hi, harness.CDF_POINTS)
    return grid, np.searchsorted(values, grid, side="right") / values.size


def float_bits(summary):
    return {key: float(value).hex() for key, value in summary.items()}


class TestSortedReductions:
    """The summaries and the CDF read from one reused sorted buffer have
    the bits of np.quantile and a fresh sort on the unsorted totals."""

    @staticmethod
    def totals(case):
        rng = np.random.default_rng(12)
        if case == "random":
            return rng.random((300, 7)) ** 4
        if case == "ties":
            return rng.integers(0, 4, (300, 7)) * 0.125
        if case == "zeros":
            x = rng.random((300, 7))
            x[x < 0.3] = 0.0
            return x
        if case == "mostly_zero":
            x = np.zeros((300, 7))
            x[5, 3] = 2.5
            x[17, 0] = 1e-300
            return x
        if case == "all_zero":
            return np.zeros((40, 3))
        if case == "single":
            return np.array([[0.7]])
        assert case == "single_zero"
        return np.zeros((1, 1))

    @pytest.mark.parametrize("case", ["random", "ties", "zeros", "mostly_zero", "all_zero",
                                      "single", "single_zero"])
    def test_shared_buffer_gives_the_unsorted_bits(self, case):
        exact = self.totals(case)
        # effective totals: a gated share of the exact ones, zeros included
        effective = exact * (np.arange(exact.size).reshape(exact.shape) % 3 != 0)
        ordered = np.full(exact.size, np.nan)
        exact_summary = harness._summary(exact, ordered)
        grid, cdf = harness._empirical_cdf(ordered)
        effective_summary = harness._summary(effective, ordered)
        assert float_bits(exact_summary) == float_bits(reference_summary(exact))
        assert float_bits(effective_summary) == float_bits(reference_summary(effective))
        ref_grid, ref_cdf = reference_cdf(exact)
        assert grid.tobytes() == ref_grid.tobytes()
        assert cdf.tobytes() == ref_cdf.tobytes()
        assert exact_summary["mean"] == float(exact.mean())

    def test_run_scenario_matches_the_references(self):
        res = run_scenario(_cfg(d_tilde=10.3, users=12, trials=700, seed=6), threads=2)
        assert float_bits(res.exact_summary) == float_bits(reference_summary(res.exact_totals))
        assert float_bits(res.effective_summary) == float_bits(reference_summary(res.effective_totals))
        grid, cdf = reference_cdf(res.exact_totals)
        assert res.cdf_grid.tobytes() == grid.tobytes()
        assert res.cdf_values.tobytes() == cdf.tobytes()


class TestSortedQuantiles:
    """_sorted_quantiles reads np.quantile's bits off sorted values."""

    PROBS = (0.10, 0.50, 0.90, 0.99, *harness.CDF_ENDS)

    @staticmethod
    def values(case, n):
        rng = np.random.default_rng(n)
        if case == "random":
            return rng.random(n) ** 4
        if case == "wide":
            return 10.0 ** rng.uniform(-300.0, 300.0, n)
        if case == "ties":
            return rng.integers(0, 3, n) * 0.375
        if case == "zeros":
            x = rng.random(n)
            x[x < 0.5] = 0.0
            x[:n // 7] = 1e-300
            return x
        assert case == "all_zero"
        return np.zeros(n)

    @pytest.mark.parametrize("case", ["random", "wide", "ties", "zeros", "all_zero"])
    def test_bits_of_np_quantile(self, case):
        for n in (*range(1, 71), 15_000, 40_000):
            ordered = np.sort(self.values(case, n))
            got = harness._sorted_quantiles(ordered, self.PROBS)
            expect = np.quantile(ordered, self.PROBS)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [float(x).hex() for x in expect], (case, n)


def gated_totals(config, g, mask):
    """(exact, effective) totals of the (rows, L, L) signed G g, bit for bit
    as the ensemble forms them: A^2/M times the sums of squares of G, with G
    zeroed outside the bool mask for the effective ones."""
    peak = config.array.peak_power
    return peak * _square_sums(g), peak * _square_sums(g * mask)


def sine_gate(config, doas):
    """Counts and (exact, effective) totals under |d_tilde (sin phi_l - sin phi_k)| <= 1."""
    st = np.sin(doas)
    theta = config.array.d_tilde * (st[:, :, None] - st[:, None, :])
    mask = np.abs(theta) <= 1.0
    self_pair = np.arange(st.shape[1])
    mask[:, self_pair, self_pair] = False
    g = _pair_gram(config.array, st, st)
    g[:, self_pair, self_pair] = 0.0
    return np.count_nonzero(mask, axis=2), *gated_totals(config, g, mask)


def assert_gate_matches_sines(run_forced, config, doas):
    res = run_forced(config, doas)
    counts, exact, effective = sine_gate(config, doas)
    assert np.array_equal(res.effective_counts, counts)
    assert np.array_equal(res.exact_totals, exact)
    assert np.array_equal(res.effective_totals, effective)
    return counts


class TestDivisorGate:
    """The gate read off the kernel's divisor decides every pair as the sines do."""

    @staticmethod
    def margin(d_tilde):
        return 2.0 * GRID_SNAP_TOL + (2.0 * d_tilde + 16.0) * 2.0**-53

    @pytest.mark.parametrize("d_tilde", [10.0, 10.3])
    def test_grid_neighbours_and_near_grid_users(self, run_forced, d_tilde):
        # Grid neighbours sit at |t_l - t_k| = 1 exactly, also after users
        # within GRID_SNAP_TOL of the grid are snapped onto it, while their
        # sine separations fall on either side of 1.
        for offset in (0.0, 5e-10, -5e-10, 9e-10, -9e-10):
            beams = np.array([-3.0, -2.0, -1.0 + offset, 0.0, 1.0 + offset, 2.0, 5.0, 6.0 - offset])
            doas = np.arcsin(beams / d_tilde)[None, :]
            cfg = _cfg(d_tilde=d_tilde, users=beams.size, trials=1)
            counts = assert_gate_matches_sines(run_forced, cfg, doas)
            assert counts.sum() > 0

    @pytest.mark.parametrize("d_tilde", [10.0, 10.3])
    def test_pairs_at_the_margin_and_one_ulp_beyond(self, run_forced, d_tilde):
        m = self.margin(d_tilde)
        for edge in (1.0 - m, 1.0 + m):
            for beam in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)):
                for base in (0.0, 3.0):
                    doas = np.arcsin(np.array([[base, base + beam]]) / d_tilde)
                    assert_gate_matches_sines(run_forced, _cfg(d_tilde=d_tilde, users=2, trials=1), doas)

    @pytest.mark.parametrize("d_tilde", [10.0, 10.3])
    def test_band_pair_in_one_drop_of_a_chunk(self, run_forced, d_tilde):
        # One drop of a 12-drop chunk holds grid neighbours at |t_l - t_k| = 1,
        # so the whole chunk takes the sine gate, and the gate it writes over
        # the divisor must serve every drop's counts and effective totals.
        cfg = _cfg(d_tilde=d_tilde, users=8, trials=12)
        assert _layout(12, 8, 1)[0] == 12
        doas = np.random.default_rng(31).uniform(-math.pi / 3.0, math.pi / 3.0, (12, 8))
        doas[5, :2] = np.arcsin(np.array([-1.0, 0.0]) / d_tilde)
        t = _beam_coords(cfg.array, np.sin(doas))
        gap = np.abs(t[:, :, None] - t[:, None, :])
        m = self.margin(d_tilde)
        in_band = ((gap > 1.0 - m) & (gap <= 1.0 + m)).any(axis=(1, 2))
        assert np.flatnonzero(in_band).tolist() == [5]
        counts = assert_gate_matches_sines(run_forced, cfg, doas)
        assert counts[5, 0] >= 1 and np.count_nonzero(counts.sum(axis=1)) > 6

    @pytest.mark.parametrize("d_tilde", [10.0, 10.3])
    def test_band_pair_and_coincident_pair_in_one_chunk(self, run_forced, d_tilde):
        # Coincident pairs and self-pairs both have a divisor of 0, inside the
        # gate and the band, and neither may hide a band pair or pose as one.
        cfg = _cfg(d_tilde=d_tilde, users=8, trials=12)
        doas = np.random.default_rng(32).uniform(-math.pi / 3.0, math.pi / 3.0, (12, 8))
        doas[5, :3] = np.arcsin(np.array([-1.0, 0.0, 0.0]) / d_tilde)
        doas[8, 6:] = np.arcsin(np.array([2.5, 2.5 + 3e-6]) / d_tilde)
        t = _beam_coords(cfg.array, np.sin(doas))
        assert np.abs(t[5, 1] - t[5, 2]) < COINCIDENT_GAP and np.abs(t[8, 6] - t[8, 7]) < COINCIDENT_GAP
        counts = assert_gate_matches_sines(run_forced, cfg, doas)
        assert counts[5, 0] >= 2 and counts[8, 6] >= 1

    def test_sine_gate_only_for_chunks_with_a_band_pair(self, monkeypatch, run_forced):
        # A chunk's band count exceeds its gate's count by its rows L
        # self-pairs exactly when no pair lies in the band, and only then is
        # the sine gate's operand formed.
        formed = []
        operands = harness._difference_operands

        def spied(x):
            formed.append(x.shape)
            return operands(x)

        monkeypatch.setattr(harness, "_difference_operands", spied)
        cfg = _cfg(d_tilde=10.3, users=30, trials=300, seed=19)
        doas = sample_doas(cfg.seed, 300 * 30).reshape(300, 30)
        t = _beam_coords(cfg.array, np.sin(doas))
        gap = np.abs(t[:, :, None] - t[:, None, :])
        m = self.margin(cfg.array.d_tilde)
        assert not ((gap > 1.0 - m) & (gap <= 1.0 + m)).any()
        assert _layout(300, 30, 1)[0] < 300
        res = run_scenario(cfg)
        assert formed == []
        assert np.array_equal(res.effective_counts, sine_gate(cfg, doas)[0])
        # one chunk of 12 drops, one of which holds grid neighbours
        cfg = _cfg(d_tilde=10.0, users=8, trials=12)
        doas = np.random.default_rng(31).uniform(-math.pi / 3.0, math.pi / 3.0, (12, 8))
        doas[5, :2] = np.arcsin(np.array([-1.0, 0.0]) / 10.0)
        assert_gate_matches_sines(run_forced, cfg, doas)
        assert formed == [(12, 8)]

    @pytest.mark.parametrize("users", [300, 700])
    def test_counts_beyond_a_byte(self, run_forced, users):
        # every user of a drop lies within one mainlobe, so each counts the
        # L - 1 others, more than a uint8 holds
        cfg = _cfg(d_tilde=5.0, users=users, trials=2)
        beams = np.stack((np.linspace(-0.45, 0.45, users), np.linspace(2.05, 2.95, users)))
        doas = np.arcsin(beams / 5.0)
        res = run_forced(cfg, doas)
        assert res.effective_counts.dtype == np.intp
        assert np.all(res.effective_counts == users - 1)
        assert np.array_equal(res.effective_counts, sine_gate(cfg, doas)[0])
        # the gate keeps every power, so the same summation gives the same bits
        assert np.array_equal(res.effective_totals, res.exact_totals)

    @pytest.mark.parametrize("d_tilde", [2.5, 5.0, 10.3, 100.0, 1e6])
    def test_random_drops(self, d_tilde):
        cfg = _cfg(d_tilde=d_tilde, users=10, trials=1000, seed=17)
        doas = sample_doas(cfg.seed, 10_000).reshape(1000, 10)
        res = run_scenario(cfg)
        counts, exact, effective = sine_gate(cfg, doas)
        assert np.array_equal(res.effective_counts, counts)
        assert np.array_equal(res.exact_totals, exact)
        assert np.array_equal(res.effective_totals, effective)

    def test_half_space_sector_reaches_end_fire(self):
        cfg = ScenarioConfig(LensArrayConfig(7.5), 20, 200, 3, sector=SectorModel(math.pi / 2.0))
        doas = sample_doas(3, 4000, sector=cfg.sector).reshape(200, 20)
        res = run_scenario(cfg)
        assert np.array_equal(res.effective_counts, sine_gate(cfg, doas)[0])


class TestApproximationQuality:
    @pytest.mark.parametrize("field, other", [
        pytest.param("array", LensArrayConfig(d_tilde=10.0, a_z=2.0), id="a_z"),
        pytest.param("array", LensArrayConfig(d_tilde=10.5), id="d_tilde"),
        pytest.param("user_count", 11, id="user_count"),
        pytest.param("trial_count", 41, id="trial_count"),
        pytest.param("seed", 2, id="seed"),
        pytest.param("sector", SectorModel(1.0), id="sector"),
    ])
    def test_result_of_another_config_rejected(self, field, other):
        cfg = _cfg(trials=40)
        res = run_scenario(cfg)
        other_cfg = dataclasses.replace(cfg, **{field: other})
        with pytest.raises(ValueError, match="another config"):
            approximation_quality(other_cfg, scenario_result=res)
        assert approximation_quality(_cfg(trials=40), scenario_result=res).mean_exact > 0.0


    @pytest.mark.parametrize("users, trials, threads", [(1, 5, 1), (2, 1, 1), (10, 1500, 1),
                                                        (12, 333, 2), (200, 25, 3)])
    def test_means_are_the_full_array_means(self, users, trials, threads):
        # the report reads the summaries' means, which reduce the C-contiguous
        # (T, L) arrays in the order exact_totals.mean() does
        cfg = _cfg(d_tilde=7.3, users=users, trials=trials, seed=9)
        res = run_scenario(cfg, threads=threads)
        rep = approximation_quality(cfg, scenario_result=res)
        assert rep.mean_exact.hex() == float(res.exact_totals.mean()).hex()
        assert rep.mean_effective.hex() == float(res.effective_totals.mean()).hex()


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
