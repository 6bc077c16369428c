"""Shared fixtures."""

import numpy as np
import pytest

from lensmimo import harness


@pytest.fixture
def run_forced():
    """run(config, doas, threads=1): run_scenario on the (trial_count,
    user_count) DOAs doas, in radians, in place of the seeded stream.

    The harness's sample_doas is patched for the run only, so it serves the
    forced drops by (offset, count) as it serves stream draws, at any chunk
    size and thread count. Each call returns a fresh array, as sample_doas
    does, because a range takes its sines in place.
    """

    def run(config, doas, threads=1):
        flat = np.asarray(doas, dtype=float).ravel()
        assert flat.size == config.trial_count * config.user_count

        def served(seed, count, offset=0, sector=None):
            return flat[offset:offset + count].copy()

        with pytest.MonkeyPatch.context() as m:
            m.setattr(harness, "sample_doas", served)
            return harness.run_scenario(config, threads=threads)

    return run
