"""Shared fixtures."""

import pytest

import golden


@pytest.fixture
def run_forced():
    """golden.run_forced: run_scenario(config, threads) on forced DOAs."""
    return golden.run_forced
