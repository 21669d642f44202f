"""Shared fixtures."""

import concurrent.futures
import os

import pytest

from corb import engine, noise


@pytest.fixture
def pool_starts(monkeypatch):
    """Send every sampled run with two or more workers through the process
    pool, whatever its size, on a machine of two CPUs (`os.cpu_count`), so
    that CORB_THREADS=2 is admitted whatever the machine has; the returned
    list gets one entry per pool started, so a test can show that the pool
    path really ran, or that none did."""
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(engine, "POOL_MIN_SIZE", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return starts


@pytest.fixture
def gainless_noise_models(monkeypatch):
    """Every NoiseModel built during the test reports trace gains of 0, so
    channels that gain trace pass the boundary check on the product of the
    gains and reach the engine's own range check on the fidelity. The
    interleaved channel, which no NoiseModel holds, keeps its real gain."""
    monkeypatch.setattr(noise, "trace_gain", lambda gram: 0.0)
