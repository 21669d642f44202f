"""Shared fixtures."""

import concurrent.futures
import os

import pytest

from corb import engine, noise


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the number of CPUs this process may run on, as
    `engine._worker_count` reads it (`os.sched_getaffinity`, patched in
    where the platform lacks it); 1 keeps every run serial."""
    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_cpus


@pytest.fixture
def pool_starts(monkeypatch, cpus):
    """Send every sampled run through a process pool of two workers,
    whatever its size and whatever CPUs the machine has (`cpus(1)` in the
    test keeps a run serial); the returned list gets one entry per pool
    started, so a test can show that the pool path really ran, or that
    none did."""
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(engine, "POOL_MIN_SIZE", 0)
    cpus(2)
    return starts


@pytest.fixture
def gainless_noise_models(monkeypatch):
    """Every NoiseModel built during the test reports trace gains of 0, so
    channels that gain trace pass the boundary check on the product of the
    gains and reach the engine's own range check on the fidelity. The
    interleaved channel, which no NoiseModel holds, keeps its real gain."""
    monkeypatch.setattr(noise, "trace_gain", lambda gram: 0.0)
