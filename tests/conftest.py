"""Shared fixtures for the HOS-Miner test suite."""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro.core.miner import HOSMiner
from repro.core.shard import THREAD_NAME_PREFIX
from repro.data.synthetic import make_planted_outliers

#: How long the session's last teardown waits for shard threads to stop.
THREAD_JOIN_TIMEOUT_S = 10.0


@pytest.fixture(scope="session", autouse=True)
def no_shard_thread_outlives_the_session():
    """After the last test, every shard-pool thread has stopped.

    A pool stops its threads on ``close()`` or when it is garbage
    collected, so once the session's fixtures are gone and a collection
    has run, every thread named ``repro-shard*`` must end within a
    bounded join; one still alive is a leak.
    """
    yield
    gc.collect()
    deadline = time.monotonic() + THREAD_JOIN_TIMEOUT_S
    alive = []
    for thread in threading.enumerate():
        if thread.name.startswith(THREAD_NAME_PREFIX):
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                alive.append(thread.name)
    if alive:
        pytest.fail(f"shard-pool threads still alive after the session: {alive}")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_gaussian() -> np.ndarray:
    """300 x 5 Gaussian blob with one extreme row (row 0, dims 0-1)."""
    generator = np.random.default_rng(7)
    X = generator.normal(size=(300, 5))
    X[0, 0] += 9.0
    X[0, 1] += 9.0
    return X


@pytest.fixture(scope="session")
def planted_dataset():
    """Deterministic planted-outlier dataset used across integration tests."""
    return make_planted_outliers(
        n=400, d=6, n_outliers=3, subspace_dims=2, displacement=9.0, seed=11
    )


@pytest.fixture(scope="session")
def fitted_miner(planted_dataset) -> HOSMiner:
    """One shared fitted miner (fitting costs a learning pass)."""
    return HOSMiner(k=4, sample_size=5, threshold_quantile=0.99).fit(
        planted_dataset.X
    )
