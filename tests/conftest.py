import os

# one BLAS thread, as the benchmark runs: on a small machine the threaded
# BLAS oversubscribes the cores and roughly doubles the suite's wall time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from loopflow import FlowConfig, default_spec


@pytest.fixture(scope="session")
def spec():
    return default_spec()


@pytest.fixture(scope="session")
def config(spec):
    return FlowConfig.auto(spec)


@pytest.fixture(scope="session")
def small_spec():
    # J = 8 keeps the frame dimension at 34 for the slow iterative tests
    return default_spec(J=8)


@pytest.fixture(scope="session")
def small_config(small_spec):
    return FlowConfig.auto(small_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
