import os

# one BLAS thread, as the benchmark runs: on a small machine the threaded
# BLAS oversubscribes the cores and roughly doubles the suite's wall time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from loopflow import FlowConfig, default_spec

# property tests draw the same few examples on every run and write no
# example database, so the suite stays deterministic and quick
settings.register_profile("loopflow", derandomize=True, max_examples=20, database=None,
                          deadline=None)
settings.load_profile("loopflow")


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
