import numpy as np
import pytest
from hypothesis import settings

from arcert import ArProcess, build_companion, stationary_stats

# Example timings vary several-fold with machine load, so no test has a
# per-example deadline; each test keeps its own max_examples.
settings.register_profile("arcert", deadline=None)
settings.load_profile("arcert")


@pytest.fixture(scope="session")
def ar1():
    return ArProcess(coeffs=[0.5], noise_variance=1.0)


@pytest.fixture(scope="session")
def ar1_stats(ar1):
    return stationary_stats(build_companion(ar1), ar1.noise_variance)


@pytest.fixture(scope="session")
def ar2():
    return ArProcess(coeffs=[0.3, 0.4], noise_variance=1.0)


@pytest.fixture(scope="session")
def ar2_stats(ar2):
    return stationary_stats(build_companion(ar2), ar2.noise_variance)


def truncated_lyapunov_series(a, q, terms):
    """Independent oracle: partial sum of A^i Q (A^T)^i."""
    a = np.asarray(a, dtype=float)
    total = np.zeros_like(np.asarray(q, dtype=float))
    power = np.eye(a.shape[0])
    for _ in range(terms):
        total += power @ q @ power.T
        power = a @ power
    return total
