import cmath

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

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


#: AR(8) with clustered poles near 0.9 (coefficient l1 norm 27.3): a strongly
#: non-normal companion matrix.
CLUSTERED_POLES_AR8 = [4.69949818406541, -8.757256044433852, 7.639449995718014,
                       -2.0155058955713896, -1.7926502176999795, 1.7338231339568202,
                       -0.5784750162877226, 0.07110408097301613]


@st.composite
def stable_ar_coeffs(draw, max_modulus=0.95):
    """AR(1..8) coefficients whose poles have modulus in [0.1, max_modulus],
    real or in conjugate pairs (the benchmark's rule for random processes)."""
    order = draw(st.integers(1, 8))
    poles = []
    for _ in range(draw(st.integers(0, order // 2))):
        r, theta = draw(st.floats(0.1, max_modulus)), draw(st.floats(0.0, cmath.pi))
        poles += [cmath.rect(r, theta), cmath.rect(r, -theta)]
    while len(poles) < order:
        poles.append(draw(st.floats(0.1, max_modulus)) * draw(st.sampled_from([-1.0, 1.0])))
    return [float(-c) for c in np.real(np.poly(poles))[1:]]
