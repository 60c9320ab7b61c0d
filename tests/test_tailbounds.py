import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arcert import ArProcess
from reference import (
    chi2_lower_threshold,
    chi2_tail_frequencies,
    chi2_upper_threshold,
    spectral_radius_subadditive_check,
    toeplitz_covariance,
    weierstrass_lower_bound,
    weighted_chi2_tail_frequency,
    weighted_chi2_upper_threshold,
)


class TestThresholdFormulas:
    def test_upper_at_x_zero_is_mean(self):
        assert chi2_upper_threshold(7, 0.0) == 7.0

    def test_upper_hand_value(self):
        assert chi2_upper_threshold(1, 1.0) == pytest.approx(5.0)

    def test_lower_at_x_zero_is_mean(self):
        assert chi2_lower_threshold(7, 0.0) == 7.0

    def test_lower_hand_value(self):
        assert chi2_lower_threshold(4, 1.0) == pytest.approx(0.0)

    def test_weighted_all_zeros(self):
        assert weighted_chi2_upper_threshold(np.zeros(5), 3.0) == 0.0

    def test_weighted_reduces_to_unweighted(self):
        for dof in [1, 4, 9]:
            for x in [0.5, 2.0, 7.0]:
                specialised = weighted_chi2_upper_threshold(np.ones(dof), x)
                assert specialised == pytest.approx(chi2_upper_threshold(dof, x) - dof)


class TestEmpiricalFalsification:
    def test_chi2_tails_respected_smoke(self):
        upper, lower = chi2_tail_frequencies(5, 3.0, samples=200_000, seed=101)
        assert upper.verdict == "respected"
        assert lower.verdict == "respected"
        # The bound is loose but not absurdly so: the observed upper tail
        # should be within two orders of magnitude of exp(-x).
        assert upper.frequency <= upper.bound

    def test_weighted_tail_respected_smoke(self):
        process = ArProcess(coeffs=[0.5])
        weights = np.linalg.eigvalsh(toeplitz_covariance(process, 64))
        result = weighted_chi2_tail_frequency(weights, 2.0, samples=200_000, seed=7)
        assert result.verdict == "respected"

    def test_impossible_lower_tail(self):
        # Threshold below zero: the event cannot occur.
        _, lower = chi2_tail_frequencies(1, 9.0, samples=10_000, seed=3)
        assert lower.frequency == 0.0


class TestWeierstrass:
    def test_equality_at_zero(self):
        assert weierstrass_lower_bound(np.zeros(4)) == 1.0

    def test_saturating_entry(self):
        lam = np.array([1.0, 0.3])
        assert weierstrass_lower_bound(lam) <= 0.0
        assert np.prod(1.0 - lam) == 0.0 >= weierstrass_lower_bound(lam)

    @settings(max_examples=300)
    @given(arrays(np.float64, st.integers(min_value=1, max_value=12),
                  elements=st.floats(min_value=0.0, max_value=1.0)))
    def test_product_dominates_bound(self, lam):
        assert np.prod(1.0 - lam) >= weierstrass_lower_bound(lam) - 1e-12


class TestSpectralRadiusSubadditivity:
    def test_cancellation(self):
        assert spectral_radius_subadditive_check(np.eye(3), -np.eye(3))

    def test_equal_matrices(self):
        m = np.diag([3.0, -1.0])
        assert spectral_radius_subadditive_check(m, m)

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_random_symmetric_pairs(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        assert spectral_radius_subadditive_check(a + a.T, b + b.T)


def test_exceedance_result_respected_logic():
    # Tail frequencies are judged like campaign events: binomial standard
    # error, and "violated" only beyond three of them above the bound.
    smoke = chi2_tail_frequencies(2, 1.0, samples=50_000, seed=5)[0]
    assert smoke.evaluated == 50_000
    assert smoke.bound == math.exp(-1.0)
    assert smoke.stderr == pytest.approx(
        math.sqrt(smoke.frequency * (1 - smoke.frequency) / smoke.evaluated)
    )
    assert (smoke.verdict == "violated") == (smoke.frequency - 3.0 * smoke.stderr > smoke.bound)
