import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcert import (
    ArProcess,
    ConvergenceError,
    StabilityError,
    build_companion,
    solve_discrete_lyapunov,
    spectral_radius,
    symmetric_sqrt,
)
from arcert.linalg import LYAPUNOV_TOL
from conftest import truncated_lyapunov_series
from reference import psd_order_holds


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_companion_matches_polynomial_roots(self):
        # Oracle: roots of x^2 - 0.3 x - 0.4 via numpy's root finder.
        roots = np.roots([1.0, -0.3, -0.4])
        companion = np.array([[0.3, 0.4], [1.0, 0.0]])
        assert spectral_radius(companion) == pytest.approx(np.max(np.abs(roots)), rel=1e-12)
        assert spectral_radius(companion) == pytest.approx(0.8, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestLyapunov:
    def test_zero_matrix_fixed_point(self):
        x = solve_discrete_lyapunov(np.zeros((3, 3)), np.eye(3))
        np.testing.assert_array_equal(x, np.eye(3))

    def test_scalar_geometric_series(self):
        x = solve_discrete_lyapunov([[0.5]], [[1.0]])
        assert x[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_matches_truncated_series_oracle(self):
        a = np.array([[0.3, 0.4, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        q = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        # rho(a) = 0.8 so 200 terms push the tail below 1e-12 * ||q||.
        oracle = truncated_lyapunov_series(a, q, 200)
        x = solve_discrete_lyapunov(a, q)
        assert np.abs(x - oracle).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("rho_target", [0.2, 0.7, 0.95])
    def test_residual_tolerance(self, rho_target):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4))
        a = raw * (rho_target / spectral_radius(raw))
        basis = rng.standard_normal((4, 4))
        q = basis @ basis.T
        x = solve_discrete_lyapunov(a, q)
        residual = np.linalg.norm(x - a @ x @ a.T - q) / np.linalg.norm(x)
        assert residual <= 1e-10
        np.testing.assert_allclose(x, x.T)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError):
            solve_discrete_lyapunov([[1.0]], [[1.0]])

    def test_asymmetric_q_raises(self):
        with pytest.raises(ValueError):
            solve_discrete_lyapunov(np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]])

    def test_nonconvergence_surfaces(self, monkeypatch):
        # The residual check catches a solve that comes back inaccurate.
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: exact(m, b) * (1.0 + 1e-6))
        with pytest.raises(ConvergenceError):
            solve_discrete_lyapunov([[0.5]], [[1.0]])

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.floats(0.1, 0.95), st.floats(0.0, np.pi)), max_size=4),
           st.booleans(), st.floats(0.0, 0.05), st.integers(0, 8))
    def test_schur_stable_companions(self, pairs, clustered, spread, reals):
        # Conjugate pole pairs of modulus <= 0.95, optionally clustered near
        # the first pair, topped up with real poles: AR(1..8) companions.
        poles = []
        for r, theta in pairs:
            if clustered:
                r, theta = min(pairs[0][0] + spread, 0.95), pairs[0][1] + spread
            poles += [r * np.exp(1j * theta), r * np.exp(-1j * theta)]
        poles += [0.9 * (-1) ** k for k in range(min(reals, 8 - len(poles)))]
        assume(poles)
        a = build_companion(ArProcess(coeffs=-np.real(np.poly(poles))[1:]))
        e1 = np.eye(a.shape[0])[0]
        for q in (np.outer(e1, e1), np.eye(a.shape[0])):
            x = solve_discrete_lyapunov(a, q)
            residual = np.linalg.norm(x - a @ x @ a.T - q) / np.linalg.norm(x)
            assert residual <= LYAPUNOV_TOL
            np.testing.assert_array_equal(x, x.T)


class TestPsdOrder:
    def test_strict_order(self):
        eye = np.eye(2)
        assert psd_order_holds(np.zeros((2, 2)), eye, 2 * eye)

    def test_violated_order(self):
        eye = np.eye(2)
        assert not psd_order_holds(eye, np.zeros((2, 2)), 2 * eye)

    def test_boundary_equal_matrices(self):
        rng = np.random.default_rng(11)
        basis = rng.standard_normal((4, 4))
        m = basis @ basis.T
        assert psd_order_holds(m, m, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psd_order_holds(np.eye(2), np.eye(3), np.eye(3))

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_random_psd_gaps(self, dim, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((dim, dim))
        mid = base @ base.T
        bump = rng.standard_normal((dim, dim))
        gap = bump @ bump.T
        assert psd_order_holds(mid - gap, mid, mid + gap)


class TestSymmetricSqrt:
    def test_square_recovers_matrix(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((5, 5))
        m = base @ base.T
        root = symmetric_sqrt(m)
        np.testing.assert_allclose(root @ root, m, rtol=0, atol=1e-10 * np.abs(m).max())
        np.testing.assert_allclose(root, root.T)

    def test_rejects_indefinite(self):
        # A numerical failure (CLI exit 3), not a config error.
        with pytest.raises(np.linalg.LinAlgError):
            symmetric_sqrt([[1.0, 0.0], [0.0, -1.0]])
