import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcert import ArProcess, ConvergenceError, build_companion
from arcert.linalg import LYAPUNOV_TOL, solve_companion_lyapunov, symmetric_sqrt
from conftest import truncated_lyapunov_series
from reference import psd_order_holds


def relative_residual(a, x, q):
    return np.linalg.norm(x - a @ x @ a.T - q) / np.linalg.norm(x)


class TestLyapunov:
    """V = A V A^T + e1 e1^T and G = A G A^T + I from the companion solve."""

    def test_zero_matrix_fixed_point(self):
        # All coefficients zero: A is the nilpotent shift, so the series ends
        # after n + 1 terms and V = I, G = diag(1, ..., n + 1) exactly.
        v, g = solve_companion_lyapunov(np.eye(3, k=-1))
        np.testing.assert_array_equal(v, np.eye(3))
        np.testing.assert_array_equal(g, np.diag([1.0, 2.0, 3.0]))

    def test_scalar_geometric_series(self):
        # AR(1) with c = 0.5: V[0, 0] and G[0, 0] both sum 0.25^i.
        v, g = solve_companion_lyapunov([[0.5, 0.0], [1.0, 0.0]])
        assert v[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert g[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_matches_truncated_series_oracle(self):
        a = np.array([[0.3, 0.4, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        qs = (np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]), np.eye(3))
        # rho(a) = 0.8 so 200 terms push the tail below 1e-12 * ||q||.
        for x, q in zip(solve_companion_lyapunov(a), qs):
            oracle = truncated_lyapunov_series(a, q, 200)
            assert np.abs(x - oracle).max() <= 1e-10 * np.abs(x).max()

    @pytest.mark.parametrize("rho_target", [0.2, 0.7, 0.95])
    def test_residual_tolerance(self, rho_target):
        # AR(4) with two random conjugate pole pairs, the outer one of modulus
        # rho_target.
        rng = np.random.default_rng(5)
        moduli = rho_target * np.array([1.0, rng.uniform(0.3, 1.0)])
        poles = moduli * np.exp(1j * rng.uniform(0.0, np.pi, 2))
        coeffs = -np.real(np.poly(np.concatenate([poles, poles.conj()])))[1:]
        a = build_companion(ArProcess(coeffs=coeffs))
        v, g = solve_companion_lyapunov(a)
        e1 = np.eye(5)[0]
        assert relative_residual(a, v, np.outer(e1, e1)) <= 1e-10
        assert relative_residual(a, g, np.eye(5)) <= 1e-10
        np.testing.assert_array_equal(v, v.T)
        np.testing.assert_array_equal(g, g.T)

    def test_nonconvergence_surfaces(self, monkeypatch):
        # The residual check catches a solve that comes back inaccurate.  A
        # relative error of 1e-6 in both solves would be refined away to
        # 1e-12, inside the tolerance; 1e-3 leaves 1e-6.
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: exact(m, b) * (1.0 + 1e-3))
        with pytest.raises(ConvergenceError):
            solve_companion_lyapunov([[0.5, 0.0], [1.0, 0.0]])

    def test_nan_solve_surfaces(self, monkeypatch):
        # A NaN residual compares False with any tolerance, so the check
        # must reject it rather than pass it.
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: np.full(np.shape(b), np.nan))
        with pytest.raises(ConvergenceError):
            solve_companion_lyapunov([[0.5, 0.0], [1.0, 0.0]])

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
        qs = (np.outer(e1, e1), np.eye(a.shape[0]))
        for x, q in zip(solve_companion_lyapunov(a), qs):
            assert relative_residual(a, x, q) <= LYAPUNOV_TOL
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
