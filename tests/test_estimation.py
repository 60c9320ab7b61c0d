import numpy as np
import pytest

from arcert import ar_recursion
from reference import OraclePath, build_regressors, lag_window, ols_fit, simulate_whole_horizon


def noise_free_trajectory(coeffs, pre, horizon):
    noise = np.zeros(horizon)
    return OraclePath(samples=ar_recursion(coeffs, pre, noise), noise=noise,
                      order=len(coeffs), horizon=horizon)


class TestBuildRegressors:
    def test_hand_enumerated_alignment(self):
        # samples = (y_0, y_1, y_2, y_3) = (1, 2, 3, 4) with order 1, N = 3:
        # regressor rows are (y_1, y_2) = (2, 3), targets (y_2, y_3) = (3, 4).
        traj = OraclePath(samples=np.array([1.0, 2.0, 3.0, 4.0]), noise=np.zeros(3),
                          order=1, horizon=3)
        design, target = build_regressors(traj)
        np.testing.assert_array_equal(design, [[2.0], [3.0]])
        np.testing.assert_array_equal(target, [3.0, 4.0])

    def test_hand_enumerated_order_two(self):
        # samples = (y_-1, y_0, y_1, ..., y_4); first row is Y_2 = (y_2, y_1).
        traj = OraclePath(samples=np.arange(1.0, 8.0), noise=np.zeros(5),
                          order=2, horizon=5)
        design, target = build_regressors(traj)
        np.testing.assert_array_equal(design, [[4.0, 3.0], [5.0, 4.0], [6.0, 5.0]])
        np.testing.assert_array_equal(target, [5.0, 6.0, 7.0])

    def test_noise_free_targets_follow_regressors(self):
        traj = noise_free_trajectory([0.5], np.array([1.0]), 10)
        design, target = build_regressors(traj)
        np.testing.assert_allclose(target, 0.5 * design[:, 0], rtol=1e-15)

    @pytest.mark.parametrize("horizon", [5, 17, 100])
    def test_row_count(self, ar2, horizon):
        traj = simulate_whole_horizon(ar2, horizon, 3)
        design, target = build_regressors(traj)
        assert design.shape == (horizon - 2, 2)
        assert target.shape == (horizon - 2,)

    def test_normal_matrix_recompute(self, ar2):
        # Y^T Y from the design against the sum of outer products of the lag
        # windows Y_n, ..., Y_{N-1}.
        traj = simulate_whole_horizon(ar2, 300, 4)
        design, _ = build_regressors(traj)
        oracle = sum(np.outer(lag_window(traj, t), lag_window(traj, t)) for t in range(2, 300))
        np.testing.assert_allclose(design.T @ design, oracle, rtol=1e-12)

    def test_true_parameter_residuals_are_the_innovations(self, ar2):
        traj = simulate_whole_horizon(ar2, 500, 9)
        design, target = build_regressors(traj)
        residuals = target - design @ ar2.coeffs
        np.testing.assert_allclose(residuals, traj.noise[2:], atol=1e-10)
        assert np.var(residuals) == pytest.approx(1.0, rel=0.2)


class TestOlsFit:
    def test_noise_free_exact_recovery(self):
        traj = noise_free_trajectory([0.5], np.array([1.0]), 20)
        est = ols_fit(*build_regressors(traj))
        assert est[0] == pytest.approx(0.5, abs=1e-12)

    def test_second_order_consistency_at_scale(self, ar2):
        traj = simulate_whole_horizon(ar2, 100_000, 2718)
        est = ols_fit(*build_regressors(traj))
        # Classical root-N consistency puts the error around 0.005 per
        # coordinate at this horizon.
        assert np.linalg.norm(est - ar2.coeffs) < 0.02

    def test_matches_normal_equation_oracle(self, ar2):
        traj = simulate_whole_horizon(ar2, 5000, 12)
        design, target = build_regressors(traj)
        oracle = np.linalg.solve(design.T @ design, design.T @ target)
        np.testing.assert_allclose(ols_fit(design, target), oracle, rtol=1e-8)

    def test_duplicate_data_invariance(self, ar1):
        traj = simulate_whole_horizon(ar1, 400, 5)
        design, target = build_regressors(traj)
        doubled = ols_fit(np.vstack([design, design]), np.concatenate([target, target]))
        np.testing.assert_allclose(doubled, ols_fit(design, target), atol=1e-12)

    def test_scale_invariance(self, ar2):
        # Multiplying every sample by c leaves the estimate unchanged:
        # the statistic is unit free.
        traj = simulate_whole_horizon(ar2, 1000, 77)
        design, target = build_regressors(traj)
        scaled = ols_fit(13.7 * design, 13.7 * target)
        np.testing.assert_allclose(scaled, ols_fit(design, target), atol=1e-10)
