import numpy as np
import pytest

from arcert import (
    RegressorSet,
    Trajectory,
    ar_recursion,
    build_regressors,
    ols_fit,
    simulate_stationary,
)


def noise_free_trajectory(coeffs, pre, horizon):
    noise = np.zeros(horizon)
    y = ar_recursion(coeffs, pre, noise)
    return Trajectory(samples=np.concatenate([pre, y]), noise=noise,
                      order=len(coeffs), horizon=horizon, seed=0)


class TestBuildRegressors:
    def test_hand_enumerated_alignment(self):
        # samples = (y_0, y_1, y_2, y_3) = (1, 2, 3, 4) with order 1, N = 3:
        # regressor rows are (y_1, y_2) = (2, 3), targets (y_2, y_3) = (3, 4).
        traj = Trajectory(samples=[1.0, 2.0, 3.0, 4.0], noise=np.zeros(3),
                          order=1, horizon=3, seed=0)
        reg = build_regressors(traj)
        np.testing.assert_array_equal(reg.design, [[2.0], [3.0]])
        np.testing.assert_array_equal(reg.target, [3.0, 4.0])

    def test_hand_enumerated_order_two(self):
        # samples = (y_-1, y_0, y_1, ..., y_4); first row is Y_2 = (y_2, y_1).
        traj = Trajectory(samples=np.arange(1.0, 8.0), noise=np.zeros(5),
                          order=2, horizon=5, seed=0)
        reg = build_regressors(traj)
        np.testing.assert_array_equal(reg.design, [[4.0, 3.0], [5.0, 4.0], [6.0, 5.0]])
        np.testing.assert_array_equal(reg.target, [5.0, 6.0, 7.0])

    def test_noise_free_targets_follow_regressors(self):
        traj = noise_free_trajectory([0.5], np.array([1.0]), 10)
        reg = build_regressors(traj)
        np.testing.assert_allclose(reg.target, 0.5 * reg.design[:, 0], rtol=1e-15)

    @pytest.mark.parametrize("horizon", [5, 17, 100])
    def test_row_count(self, ar2, horizon):
        traj = simulate_stationary(ar2, horizon, 3)
        reg = build_regressors(traj)
        assert reg.rows == horizon - 2

    def test_normal_matrix_recompute(self, ar2):
        traj = simulate_stationary(ar2, 300, 4)
        reg = build_regressors(traj)
        oracle = np.einsum("ij,ik->jk", reg.design, reg.design)
        np.testing.assert_allclose(reg.normal_matrix, oracle, rtol=1e-12)

    def test_true_parameter_residuals_are_the_innovations(self, ar2):
        traj = simulate_stationary(ar2, 500, 9)
        reg = build_regressors(traj)
        residuals = reg.target - reg.design @ ar2.coeffs
        np.testing.assert_allclose(residuals, traj.noise[2:], atol=1e-10)
        assert np.var(residuals) == pytest.approx(1.0, rel=0.2)


class TestOlsFit:
    def test_noise_free_exact_recovery(self):
        traj = noise_free_trajectory([0.5], np.array([1.0]), 20)
        est = ols_fit(build_regressors(traj))
        assert est[0] == pytest.approx(0.5, abs=1e-12)

    def test_second_order_consistency_at_scale(self, ar2):
        traj = simulate_stationary(ar2, 100_000, 2718)
        est = ols_fit(build_regressors(traj))
        # Classical root-N consistency puts the error around 0.005 per
        # coordinate at this horizon.
        assert np.linalg.norm(est - ar2.coeffs) < 0.02

    def test_matches_normal_equation_oracle(self, ar2):
        traj = simulate_stationary(ar2, 5000, 12)
        reg = build_regressors(traj)
        oracle = np.linalg.solve(reg.normal_matrix, reg.design.T @ reg.target)
        np.testing.assert_allclose(ols_fit(reg), oracle, rtol=1e-8)

    def test_duplicate_data_invariance(self, ar1):
        traj = simulate_stationary(ar1, 400, 5)
        reg = build_regressors(traj)
        doubled = RegressorSet(
            design=np.vstack([reg.design, reg.design]),
            target=np.concatenate([reg.target, reg.target]),
            normal_matrix=2 * reg.normal_matrix,
        )
        np.testing.assert_allclose(ols_fit(doubled), ols_fit(reg), atol=1e-12)

    def test_scale_invariance(self, ar2):
        # Multiplying every sample by c leaves the estimate unchanged:
        # the statistic is unit free.
        traj = simulate_stationary(ar2, 1000, 77)
        reg = build_regressors(traj)
        scaled = RegressorSet(design=13.7 * reg.design, target=13.7 * reg.target,
                              normal_matrix=13.7 ** 2 * reg.normal_matrix)
        np.testing.assert_allclose(ols_fit(scaled), ols_fit(reg), atol=1e-10)
