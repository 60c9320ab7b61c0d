import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcert import (
    ArProcess,
    BoundInputs,
    StabilityError,
    build_companion,
    characteristic_roots,
    covariance_certificate,
    max_feasible_epsilon,
    peak_transfer_gain,
    simulate_stationary,
    stationary_stats,
)
from arcert.linalg import solve_companion_lyapunov
from arcert.process import MAX_ORDER, check_schur_stable
from conftest import CLUSTERED_POLES_AR8, stable_ar_coeffs, truncated_lyapunov_series
from reference import (
    autocovariance_sequence,
    kronecker_lyapunov,
    lyapunov_mpmath,
    toeplitz_covariance,
)


def dense_grid_gain_oracle(coeffs, points=200_001, omega=None):
    """Brute-force oracle: max of 1/|p(e^{jw})|^2 over a very dense grid
    (uniform on [0, pi] unless ``omega`` is given)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if omega is None:
        omega = np.linspace(0.0, np.pi, points)
    k = np.arange(1, c.size + 1)
    kw = np.multiply.outer(omega, k)
    re = 1.0 - np.cos(kw) @ c
    im = np.sin(kw) @ c
    return float(1.0 / np.min(re * re + im * im))


class TestPeakGain:
    def test_first_order_positive(self):
        # Analytic: |e^{jw} - 0.5|^2 minimised at w = 0, value 0.25.
        gain = peak_transfer_gain(ArProcess(coeffs=[0.5]))
        assert gain == pytest.approx(4.0, rel=1e-10)
        assert gain == pytest.approx(dense_grid_gain_oracle([0.5]), rel=1e-8)

    def test_first_order_negative(self):
        # Mirror case: minimum at w = pi.
        assert peak_transfer_gain(ArProcess(coeffs=[-0.5])) == pytest.approx(4.0, rel=1e-10)

    def test_white_noise(self):
        assert peak_transfer_gain(ArProcess(coeffs=[0.0])) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("coeffs", [[0.3, 0.4], [0.9], [-0.2, 0.5], [0.5, -0.7, 0.2]])
    def test_matches_dense_grid_oracle(self, coeffs):
        assert peak_transfer_gain(ArProcess(coeffs=coeffs)) == pytest.approx(
            dense_grid_gain_oracle(coeffs), rel=1e-8
        )

    def test_narrow_peak_between_grid_points(self):
        # Two sharp resonances: poles 0.99999 e^{+-j(w_700 + h/2)}, midway
        # between points of a 4096-point grid on [0, pi], and
        # 0.99997 e^{+-j w_2600}.  A grid search followed by golden-section
        # refinement inside the grid's best cell lands in the wrong basin
        # here and returns 5.18e7, 28x below the true peak.
        h = math.pi / 4095
        angles = (700 * h + h / 2, 2600 * h)
        poles = [r * np.exp(s * 1j * w) for r, w in zip((0.99999, 0.99997), angles)
                 for s in (1, -1)]
        coeffs = -np.real(np.poly(poles))[1:]
        # Dense grid with spacing 1e-9 around each resonance.
        omega = np.concatenate([w + np.linspace(-2e-4, 2e-4, 400_001) for w in angles])
        oracle = dense_grid_gain_oracle(coeffs, omega=omega)
        gain = peak_transfer_gain(ArProcess(coeffs=coeffs))
        assert gain == pytest.approx(1.4781e9, rel=1e-4)
        assert oracle * (1.0 - 1e-9) <= gain <= oracle * (1.0 + 1e-6)

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.floats(0.9, 0.999), st.floats(0.0, math.pi)),
                 min_size=1, max_size=3),
        st.lists(st.floats(-0.999, 0.999), max_size=2),
    )
    # A near-zero c_n: roots of the untrimmed degree-2n critical-point
    # polynomial in z = e^{jw} give a gain of 1.33 here instead of 96.3.
    @example(pairs=[(0.9375, 1.0)], real_poles=[1.967377790948867e-256])
    def test_matches_dense_grid_near_unit_circle(self, pairs, real_poles):
        # Conjugate pole pairs close to the unit circle make narrow spectral
        # peaks; the oracle grid is dense within a few peak widths of every
        # pole angle and uniform elsewhere.
        poles = [r * np.exp(s * 1j * w) for r, w in pairs for s in (1, -1)]
        poles += real_poles
        coeffs = -np.real(np.poly(poles))[1:]
        assume(check_schur_stable(coeffs))
        omega = np.concatenate([np.linspace(0.0, math.pi, 20_001)] + [
            np.clip(w + 10.0 * (1.0 - r) * np.linspace(-1.0, 1.0, 4001), 0.0, math.pi)
            for r, w in pairs
        ])
        oracle = dense_grid_gain_oracle(coeffs, omega=omega)
        # Above a gain of about 1e8 the rounding error of |p|^2 itself, shared
        # by the oracle, exceeds the 1e-9 tolerance below.
        assume(oracle <= 1e8)
        gain = peak_transfer_gain(ArProcess(coeffs=coeffs))
        # Never below a value the transfer function actually attains, and
        # within the oracle's own grid error above it.
        assert oracle * (1.0 - 1e-9) <= gain <= oracle * (1.0 + 1e-3)

    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], [-0.2, 0.5]])
    def test_crude_lower_bound(self, coeffs):
        floor = 1.0 / (1.0 + np.abs(coeffs).sum()) ** 2
        assert peak_transfer_gain(ArProcess(coeffs=coeffs)) >= floor

    def test_unstable_rejected(self):
        # The peak gain takes an ArProcess, whose construction rejects
        # unstable coefficients: no unbounded peak reaches it.
        with pytest.raises(StabilityError):
            peak_transfer_gain(ArProcess(coeffs=[1.5]))


class TestStationaryStats:
    def test_first_order_output_variance(self, ar1_stats):
        assert ar1_stats.output_variance == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert ar1_stats.peak_gain == pytest.approx(4.0, rel=1e-10)

    def test_white_noise_state_covariance_is_identity(self):
        # Nilpotent companion: the series sum terminates after n+1 shifts.
        process = ArProcess(coeffs=[0.0, 0.0], noise_variance=2.5)
        v = 2.5 * solve_companion_lyapunov(process.coeffs)[0]
        np.testing.assert_allclose(v, 2.5 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], [0.2, -0.3, 0.1]])
    def test_lyapunov_residuals(self, coeffs):
        process = ArProcess(coeffs=coeffs, noise_variance=1.7)
        a = build_companion(process)
        v, g = solve_companion_lyapunov(process.coeffs)
        v = 1.7 * v
        e1 = np.eye(a.shape[0])[0]
        v_res = np.linalg.norm(v - a @ v @ a.T - 1.7 * np.outer(e1, e1))
        g_res = np.linalg.norm(g - a @ g @ a.T - np.eye(a.shape[0]))
        assert v_res <= 1e-10 * np.linalg.norm(v)
        assert g_res <= 1e-10 * np.linalg.norm(g)

    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], [0.9]])
    def test_gramian_dominates_identity(self, coeffs):
        process = ArProcess(coeffs=coeffs)
        stats = stationary_stats(build_companion(process), 1.0)
        assert np.linalg.eigvalsh(stats.gramian_block)[0] >= 1.0 - 1e-10

    def test_output_variance_is_corner_entry(self, ar2, ar2_stats):
        # The statistics are the leading blocks of the one solve, bit for bit.
        v, g = solve_companion_lyapunov(ar2.coeffs)
        assert ar2_stats.output_variance == v[0, 0]
        np.testing.assert_array_equal(ar2_stats.state_covariance_block, v[:2, :2])
        np.testing.assert_array_equal(ar2_stats.gramian_block, g[:2, :2])

    def test_clustered_pole_process_solves(self):
        # Poles of modulus 0.95, 0.90, 0.89, 0.82 at nearly the same angle: a
        # strongly non-normal companion on which a squared Smith iteration
        # misses its residual tolerance (5e-8).
        process = ArProcess(coeffs=CLUSTERED_POLES_AR8)
        a = build_companion(process)
        v, g = solve_companion_lyapunov(process.coeffs)
        e1 = np.eye(a.shape[0])[0]
        for x, q in ((v, np.outer(e1, e1)), (g, np.eye(a.shape[0]))):
            assert np.linalg.norm(x - a @ x @ a.T - q) <= 1e-13 * np.linalg.norm(x)
            # The series sums positive terms and is within 6e-12 of a 40-digit
            # solve here.  A direct Kronecker solve is backward stable only,
            # so its forward error scales with ||(I - A (x) A)^{-1}|| (4.2e-6
            # here); TestCompanionSolve pins the structured solve to 1e-9.
            oracle = truncated_lyapunov_series(a, q, 1000)
            assert np.abs(x - oracle).max() <= 1e-5 * np.abs(oracle).max()


def max_relative_error(x, exact):
    return float(np.abs(x - exact).max() / np.abs(exact).max())


class TestCompanionSolve:
    """V and G from the one Yule-Walker solve against a 50-digit solve of the
    Lyapunov equations, and against the Kronecker solve's error."""

    @staticmethod
    def errors(coeffs):
        """(structured, Kronecker) max-entry relative errors of V and of G."""
        a = build_companion(ArProcess(coeffs=coeffs))
        qs = (np.diag(np.r_[1.0, np.zeros(len(coeffs))]), np.eye(a.shape[0]))
        exact = lyapunov_mpmath(a, qs)
        structured = solve_companion_lyapunov(coeffs)
        kronecker = [kronecker_lyapunov(a, q) for q in qs]
        return [(max_relative_error(x, e), max_relative_error(k, e))
                for x, k, e in zip(structured, kronecker, exact)]

    @staticmethod
    def assert_no_worse(errors):
        # Half a unit in the last place of the largest entry is correct
        # rounding; no float64 result can do better, whatever the Kronecker
        # solve happens to round to.
        for structured, kronecker in errors:
            assert structured <= max(kronecker, 2.0 ** -53)

    @settings(max_examples=15)
    @given(stable_ar_coeffs(max_modulus=0.99))
    def test_no_less_accurate_than_kronecker(self, coeffs):
        self.assert_no_worse(self.errors(coeffs))

    @pytest.mark.parametrize("coeffs", [[0.95], [1.6, -0.9], CLUSTERED_POLES_AR8])
    def test_named_processes(self, coeffs):
        errors = self.errors(coeffs)
        self.assert_no_worse(errors)
        if coeffs == CLUSTERED_POLES_AR8:
            # Refinement in extended precision: 1.7e-10 (V) and 3.8e-10 (G),
            # where the Kronecker solve is 4.2e-6 off.
            assert all(structured <= 1e-9 for structured, _ in errors)
            assert all(kronecker > 1e-6 for _, kronecker in errors)

    def test_rejects_non_companion(self):
        a = np.array([[0.5, 0.0], [1.0, 0.1]])
        with pytest.raises(ValueError, match="companion matrix"):
            stationary_stats(a, 1.0)
        with pytest.raises(ValueError, match="square"):
            stationary_stats(np.zeros((2, 3)), 1.0)
        # A 1 x 1 matrix has no coefficient row and no shift.
        with pytest.raises(ValueError, match="companion matrix"):
            stationary_stats(np.array([[0.5]]), 1.0)

    @pytest.mark.parametrize("entry, value", [
        ((0, 2), 0.1), ((1, 2), 0.1), ((2, 2), 0.1),  # the zero last column
        ((1, 0), 0.5), ((2, 1), 0.0),                  # each shift entry
        ((2, 0), 0.1),                                 # off the shift
        ((1, 0), np.nan),                              # NaN in the shift
    ])
    def test_rejects_perturbed_companion(self, ar2, entry, value):
        a = np.array(build_companion(ar2))
        a[entry] = value
        with pytest.raises(ValueError, match="companion matrix"):
            stationary_stats(a, 1.0)

    def test_negative_zero_pattern_accepted(self, ar2, ar2_stats):
        a = np.array(build_companion(ar2))
        a[a == 0.0] = -0.0
        stats = stationary_stats(a, ar2.noise_variance)
        np.testing.assert_array_equal(stats.coeffs, ar2.coeffs)
        np.testing.assert_array_equal(stats.state_covariance_block,
                                      ar2_stats.state_covariance_block)
        np.testing.assert_array_equal(stats.gramian_block, ar2_stats.gramian_block)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.inf, np.nan])
    def test_bad_noise_variance_named(self, ar2, sigma2):
        with pytest.raises(ValueError, match="noise_variance"):
            stationary_stats(build_companion(ar2), sigma2)

    def test_order_above_max_rejected(self):
        # The zero-coefficient companion of order MAX_ORDER + 1.
        with pytest.raises(ValueError, match="maximum order"):
            stationary_stats(np.eye(MAX_ORDER + 2, k=-1), 1.0)

    def test_unstable_companion_raises_stability_error(self):
        # build_companion takes only stable processes, so a hand-built
        # companion; the ArProcess it is read into rejects it before the solve.
        with pytest.raises(StabilityError):
            stationary_stats(np.array([[1.5, 0.0], [1.0, 0.0]]), 1.0)

    def test_whitened_spectrum_decomposed_once(self, ar2_stats):
        mu, u, w = ar2_stats.whitened_spectrum
        assert ar2_stats.whitened_spectrum[0] is mu
        np.testing.assert_allclose(w @ w.T, ar2_stats.gramian_block, rtol=1e-14)
        whitened = np.linalg.solve(w, np.linalg.solve(w, ar2_stats.state_covariance_block).T)
        np.testing.assert_allclose(u @ np.diag(mu) @ u.T, whitened, rtol=1e-12)
        with pytest.raises(ValueError):
            mu[0] = 0.0


class TestAutocovariance:
    def test_first_order_closed_form(self, ar1):
        gamma = autocovariance_sequence(ar1, 10)
        expected = (4.0 / 3.0) * 0.5 ** np.arange(11)
        np.testing.assert_allclose(gamma, expected, rtol=1e-10)

    def test_lag_zero_is_output_variance(self, ar2, ar2_stats):
        gamma = autocovariance_sequence(ar2, 0)
        assert gamma[0] == pytest.approx(ar2_stats.output_variance, rel=1e-12)

    def test_white_noise_vanishes_beyond_lag_zero(self):
        process = ArProcess(coeffs=[0.0, 0.0], noise_variance=3.0)
        gamma = autocovariance_sequence(process, 5)
        assert gamma[0] == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(gamma[1:], 0.0, atol=1e-12)

    def test_matches_empirical_long_run(self, ar2):
        traj = simulate_stationary(ar2, 400_000, 31)
        y = traj.samples[traj.order :]
        gamma = autocovariance_sequence(ar2, 5)
        for lag in range(6):
            prods = y[lag:] * y[: len(y) - lag]
            blocks = prods[: (len(prods) // 100) * 100].reshape(100, -1).mean(axis=1)
            stderr = blocks.std(ddof=1) / np.sqrt(len(blocks))
            assert abs(prods.mean() - gamma[lag]) <= 3 * stderr


class TestToeplitzCovariance:
    @pytest.mark.parametrize("coeffs", [[0.5], [0.3, 0.4], [0.9], [-0.6]])
    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_eigenvalues_below_spectral_peak(self, coeffs, dim):
        sigma2 = 1.3
        process = ArProcess(coeffs=coeffs, noise_variance=sigma2)
        cov = toeplitz_covariance(process, dim)
        peak = sigma2 * peak_transfer_gain(process)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs[-1] <= peak * (1.0 + 1e-10)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_structure(self, ar1):
        m = toeplitz_covariance(ar1, 6)
        np.testing.assert_allclose(m, m.T)
        for k in range(6):
            diag = np.diagonal(m, offset=k)
            np.testing.assert_allclose(diag, diag[0])
        assert m.shape == (6, 6)
        assert m[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


#: Processes whose deterministic layer is pinned bit for bit: AR(1), AR(2),
#: AR(6), a pole near the unit circle, a sharp resonance and clustered poles.
PINNED_COEFFS = [[0.5], [0.3, 0.4], [0.4, -0.2, 0.1, 0.05, -0.1, 0.1], [0.95], [1.6, -0.9],
                 CLUSTERED_POLES_AR8]


def deterministic_layer(coeffs, sigma2) -> dict:
    """Every deterministic input to a certificate, plus delta and log delta at
    half the feasibility ceiling and N = 5000, for noise variance sigma2."""
    process = ArProcess(coeffs=coeffs, noise_variance=sigma2)
    a = build_companion(process)
    stats = stationary_stats(a, process.noise_variance)
    state_covariance, gramian = solve_companion_lyapunov(process.coeffs)
    epsilon = 0.5 * max_feasible_epsilon(process, stats)
    cert = covariance_certificate(BoundInputs(process=process, stats=stats, epsilon=epsilon,
                                              horizon=5000))
    return {"state_covariance": state_covariance, "gramian": gramian,
            "peak_gain": stats.peak_gain,
            "roots": np.sort_complex(characteristic_roots(coeffs)),
            "delta": cert.delta, "log_delta": cert.log_delta}


# SHA-256 of each quantity's float64 bytes over PINNED_COEFFS in order.  A
# change that moves any of them in the last bit moves certificates and
# campaign verdicts with it, so it has to say so.  Every quantity is computed
# per unit innovation variance, so one digest holds at every noise variance.
@pytest.mark.parametrize("sigma2", [1.0, 1.7])
@pytest.mark.parametrize("quantity, digest", [
    ("state_covariance", "c1edbc109eaf5a8e367ed25032528ed6ea79f277bdac4376d47e2210c729792b"),
    ("gramian", "885201f7e7e4400392c0fd14c64cf44035102665cc3dc39ecca2aa4121986610"),
    ("peak_gain", "c46dbd7c9fcdb092cb688597b64170a89522f61deb624e6572b9e9aa638bb3c0"),
    ("roots", "8616f02835376d1a63341654031f31cd74c718371ef5a9159b22958a18caf427"),
    ("delta", "cac4cf017abd3048356a449a1f3386e2251610b184533b1d0810681b7a7ac056"),
    ("log_delta", "316eaceece7b91611695b0ed8bc747b34ccebbb8dcbcbcc6ce65b85f4ba66ee6"),
])
def test_deterministic_layer_bytes_pinned(quantity, digest, sigma2):
    h = hashlib.sha256()
    for coeffs in PINNED_COEFFS:
        h.update(np.asarray(deterministic_layer(coeffs, sigma2)[quantity]).tobytes())
    assert h.hexdigest() == digest
