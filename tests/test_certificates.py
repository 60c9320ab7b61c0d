import math
import re
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arcert.certificates as certificates_module
import arcert.montecarlo as montecarlo_module
from arcert import (
    ArProcess,
    BoundInputs,
    CampaignConfig,
    ConfigError,
    CovarianceCertificate,
    InfeasibleCertificateError,
    build_companion,
    covariance_certificate,
    deviation_radius,
    max_feasible_epsilon,
    rate_analysis,
    run_campaign,
    stationary_stats,
)
from arcert.certificates import (
    CONDITION_WARN_LIMIT,
    _boundary_exponent,
    _cross_term_exponents,
    _failure_bound,
    _noise_energy_exponent,
    event_threshold,
    regressor_energy_scale,
)
from conftest import CLUSTERED_POLES_AR8, stable_ar_coeffs, truncated_lyapunov_series
from reference import deviation_radius_oracle, rate_sweep_oracle
from test_stationary import PINNED_COEFFS


def make_inputs(process, stats, epsilon, horizon):
    return BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=horizon)


#: AR(6) with poles 0.9375, 0.75 and 0.5, each double (l1 norm 24.9, outside
#: the benchmark's cap of 5): cond(G_blk) is 1e9, while mu_max / (mu_min -
#: eps) at half the ceiling is only 8.8.
DOUBLED_POLES_AR6 = [float(-c) for c in np.real(np.poly([0.9375, 0.9375, 0.75, 0.75,
                                                          0.5, 0.5]))[1:]]


def failure_terms(inputs):
    """(boundary, noise-energy, cross-martingale, regressor-energy) terms."""
    return covariance_certificate(inputs).failure_terms


def boundary_term(inputs):
    return failure_terms(inputs)[0]


def noise_energy_term(inputs):
    return failure_terms(inputs)[1]


def cross_term(inputs):
    """Both terms of the cross-term event's bound."""
    terms = failure_terms(inputs)
    return terms[2] + terms[3]


class TestBoundInputs:
    def test_validation(self, ar1, ar1_stats):
        with pytest.raises(ValueError):
            make_inputs(ar1, ar1_stats, -0.1, 100)
        with pytest.raises(ValueError):
            make_inputs(ar1, ar1_stats, 0.1, 1)
        with pytest.raises(ValueError):
            make_inputs(ar1, ar1_stats, np.nan, 100)

    # As epsilon -> 0, delta tends to 2 sqrt(2) + 6 = 8.83, so no certificate
    # exists there; at 1e-320 E{y^2} / epsilon overflows.
    @pytest.mark.parametrize("epsilon", [0.0, -0.0, -1.0, np.nan, np.inf, 1e-320],
                             ids=["zero", "negative-zero", "negative", "nan", "inf",
                                  "energy-scale-overflows"])
    def test_epsilon_outside_domain_rejected(self, ar1, ar1_stats, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            make_inputs(ar1, ar1_stats, epsilon, 100)

    @pytest.mark.parametrize("coeffs", [[0.1]], ids=["other-coeffs"])
    def test_stats_of_another_process_rejected(self, coeffs):
        # [0.9] with the stats of [0.1] used to certify delta = 0.34 at half
        # the ceiling and N = 5000, where its own stats give 1.86.
        process = ArProcess(coeffs=[0.9], noise_variance=1.0)
        stats = stationary_stats(build_companion(ArProcess(coeffs=coeffs)), 1.0)
        with pytest.raises(ValueError, match="another process"):
            make_inputs(process, stats, 0.1, 5000)
        with pytest.raises(ValueError, match="another process"):
            max_feasible_epsilon(process, stats)
        with pytest.raises(ValueError, match="another process"):
            rate_analysis(process, stats, [1000, 2000], [1.0])

    def test_stats_of_an_equal_process_accepted(self):
        # The benchmark's pair: stats solved from an equal but separately
        # constructed process.
        process = ArProcess(coeffs=[0.3, 0.4], noise_variance=2.0)
        stats = stationary_stats(build_companion(ArProcess(coeffs=[0.3, 0.4],
                                                           noise_variance=2.0)), 2.0)
        ceiling = max_feasible_epsilon(process, stats)
        assert make_inputs(process, stats, 0.5 * ceiling, 5000).stats is stats

    @pytest.mark.parametrize("coeffs", [PINNED_COEFFS[0], PINNED_COEFFS[1], PINNED_COEFFS[2],
                                        CLUSTERED_POLES_AR8], ids=["ar1", "ar2", "ar6", "ar8"])
    def test_stats_at_any_noise_variance_accepted(self, coeffs):
        # Statistics are keyed by the coefficients: solved at one noise
        # variance, they certify an equal-coefficient process at any other
        # with the bits of its own statistics, and still refuse other
        # coefficients.
        s2_grid = [1e-300, 0.5, 1.0, 2.0, 7.3e150]

        def solved(sigma2):
            return stationary_stats(build_companion(ArProcess(coeffs=coeffs,
                                                              noise_variance=sigma2)), sigma2)

        def bits(process, stats):
            ceiling = max_feasible_epsilon(process, stats)
            inputs = make_inputs(process, stats, 0.5 * ceiling, 5000)
            cert = covariance_certificate(inputs)
            radii = [deviation_radius(inputs, np.eye(process.order)[k]).radius
                     for k in range(process.order)]
            analysis = rate_analysis(process, stats, [100, 1000, 10 ** 4, 10 ** 5],
                                     np.eye(process.order)[0])
            return (repr((cert.delta, cert.log_delta, cert.failure_terms, ceiling, radii,
                          analysis.points, analysis.slope)),
                    cert.lower.tobytes(), cert.upper.tobytes())

        stats_at = {sigma2: solved(sigma2) for sigma2 in s2_grid}
        other = stationary_stats(build_companion(ArProcess(coeffs=[0.1] * len(coeffs))), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # AR(8) radius conditioning
            for sigma2 in s2_grid:
                process = ArProcess(coeffs=coeffs, noise_variance=sigma2)
                own = bits(process, stats_at[sigma2])
                for solved_at in s2_grid:
                    if solved_at != sigma2:
                        assert bits(process, stats_at[solved_at]) == own
                with pytest.raises(ValueError, match="another process"):
                    make_inputs(process, other, 0.1, 5000)

    @pytest.mark.parametrize("horizon", [5000.9, 5000.0, True, "5000"])
    def test_horizon_must_be_an_integer(self, ar1, ar1_stats, horizon):
        with pytest.raises(ValueError, match="horizon: must be an integer"):
            make_inputs(ar1, ar1_stats, 0.1, horizon)

    def test_numpy_integer_horizon_accepted(self, ar1, ar1_stats):
        inputs = make_inputs(ar1, ar1_stats, 0.1, np.int64(5000))
        assert inputs.horizon == 5000 and type(inputs.horizon) is int


class TestBoundaryFailureBound:
    def test_direct_formula_evaluation(self, ar1, ar1_stats):
        inputs = make_inputs(ar1, ar1_stats, 0.1, 101)
        # Independent re-implementation of the printed bound.
        expected = 2.0 * math.sqrt(2.0) * math.exp(
            -(101 - 1) * 1.0 * 0.1 / (24.0 * 1 * ar1_stats.output_variance)
        )
        assert boundary_term(inputs) == pytest.approx(expected, rel=1e-12)
        # With output variance 4/3 the exponent is exactly 10/32.
        assert boundary_term(inputs) == pytest.approx(
            2.0 * math.sqrt(2.0) * math.exp(-0.3125), rel=1e-10
        )

    def test_vanishing_exponent_limit(self, ar1, ar1_stats):
        # At epsilon = 1e-300 the exponent rounds away: the epsilon -> 0 limit.
        inputs = make_inputs(ar1, ar1_stats, 1e-300, 101)
        assert boundary_term(inputs) == 2.0 * math.sqrt(2.0)

    def test_doubling_rows_squares_the_exponential(self, ar1, ar1_stats):
        lead = 2.0 * math.sqrt(2.0)
        base = boundary_term(make_inputs(ar1, ar1_stats, 0.3, 101)) / lead
        doubled = boundary_term(make_inputs(ar1, ar1_stats, 0.3, 201)) / lead
        assert doubled == pytest.approx(base ** 2, rel=1e-12)


class TestNoiseEnergyFailureBound:
    def test_epsilon_zero(self, ar1, ar1_stats):
        # The epsilon -> 0 limit, at 1e-300 where the exponent rounds away.
        assert noise_energy_term(make_inputs(ar1, ar1_stats, 1e-300, 50)) == 2.0

    def test_direct_formula_evaluation(self, ar1, ar1_stats):
        inputs = make_inputs(ar1, ar1_stats, 3.0, 3)  # two effective rows
        expected = 2.0 * math.exp(-(2.0 - math.sqrt(3.0)))
        assert noise_energy_term(inputs) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-8, 1e-3, 0.5, 3.0])
    def test_exponent_matches_high_precision(self, ar1, ar1_stats, eps):
        # (N-n)/2 (1 + eps/3 - sqrt(1 + 2 eps/3)) at 50 digits; the double
        # evaluation must not cancel, so it stays within a few ulp.
        inputs = make_inputs(ar1, ar1_stats, eps, 5000)
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            exact = float(mpmath.mpf(inputs.effective_samples) / 2
                          * (1 + e / 3 - mpmath.sqrt(1 + 2 * e / 3)))
        assert abs(_noise_energy_exponent(inputs) - exact) <= 4 * math.ulp(exact)

    def test_exponent_nonnegative_over_grid(self, ar1, ar1_stats):
        # 1 + eps/3 - sqrt(1 + 2 eps/3) >= 0, so the bound never exceeds 2.
        for eps in [1e-300, *np.linspace(0.0, 50.0, 200)[1:]]:
            assert noise_energy_term(make_inputs(ar1, ar1_stats, eps, 50)) <= 2.0 + 1e-15


class TestCrossTermFailureBound:
    def test_direct_formula_evaluation(self, ar1, ar1_stats):
        eps, horizon = 0.1, 101
        inputs = make_inputs(ar1, ar1_stats, eps, horizon)
        e_y2 = ar1_stats.output_variance
        gain = ar1_stats.peak_gain
        scale = (2 * horizon / 100) * (e_y2 / eps + 2 * gain * (1 + eps ** -0.5) / horizon ** 0.25)
        assert regressor_energy_scale(inputs) == pytest.approx(scale, rel=1e-12)
        expected = 2.0 * math.exp(-100 * eps / (72.0 * (0.5 + 1.0) ** 2 * scale)) \
            + 2.0 * math.exp(-eps * math.sqrt(horizon))
        assert cross_term(inputs) == pytest.approx(expected, rel=1e-12)

    def test_energy_term_vanishes_for_large_epsilon(self, ar1, ar1_stats):
        assert failure_terms(make_inputs(ar1, ar1_stats, 50.0, 101))[3] < 1e-200

    def test_energy_scale_decreasing_in_epsilon(self, ar2, ar2_stats):
        grid = np.linspace(0.05, 2.0, 40)
        values = [regressor_energy_scale(make_inputs(ar2, ar2_stats, e, 500)) for e in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_one_epsilon_split(ar2, ar2_stats, monkeypatch):
    # The campaign's threshold and the three exponents read one count of
    # component events, so changing it moves all four together.
    inputs = make_inputs(ar2, ar2_stats, 0.2, 3000)
    scale = regressor_energy_scale(inputs)
    threshold, boundary = event_threshold(inputs), _boundary_exponent(inputs)
    martingale = _cross_term_exponents(inputs, scale)[0]
    monkeypatch.setattr(certificates_module, "COMPONENT_EVENTS", 4)
    assert montecarlo_module.event_threshold(inputs) == pytest.approx(0.75 * threshold, rel=1e-15)
    assert _boundary_exponent(inputs) == pytest.approx(0.75 * boundary, rel=1e-15)
    a = 0.2 / 4
    assert _noise_energy_exponent(inputs) == pytest.approx(
        0.5 * 2998 * a * a / (1.0 + a + math.sqrt(1.0 + 2.0 * a)), rel=1e-15)
    assert _cross_term_exponents(inputs, scale)[0] == pytest.approx(
        9 / 16 * martingale, rel=1e-15)


class TestTotalFailureBound:
    def test_equals_sum_of_event_bounds(self, ar1, ar1_stats):
        inputs = make_inputs(ar1, ar1_stats, 0.2, 10_000)
        cert = covariance_certificate(inputs)
        parts = boundary_term(inputs) + noise_energy_term(inputs) + cross_term(inputs)
        assert cert.delta == pytest.approx(parts, rel=1e-15)

    def test_matches_independent_single_expression(self, ar2, ar2_stats):
        eps, horizon = 0.15, 5000
        n = 2
        rows = horizon - n
        e_y2 = ar2_stats.output_variance
        gain = ar2_stats.peak_gain
        norm_theta = float(np.linalg.norm(ar2.coeffs))
        beta = ((n + 1) * horizon / rows) * (
            e_y2 / (eps * 1.0) + 2 * gain * (1 + eps ** -0.5) / horizon ** 0.25
        )
        independent = 2.0 * (
            math.sqrt(2.0) * math.exp(-rows * 1.0 * eps / (24 * n * e_y2))
            + math.exp(-rows / 2.0 * (1 + eps / 3 - math.sqrt(1 + 2 * eps / 3)))
            + math.exp(-rows * eps / (72 * (norm_theta + 1) ** 2 * beta))
            + math.exp(-eps * math.sqrt(horizon))
        )
        cert = covariance_certificate(make_inputs(ar2, ar2_stats, eps, horizon))
        assert cert.delta == pytest.approx(independent, rel=1e-15)

    def test_bounded_by_worst_case(self, ar1, ar1_stats):
        # At epsilon = 1e-300 every exponent rounds away: delta is the worst case.
        worst = ((2.0 * math.sqrt(2.0) + 2.0) + 2.0) + 2.0
        deltas = [covariance_certificate(make_inputs(ar1, ar1_stats, eps, 50)).delta
                  for eps in [1e-300, 1e-8, 0.5, 3.0]]
        assert deltas[0] == worst and max(deltas) <= worst

    def test_decreasing_in_horizon(self, ar1, ar1_stats):
        values = [covariance_certificate(make_inputs(ar1, ar1_stats, 0.2, h)).delta
                  for h in [50, 100, 200, 800, 3200, 12800]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_log_total_consistent(self, ar1, ar1_stats):
        cert = covariance_certificate(make_inputs(ar1, ar1_stats, 0.3, 2000))
        assert cert.log_delta == pytest.approx(math.log(cert.delta), rel=1e-12)

    def test_log_total_survives_underflow(self, ar1, ar1_stats):
        cert = covariance_certificate(make_inputs(ar1, ar1_stats, 0.999, 10 ** 6))
        assert cert.delta == 0.0
        assert -1100 < cert.log_delta < -900

    @pytest.mark.parametrize("horizon", [50, 500, 5000])
    @pytest.mark.parametrize("coeffs", PINNED_COEFFS[:3], ids=["ar1", "ar2", "ar6"])
    def test_delta_is_the_left_fold(self, coeffs, horizon):
        # The same bits on every Python: builtin sum of floats is the left
        # fold before 3.12 and compensated from 3.12 on.
        process = ArProcess(coeffs=coeffs)
        stats = stationary_stats(build_companion(process), 1.0)
        inputs = make_inputs(process, stats, 0.5 * max_feasible_epsilon(process, stats), horizon)
        cert = covariance_certificate(inputs)
        t0, t1, t2, t3 = cert.failure_terms
        assert cert.delta.hex() == (((t0 + t1) + t2) + t3).hex()

    def test_independent_of_noise_variance(self):
        reference = None
        for sigma2 in [0.1, 1.0, 10.0]:
            process = ArProcess(coeffs=[0.3, 0.4], noise_variance=sigma2)
            stats = stationary_stats(build_companion(process), sigma2)
            cert = covariance_certificate(make_inputs(process, stats, 0.2, 3000))
            if reference is None:
                reference = cert.delta
            assert cert.delta == pytest.approx(reference, rel=1e-12)


class TestCovarianceCertificate:
    def test_epsilon_zero_collapses_sandwich(self, ar1, ar1_stats):
        # The epsilon -> 0 limit, at 1e-300 where eps G rounds away against V.
        cert = covariance_certificate(make_inputs(ar1, ar1_stats, 1e-300, 101))
        expected = 100 * ar1_stats.state_covariance_block
        np.testing.assert_array_equal(cert.lower, expected)
        np.testing.assert_array_equal(cert.upper, expected)

    def test_spread_identity(self, ar2, ar2_stats):
        eps, horizon = 0.2, 500
        cert = covariance_certificate(make_inputs(ar2, ar2_stats, eps, horizon))
        spread = 2 * (horizon - 2) * eps * 1.0 * ar2_stats.gramian_block
        np.testing.assert_allclose(cert.upper - cert.lower, spread, rtol=1e-12)
        assert np.linalg.eigvalsh(cert.upper - cert.lower)[0] >= 0.0

    def test_feasibility_threshold(self, ar2, ar2_stats):
        ceiling = max_feasible_epsilon(ar2, ar2_stats)
        below = covariance_certificate(make_inputs(ar2, ar2_stats, 0.99 * ceiling, 500))
        above = covariance_certificate(make_inputs(ar2, ar2_stats, 1.01 * ceiling, 500))
        assert below.feasible
        assert not above.feasible

    def test_feasibility_boundary_tight(self, ar1, ar1_stats):
        # The sandwich feasibility boundary coincides with the ceiling to well
        # within the 1e-8 eigenvalue tolerance.
        ceiling = max_feasible_epsilon(ar1, ar1_stats)
        assert covariance_certificate(
            make_inputs(ar1, ar1_stats, ceiling * (1 - 1e-7), 100)).feasible
        assert not covariance_certificate(
            make_inputs(ar1, ar1_stats, ceiling * (1 + 1e-7), 100)).feasible


def bounds_and_inputs(process):
    """(repr of every bound at half the ceiling and N = 5000 and of a rate
    sweep, the bound inputs) for ``process``."""
    stats = stationary_stats(build_companion(process), process.noise_variance)
    ceiling = max_feasible_epsilon(process, stats)
    inputs = make_inputs(process, stats, 0.5 * ceiling, 5000)
    n = process.order
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the condition warning
        radii = [deviation_radius(inputs, w).radius for w in (np.eye(n)[0], np.full(n, n ** -0.5))]
        sweep = rate_analysis(process, stats, [10, 1000, 100_000, 10 ** 6], np.eye(n)[0])
    # delta, its terms and logarithm, and the energy scale, as the certificate reads them.
    bounds = (ceiling, _failure_bound(inputs), radii, sweep.points, sweep.slope)
    return repr(bounds), inputs


@pytest.mark.parametrize("sigma2", [5e-324, 1e-310, 1e-101, 1.7, 1e101, 1e300])
def test_bounds_have_the_same_bits_at_every_noise_variance(sigma2):
    # Every bound is computed per unit innovation variance, so it has the same
    # bits at every s2; s2 scales only the sandwich matrices.  At 1e300 the
    # clustered-pole sandwich (V near 1e8) is beyond double range, as
    # (N - n) s2 V itself is, and the certificate raises instead.
    for coeffs in PINNED_COEFFS:
        unit, _ = bounds_and_inputs(ArProcess(coeffs=coeffs))
        scaled, inputs = bounds_and_inputs(ArProcess(coeffs=coeffs, noise_variance=sigma2))
        assert scaled == unit
        stats = inputs.stats
        units = (5000 - len(coeffs)) * sigma2
        spread = inputs.epsilon * stats.gramian_block
        with np.errstate(over="ignore"):
            lower = units * (stats.state_covariance_block - spread)
            upper = units * (stats.state_covariance_block + spread)
        if np.isfinite([lower, upper]).all():
            cert = covariance_certificate(inputs)
            assert (cert.energy_scale, cert.failure_terms, cert.delta, cert.log_delta) \
                == _failure_bound(inputs)
            np.testing.assert_array_equal(cert.lower, lower)
            np.testing.assert_array_equal(cert.upper, upper)
        else:
            assert (sigma2, coeffs) == (1e300, CLUSTERED_POLES_AR8)
            with pytest.raises(ValueError, match="noise_variance .* and epsilon"):
                covariance_certificate(inputs)


@pytest.mark.parametrize("sigma2, epsilon", [(1e305, 0.5), (1.0, 1e308)],
                         ids=["noise-variance", "epsilon"])
def test_sandwich_overflow_raises(sigma2, epsilon):
    # (N - n) s2 (V -/+ eps G) beyond double range would be an infinite
    # sandwich flagged feasible; the certificate names both inputs instead,
    # and numpy's overflow warning does not escape.
    process = ArProcess(coeffs=[0.5], noise_variance=sigma2)
    stats = stationary_stats(build_companion(process), sigma2)
    inputs = make_inputs(process, stats, epsilon, 5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="noise_variance .* and epsilon"):
            covariance_certificate(inputs)


class TestMaxFeasibleEpsilon:
    def test_memoryless_scalar_case(self):
        # theta = 0: the companion is nilpotent, so the series oracles terminate.
        sigma2 = 2.0
        process = ArProcess(coeffs=[0.0], noise_variance=sigma2)
        a = build_companion(process)
        v_oracle = truncated_lyapunov_series(a, np.diag([sigma2, 0.0]), 5)
        g_oracle = truncated_lyapunov_series(a, np.eye(2), 5)
        expected = v_oracle[0, 0] / (sigma2 * g_oracle[0, 0])
        stats = stationary_stats(a, sigma2)
        assert max_feasible_epsilon(process, stats) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.0, rel=1e-12)

    def test_first_order_ratio_oracle(self, ar1, ar1_stats):
        g_oracle = truncated_lyapunov_series(build_companion(ar1), np.eye(2), 400)
        expected = ar1_stats.output_variance / g_oracle[0, 0]
        assert max_feasible_epsilon(ar1, ar1_stats) == pytest.approx(expected, rel=1e-10)

    def test_invariant_under_noise_scaling(self):
        values = []
        for sigma2 in [0.1, 1.0, 10.0]:
            process = ArProcess(coeffs=[0.3, 0.4], noise_variance=sigma2)
            stats = stationary_stats(build_companion(process), sigma2)
            values.append(max_feasible_epsilon(process, stats))
        np.testing.assert_allclose(values, values[0], rtol=1e-10)


def synthetic_certificate(lower, upper, delta):
    return CovarianceCertificate(
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        delta=delta,
        failure_terms=(delta, 0.0, 0.0, 0.0),
        energy_scale=1.0,
        log_delta=math.log(delta),
        feasible=True,
        epsilon=0.1,
        horizon=1000,
    )


class TestDeviationRadius:
    def test_direction_length_checked(self, ar1, ar1_stats):
        with pytest.raises(ValueError, match="direction must have length 1"):
            deviation_radius(make_inputs(ar1, ar1_stats, 0.2, 5000), [0.6, 0.8])

    def test_invariant_under_noise_scaling(self):
        # The leading sigma cancels against the sigma^2 inside the sandwich.
        radii = []
        for sigma2 in [0.25, 1.0, 4.0]:
            process = ArProcess(coeffs=[0.3, 0.4], noise_variance=sigma2)
            stats = stationary_stats(build_companion(process), sigma2)
            dev = deviation_radius(make_inputs(process, stats, 0.2, 5000), [1.0, 0.0])
            radii.append(dev.radius)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-10)

    def test_exchange_symmetric_certificate_gives_equal_radii(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((2, 2))
        lower = base @ base.T + 4 * np.eye(2)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        lower = 0.5 * (lower + flip @ lower @ flip)  # force exchange symmetry
        cert = synthetic_certificate(lower, 3 * lower, 0.05)
        r1 = deviation_radius_oracle(cert, [1.0, 0.0], 1.0).radius
        r2 = deviation_radius_oracle(cert, [0.0, 1.0], 1.0).radius
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_radius_shrinks_to_zero_at_det_term(self):
        lower = np.diag([2.0, 3.0])
        upper = np.diag([4.0, 6.0])
        log_det_term = 0.5 * (np.linalg.slogdet(upper + lower)[1]
                              - np.linalg.slogdet(lower)[1])
        radii = []
        for gap in [1e-2, 1e-4, 1e-6]:
            cert = synthetic_certificate(lower, upper, math.exp(log_det_term - gap))
            radii.append(deviation_radius_oracle(cert, [1.0, 0.0], 1.0).radius)
        assert radii[0] > radii[1] > radii[2]
        assert radii[2] == pytest.approx(2.0 * math.sqrt(1e-6 / 2.0), rel=1e-6)
        vacuous = deviation_radius_oracle(
            synthetic_certificate(lower, upper, math.exp(log_det_term + 0.1)), [1.0, 0.0], 1.0
        )
        assert vacuous.vacuous and vacuous.radius is None

    def test_monotone_decreasing_in_delta(self):
        lower = np.diag([2.0, 3.0])
        upper = np.diag([4.0, 6.0])
        radii = [deviation_radius_oracle(synthetic_certificate(lower, upper, d), [1.0, 0.0],
                                         1.0).radius
                 for d in [0.01, 0.05, 0.2]]
        assert radii[0] > radii[1] > radii[2]

    def test_monotone_in_weighted_norm(self):
        lower = np.diag([1.0, 9.0])  # e1 has the larger inverse-weighted norm
        cert = synthetic_certificate(lower, 2 * lower, 0.05)
        r1 = deviation_radius_oracle(cert, [1.0, 0.0], 1.0).radius
        r2 = deviation_radius_oracle(cert, [0.0, 1.0], 1.0).radius
        assert r1 == pytest.approx(3.0 * r2, rel=1e-10)

    def test_total_failure_is_twice_delta(self, ar1, ar1_stats):
        inputs = make_inputs(ar1, ar1_stats, 0.5, 5000)
        dev = deviation_radius(inputs, [1.0])
        assert dev.total_failure == 2.0 * covariance_certificate(inputs).delta

    def test_condition_warning(self, ar2, ar2_stats):
        ceiling = max_feasible_epsilon(ar2, ar2_stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deviation_radius(make_inputs(ar2, ar2_stats, 0.5 * ceiling, 5000), [1.0, 0.0])
        # A gap mu_min - eps s2 of 1e-14 mu_min puts mu_max / gap near 2e14.
        near = make_inputs(ar2, ar2_stats, ceiling * (1.0 - 1e-14), 5000)
        with pytest.warns(RuntimeWarning, match=re.escape(f"exceeds {CONDITION_WARN_LIMIT:.0e}")):
            deviation_radius(near, [1.0, 0.0])

    def test_condition_warning_sees_the_gramian(self, monkeypatch):
        # Both radii are about 1e-7 off the 50-digit one here; the whitened
        # spectrum alone (ratio 8.8) cannot show it, cond(G_blk) can.
        process = ArProcess(coeffs=DOUBLED_POLES_AR6)
        stats = stationary_stats(build_companion(process), 1.0)
        inputs = make_inputs(process, stats, 0.5 * max_feasible_epsilon(process, stats), 5000)
        w = np.full(6, 1.0 / math.sqrt(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deviation_radius(inputs, w)
        monkeypatch.setattr(certificates_module, "CONDITION_WARN_LIMIT", 1e9)
        with pytest.warns(RuntimeWarning, match=r"cond\(G_blk\) .* exceeds 1e\+09"):
            deviation_radius(inputs, w)

    @settings(max_examples=100)
    @given(stable_ar_coeffs(), st.sampled_from([1.0, 1.7]))
    def test_no_condition_warning_on_the_benchmark_pool(self, coeffs, sigma2):
        # The benchmark's certify (half the ceiling, N = 5000, e1 and
        # uniform) and rate-sweep (N = 1e3 .. 1e6) at the real limit.
        assume(np.abs(coeffs).sum() <= 5.0)
        process = ArProcess(coeffs=coeffs, noise_variance=sigma2)
        stats = stationary_stats(build_companion(process), sigma2)
        n = process.order
        inputs = make_inputs(process, stats, 0.5 * max_feasible_epsilon(process, stats), 5000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (np.eye(n)[0], np.full(n, 1.0 / math.sqrt(n))):
                deviation_radius(inputs, w)
            rate_analysis(process, stats, [1000, 10_000, 100_000, 1_000_000], np.eye(n)[0])

    def test_preconditions(self, ar1, ar1_stats):
        with pytest.raises(InfeasibleCertificateError):
            deviation_radius(make_inputs(ar1, ar1_stats, 5.0, 100), [1.0])
        with pytest.raises(ValueError):
            deviation_radius(make_inputs(ar1, ar1_stats, 0.5, 5000), [0.5])


class TestRateAnalysis:
    def test_slope_tracks_ceiling(self, ar1, ar1_stats):
        analysis = rate_analysis(ar1, ar1_stats, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], [1.0])
        ceiling = analysis.epsilon_ceiling
        assert ceiling == pytest.approx(1.0, rel=1e-10)
        assert abs(analysis.slope + ceiling) / ceiling <= 0.10

    def test_small_horizons_marked_infeasible(self, ar2, ar2_stats):
        # Ceiling is 0.5 for this process, so N = 3 gives epsilon <= 0.
        analysis = rate_analysis(ar2, ar2_stats, [3, 1000, 10_000], [1.0, 0.0])
        assert not analysis.points[0].feasible
        assert analysis.points[0].delta is None
        assert analysis.points[1].feasible and analysis.points[2].feasible
        assert analysis.slope is not None

    def test_single_point_has_no_fit(self, ar1, ar1_stats):
        analysis = rate_analysis(ar1, ar1_stats, [1000], [1.0])
        assert len(analysis.points) == 1
        assert analysis.slope is None

    def test_epsilon_rounding_to_the_ceiling_is_infeasible(self, ar1, ar1_stats):
        # At N = 1e40, ceiling - N^{-1/2} rounds to the ceiling, where the
        # whitened gap is 0: the point is infeasible, not an error.
        analysis = rate_analysis(ar1, ar1_stats, [1000, 10 ** 40], [1.0])
        point = analysis.points[1]
        assert point.epsilon == analysis.epsilon_ceiling
        assert not point.feasible and point.radius is None and point.log_delta is not None
        assert analysis.points[0].feasible and analysis.slope is None

    def test_direction_whitened_once_per_sweep(self, ar2, monkeypatch):
        stats = stationary_stats(build_companion(ar2), ar2.noise_variance)
        stats.whitened_spectrum  # decomposed before counting
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        counts = []
        for grid in ([1000], [1000, 10_000, 100_000, 1_000_000]):
            calls.clear()
            rate_analysis(ar2, stats, grid, [1.0, 0.0])
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_grid_must_increase(self, ar1, ar1_stats):
        with pytest.raises(ValueError):
            rate_analysis(ar1, ar1_stats, [100, 100], [1.0])

    def test_grid_must_be_nonempty(self, ar1, ar1_stats):
        with pytest.raises(ValueError, match="horizon_grid must be non-empty"):
            rate_analysis(ar1, ar1_stats, [], [1.0])

    def test_grid_must_exceed_order(self, ar2, ar2_stats):
        with pytest.raises(ValueError, match="every horizon must exceed the process order"):
            rate_analysis(ar2, ar2_stats, [2, 1000], [1.0, 0.0])

    @pytest.mark.parametrize("grid", [[1000.5], [100, 1000.0], [True]])
    def test_grid_must_hold_integers(self, ar1, ar1_stats, grid):
        with pytest.raises(ValueError, match="horizon_grid: must be an integer"):
            rate_analysis(ar1, ar1_stats, grid, [1.0])

    def test_slow_subspace_separates_learning_rates(self, ar2, ar2_stats):
        analysis = rate_analysis(ar2, ar2_stats, [10 ** 3, 10 ** 6], [1.0, 0.0])
        assert analysis.multiplicity == 1
        assert analysis.slow_directions.shape == (2, 1)
        slow = analysis.slow_directions[:, 0]
        fast = np.array([-slow[1], slow[0]])
        fast /= np.linalg.norm(fast)

        def scaled_norm(w, horizon):
            eps = analysis.epsilon_ceiling - horizon ** -0.5
            cert = covariance_certificate(make_inputs(ar2, ar2_stats, eps, horizon))
            lam, u = np.linalg.eigh(cert.lower)
            return math.sqrt(float(np.sum((u.T @ w) ** 2 / lam)) * (horizon - 2))

        fast_ratio = scaled_norm(fast, 10 ** 6) / scaled_norm(fast, 10 ** 3)
        generic_ratio = scaled_norm(np.array([1.0, 0.0]), 10 ** 6) / scaled_norm(
            np.array([1.0, 0.0]), 10 ** 3)
        assert fast_ratio < 1.5  # bounded along the fast subspace
        assert generic_ratio > 3.0  # grows like N^(1/4) elsewhere

    def test_radius_ratio_settles(self, ar2, ar2_stats):
        analysis = rate_analysis(ar2, ar2_stats, [10 ** 6, 4 * 10 ** 6], [1.0, 0.0])
        r1, r2 = analysis.points[0].radius, analysis.points[1].radius
        assert 0.5 <= r2 / r1 <= 2.0


def radius_mpmath(inputs, w, log_delta) -> mpmath.mpf:
    """The deviation radius at 50 digits from the float64 V and G of
    ``inputs``: lower^{-1} w by an LU solve, the log-det term from two
    determinants."""
    with mpmath.workdps(50):
        v = mpmath.matrix(inputs.stats.state_covariance_block.tolist())
        g = mpmath.matrix(inputs.stats.gramian_block.tolist())
        spread = mpmath.mpf(inputs.epsilon) * inputs.process.noise_variance * g
        lower = inputs.effective_samples * (v - spread)
        upper = inputs.effective_samples * (v + spread)
        w = mpmath.matrix([float(x) for x in w])
        weighted_norm_sq = (w.T * mpmath.lu_solve(lower, w))[0]
        log_det = (mpmath.log(mpmath.det(upper + lower)) - mpmath.log(mpmath.det(lower))) / 2
        return (2 * mpmath.sqrt(inputs.process.noise_variance * weighted_norm_sq)
                * mpmath.sqrt(log_det - log_delta))


class TestClosedFormAgainstMatrixOracle:
    """The closed forms against the radius and sweep evaluated from the
    sandwich matrices themselves (``reference``)."""

    @settings(max_examples=200)
    @given(stable_ar_coeffs())
    def test_sweep_and_radius(self, coeffs):
        # The benchmark's l1 cap.  Beyond it both forms can lose digits to
        # the conditioning of G: for poles 0.9375, 0.75 and 0.5, each double
        # (l1 norm 24.8), both radii are about 1e-7 off the 50-digit one.
        assume(np.abs(coeffs).sum() <= 5.0)
        process = ArProcess(coeffs=coeffs)
        stats = stationary_stats(build_companion(process), 1.0)
        n = process.order
        uniform = np.full(n, 1.0 / math.sqrt(n))
        grid = [1000, 10_000, 100_000, 1_000_000]
        analysis = rate_analysis(process, stats, grid, uniform)
        points, slope = rate_sweep_oracle(process, stats, grid, uniform)
        assert analysis.slope == slope
        for got, want in zip(analysis.points, points):
            assert (got.delta, got.log_delta, got.feasible) == (
                want.delta, want.log_delta, want.feasible)
            assert (got.radius is None) == (want.radius is None)
            if want.radius is not None:
                assert got.radius == pytest.approx(want.radius, rel=1e-7)

        inputs = make_inputs(process, stats, 0.5 * analysis.epsilon_ceiling, 5000)
        cert = covariance_certificate(inputs)
        for w in (np.eye(n)[0], uniform):
            got = deviation_radius(inputs, w)
            want = deviation_radius_oracle(cert, w, 1.0)
            assert (got.total_failure, got.vacuous) == (want.total_failure, want.vacuous)
            if not want.vacuous:
                assert got.radius == pytest.approx(want.radius, rel=1e-7)

    def test_closed_form_closer_to_mpmath_next_to_the_ceiling(self):
        # Clustered poles at N = 1e6: epsilon = ceiling - 1e-3 is 7% of the
        # ceiling 1.07e-3, so lower is nearly singular.  Forming it entry by
        # entry and decomposing it is 2.4e-6 off the 50-digit radius of the
        # same float64 V and G; the closed form, which subtracts only in the
        # whitened eigenvalues, is within 1e-8.
        process = ArProcess(coeffs=CLUSTERED_POLES_AR8)
        stats = stationary_stats(build_companion(process), 1.0)
        w = np.full(8, 1.0 / math.sqrt(8))
        [closed] = rate_analysis(process, stats, [10 ** 6], w).points
        [matrix], _ = rate_sweep_oracle(process, stats, [10 ** 6], w)
        exact = radius_mpmath(make_inputs(process, stats, closed.epsilon, 10 ** 6), w,
                              closed.log_delta)
        closed_error = float(abs(closed.radius - exact) / exact)
        matrix_error = float(abs(matrix.radius - exact) / exact)
        assert closed_error <= 1e-7
        assert matrix_error > 100 * closed_error


class TestOneFeasibilityPredicate:
    """The certificate's flag, the radius and the campaign's setup decide
    feasibility with the one whitened-gap predicate, so they agree at the
    ceiling and at its neighbouring floats."""

    @staticmethod
    def campaign_setup(process, epsilon):
        """(passed, log det(lower) handed to the batches) of ``run_campaign``,
        with the batches stubbed out."""
        seen = []

        def no_trials(config, inputs, cert, deviations, logdet_lower, start, stop):
            seen.append(logdet_lower)
            return Counter(evaluated=stop - start)

        config = CampaignConfig(process=process, horizon=5000, epsilon=epsilon, trials=100,
                                master_seed=0, directions=(("e1", np.eye(process.order)[0]),))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(montecarlo_module, "_run_batch", no_trials)
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                run_campaign(config)
            except ConfigError as exc:
                assert "epsilon: infeasible" in str(exc)
                return False, None
        return True, seen[0]

    @settings(max_examples=100)
    @given(stable_ar_coeffs(), st.sampled_from([1.0, 1.7]))
    def test_certificate_radius_and_campaign_agree(self, coeffs, sigma2):
        assume(np.abs(coeffs).sum() <= 5.0)
        process = ArProcess(coeffs=coeffs, noise_variance=sigma2)
        stats = stationary_stats(build_companion(process), sigma2)
        ceiling = max_feasible_epsilon(process, stats)
        w = np.eye(process.order)[0]
        for eps in (np.nextafter(ceiling, 0.0), ceiling, np.nextafter(ceiling, np.inf),
                    0.5 * ceiling):
            inputs = make_inputs(process, stats, eps, 5000)
            cert = covariance_certificate(inputs)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    deviation_radius(inputs, w)
                radius_returned = True
            except InfeasibleCertificateError:
                radius_returned = False
            passed, logdet_lower = self.campaign_setup(process, eps)
            assert cert.feasible == radius_returned == passed
            assert cert.feasible == (eps < ceiling)
            if eps == 0.5 * ceiling:
                assert cert.feasible
                # The campaign's lower is the sandwich at unit noise variance.
                unit_logdet = (np.linalg.slogdet(cert.lower)[1]
                               - process.order * math.log(sigma2))
                assert logdet_lower == pytest.approx(unit_logdet, rel=1e-10)
