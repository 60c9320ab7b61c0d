import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import arcert.montecarlo as montecarlo_module
import arcert.process as process_module
from arcert import (
    ArProcess,
    BoundInputs,
    CampaignConfig,
    ConfigError,
    CoverageReport,
    EventCoverage,
    NumericalFailureError,
    Trajectory,
    build_companion,
    covariance_certificate,
    deviation_radius,
    max_feasible_epsilon,
    run_campaign,
    simulate_stationary,
    stationary_stats,
    substream,
)
from arcert.cli import _csv_text
from arcert.montecarlo import event_threshold
from reference import (
    assert_implications,
    build_regressors,
    check_boundary_event,
    check_cross_term_event,
    check_noise_energy_event,
    check_self_normalized_event,
    evaluate_trial,
    event_noise_window,
    lag_window,
    report_row,
)


@pytest.fixture(scope="module")
def ar1_setup(ar1, ar1_stats):
    a = build_companion(ar1)
    inputs = BoundInputs(process=ar1, stats=ar1_stats, epsilon=0.5, horizon=400)
    cert = covariance_certificate(inputs)
    dev = deviation_radius(inputs, [1.0])
    return a, inputs, cert, dev


def zero_trajectory(order, horizon):
    return Trajectory(samples=np.zeros(horizon + order), noise=np.zeros(horizon),
                      order=order, horizon=horizon)


class TestEventCheckers:
    def test_boundary_zero_trajectory(self, ar1_setup):
        a, inputs, _, _ = ar1_setup
        held, radius = check_boundary_event(zero_trajectory(1, 400), a, inputs)
        assert held and radius == 0.0

    def test_threshold_scaling_never_flips_to_false(self, ar1, ar1_stats, ar1_setup):
        a, inputs, _, _ = ar1_setup
        wide = BoundInputs(process=ar1, stats=ar1_stats, epsilon=1.0, horizon=400)
        for seed in range(20):
            traj = simulate_stationary(ar1, 400, seed)
            held, _ = check_boundary_event(traj, a, inputs)
            held_wide, _ = check_boundary_event(traj, a, wide)
            if held:
                assert held_wide
            noise = event_noise_window(traj)
            if check_noise_energy_event(noise, inputs)[0]:
                assert check_noise_energy_event(noise, wide)[0]
            if check_cross_term_event(traj, noise, a, inputs)[0]:
                assert check_cross_term_event(traj, noise, a, wide)[0]

    def test_noise_energy_constant_noise_is_exact(self, ar1, ar1_stats):
        inputs = BoundInputs(process=ar1, stats=ar1_stats, epsilon=0.01, horizon=400)
        window = np.full(399, 1.0)  # every e_t = sigma
        held, radius = check_noise_energy_event(window, inputs)
        assert held and radius == 0.0

    def test_cross_term_zero_noise(self, ar1, ar1_stats, ar1_setup):
        a, inputs, _, _ = ar1_setup
        traj = simulate_stationary(ar1, 400, 11)
        held, radius = check_cross_term_event(traj, np.zeros(399), a, inputs)
        assert held and radius == 0.0

    def test_cross_term_closed_form_matches_dense_eigensolve(self, ar2, ar2_stats):
        a = build_companion(ar2)
        inputs = BoundInputs(process=ar2, stats=ar2_stats, epsilon=0.2, horizon=300)
        traj = simulate_stationary(ar2, 300, 21)
        window = event_noise_window(traj)
        _, radius = check_cross_term_event(traj, window, a, inputs)
        # Dense oracle: materialise S e1^T + e1 S^T and take its eigenvalues.
        images = np.array([
            np.concatenate(([a[0, :-1] @ lag_window(traj, t)], lag_window(traj, t)))
            for t in range(1, 299)
        ])
        s_vec = window @ images
        e1 = np.eye(3)[0]
        dense = np.outer(s_vec, e1) + np.outer(e1, s_vec)
        oracle = np.max(np.abs(np.linalg.eigvalsh(dense)))
        assert radius == pytest.approx(oracle, rel=1e-10)

    def test_boundary_radius_matches_windows(self, ar2, ar2_stats):
        # The event uses the first and last lag windows through the companion map.
        a = build_companion(ar2)
        inputs = BoundInputs(process=ar2, stats=ar2_stats, epsilon=0.2, horizon=50)
        traj = simulate_stationary(ar2, 50, 3)
        _, radius = check_boundary_event(traj, a, inputs)
        u = np.concatenate(([a[0, :-1] @ lag_window(traj, 1)], lag_window(traj, 1)))
        v = np.concatenate(([a[0, :-1] @ lag_window(traj, 49)], lag_window(traj, 49)))
        oracle = np.max(np.abs(np.linalg.eigvalsh(np.outer(u, u) - np.outer(v, v))))
        assert radius == pytest.approx(oracle, rel=1e-12)

    def test_self_normalized_zero_noise_holds(self, ar1, ar1_stats):
        # Zero residual noise gives a zero left side, so the event holds
        # whenever delta sits below the determinant term (true at this horizon).
        inputs = BoundInputs(process=ar1, stats=ar1_stats, epsilon=0.5, horizon=3000)
        cert = covariance_certificate(inputs)
        assert cert.delta < 1.0
        traj = simulate_stationary(ar1, 3000, 14)
        design, _ = build_regressors(traj)
        assert check_self_normalized_event(design, np.zeros(len(design)), cert, 1.0)

    def test_self_normalized_unsatisfiable_when_delta_dominates(self, ar1_setup):
        # At this short horizon delta exceeds the determinant term: the
        # threshold is imaginary, so even zero noise cannot satisfy the event.
        _, inputs, cert, _ = ar1_setup
        assert cert.delta > 1.0
        traj = simulate_stationary(inputs.process, 400, 14)
        design, _ = build_regressors(traj)
        assert not check_self_normalized_event(design, np.zeros(len(design)), cert, 1.0)

    def test_event_threshold_value(self, ar1, ar1_stats):
        inputs = BoundInputs(process=ar1, stats=ar1_stats, epsilon=0.3, horizon=101)
        assert event_threshold(inputs) == pytest.approx(0.3 * 100 / 3.0)


class TestTrialOutcome:
    """The reference path's per-trial implication checks."""

    def good(self):
        return {"boundary": True, "noise_energy": True, "cross_term": True,
                "sandwich": True, "self_normalized": True, "deviation:e1": True}

    def test_consistent_outcome_passes(self):
        assert_implications(self.good())

    def test_sandwich_chain_enforced(self):
        held = self.good() | {"sandwich": False, "self_normalized": False,
                              "deviation:e1": None}
        with pytest.raises(AssertionError, match="sandwich failed"):
            assert_implications(held)

    def test_deviation_chain_enforced(self):
        held = self.good() | {"boundary": False, "deviation:e1": False}
        with pytest.raises(AssertionError, match="deviation exceeded"):
            assert_implications(held)

    def test_vacuous_deviation_allowed(self):
        assert_implications(self.good() | {"deviation:e1": None})


class TestCampaignConfigValidation:
    def test_zero_trials_rejected(self, ar1):
        with pytest.raises(ConfigError):
            CampaignConfig(process=ar1, horizon=400, epsilon=0.5, trials=0,
                           master_seed=1, directions=(("e1", np.array([1.0])),))

    def test_small_trial_counts_rejected(self, ar1):
        with pytest.raises(ConfigError):
            CampaignConfig(process=ar1, horizon=400, epsilon=0.5, trials=50,
                           master_seed=1, directions=(("e1", np.array([1.0])),))

    @pytest.mark.parametrize("norm", [1.0 + 1e-10, np.nan])
    def test_non_unit_direction_named(self, ar1, norm):
        # One unit-norm tolerance: a direction the config accepts is one the
        # deviation radius accepts.
        with pytest.raises(ConfigError, match="direction 'tilted'"):
            CampaignConfig(process=ar1, horizon=400, epsilon=0.5, trials=200,
                           master_seed=1, directions=(("tilted", np.array([norm])),))

    @pytest.mark.parametrize("field, value, message", [
        ("horizon", 4, "horizon: must be at least 2 * order + 1"),
        ("epsilon", 0.0, "epsilon: must be a positive finite real"),
        ("epsilon", -1.0, "epsilon: must be a positive finite real"),
        ("epsilon", np.nan, "epsilon: must be a positive finite real"),
        ("epsilon", np.inf, "epsilon: must be a positive finite real"),
        ("master_seed", -1, "seed: must be a nonnegative integer"),
        ("directions", (), "direction: at least one direction is required"),
    ])
    def test_invalid_field_named(self, ar2, field, value, message):
        base = dict(process=ar2, horizon=400, epsilon=0.25, trials=200, master_seed=1,
                    directions=(("e1", np.array([1.0, 0.0])),))
        with pytest.raises(ConfigError, match=re.escape(message)):
            CampaignConfig(**{**base, field: value})

    def test_thread_ceiling(self, ar1):
        base = dict(process=ar1, horizon=400, epsilon=0.5, trials=200, master_seed=1,
                    directions=(("e1", np.array([1.0])),))
        assert CampaignConfig(**base, threads=montecarlo_module.MAX_THREADS).threads \
            == montecarlo_module.MAX_THREADS
        for threads in (0, montecarlo_module.MAX_THREADS + 1, 10 ** 6):
            with pytest.raises(ConfigError, match="threads"):
                CampaignConfig(**base, threads=threads)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 5000.7), ("trials", 150.9), ("master_seed", 2.5), ("master_seed", True),
        ("threads", 1.9), ("threads", True), ("threads", "1"),
    ])
    def test_integer_fields_not_truncated(self, ar1, field, value):
        base = dict(process=ar1, horizon=5000, epsilon=0.5, trials=150, master_seed=2,
                    directions=(("e1", np.array([1.0])),), threads=1)
        with pytest.raises(ConfigError, match=f"{field}: must be an integer"):
            CampaignConfig(**{**base, field: value})

    def test_numpy_integer_fields_accepted(self, ar1):
        config = CampaignConfig(process=ar1, horizon=np.int64(5000), epsilon=0.5,
                                trials=np.int32(150), master_seed=np.uint64(2),
                                directions=(("e1", np.array([1.0])),), threads=np.int8(1))
        values = (config.horizon, config.trials, config.master_seed, config.threads)
        assert values == (5000, 150, 2, 1) and all(type(v) is int for v in values)

    def test_duplicate_labels_rejected(self, ar1):
        with pytest.raises(ConfigError):
            CampaignConfig(process=ar1, horizon=400, epsilon=0.5, trials=200,
                           master_seed=1,
                           directions=(("e1", np.array([1.0])), ("e1", np.array([1.0]))))

    def test_infeasible_epsilon_rejected(self, ar1):
        config = CampaignConfig(process=ar1, horizon=400, epsilon=5.0, trials=200,
                                master_seed=1, directions=(("e1", np.array([1.0])),))
        with pytest.raises(ConfigError):
            run_campaign(config)

    def test_vacuous_delta_runs(self, ar2):
        # Small horizon keeps delta above 1 even though epsilon is feasible:
        # the campaign runs and its rows report the vacuity.
        config = CampaignConfig(process=ar2, horizon=50, epsilon=0.25, trials=100,
                                master_seed=1, directions=(("e1", np.array([1.0, 0.0])),))
        row = report_row(run_campaign(config), "sandwich")
        assert row.bound >= 1.0 and row.verdict == "vacuous"


def reference_failures(config: CampaignConfig) -> dict:
    """Failure counts of every event, re-run trial by trial through the
    single-trial reference checkers on the substreams the campaign uses."""
    process = config.process
    a = build_companion(process)
    stats = stationary_stats(a, process.noise_variance)
    inputs = BoundInputs(process=process, stats=stats, epsilon=config.epsilon,
                         horizon=config.horizon)
    cert = covariance_certificate(inputs)
    dev_certs = {label: deviation_radius(inputs, w)
                 for label, w in config.directions}
    fails = {}
    for i in range(config.trials):
        traj = simulate_stationary(process, config.horizon,
                                   substream(config.master_seed, i))
        for event, held in evaluate_trial(process, a, inputs, cert, dev_certs,
                                          traj).items():
            fails[event] = None if held is None else fails.get(event, 0) + (not held)
    return fails


def report_failures(report: CoverageReport) -> dict:
    assert report.trial_errors == 0
    return {row.event: row.failures for row in report.events}


@pytest.fixture(scope="module")
def small_config(ar1):
    return CampaignConfig(process=ar1, horizon=3000, epsilon=0.5, trials=100,
                          master_seed=314,
                          directions=(("e1", np.array([1.0])),))


@pytest.fixture(scope="module")
def small_report(small_config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo_module, "BATCH", 32)
        return run_campaign(small_config)


class TestCampaign:
    def test_matches_single_trial_reference_path(self, small_config, small_report):
        assert reference_failures(small_config) == report_failures(small_report)

    def test_deterministic_across_runs_and_threads(self, monkeypatch, small_config,
                                                   small_report):
        rerun = run_campaign(small_config)
        assert rerun == small_report
        threaded = CampaignConfig(process=small_config.process, horizon=3000, epsilon=0.5,
                                  trials=100, master_seed=314,
                                  directions=small_config.directions, threads=2)
        monkeypatch.setattr(montecarlo_module, "BATCH", 16)
        assert run_campaign(threaded) == small_report

    def test_report_totals(self, small_report):
        for row in small_report.events:
            assert row.evaluated == small_report.trials - small_report.trial_errors
            if row.failures is not None:
                successes = row.evaluated - row.failures
                assert row.failures + successes + small_report.trial_errors \
                    == small_report.trials

    def test_chain_violations_zero(self, small_report):
        assert small_report.sandwich_chain_violations == 0
        assert small_report.deviation_chain_violations == {"e1": 0}

    def test_sandwich_chain_violations_counted(self, monkeypatch, small_config):
        # A sandwich built at a thousandth of the epsilon the events are
        # checked at is too narrow to follow from them: the three component
        # events hold on every trial while the sandwich fails on 99.
        exact = montecarlo_module.covariance_certificate
        monkeypatch.setattr(montecarlo_module, "covariance_certificate", lambda inputs: exact(
            dataclasses.replace(inputs, epsilon=inputs.epsilon * 1e-3)))
        report = run_campaign(small_config)
        assert [report_row(report, name).failures
                for name in ("boundary", "noise_energy", "cross_term", "sandwich")] \
            == [0, 0, 0, 99]
        assert report.sandwich_chain_violations == 99
        assert report.deviation_chain_violations == {"e1": 0}

    @pytest.mark.parametrize("spoil", [
        pytest.param(lambda dev: dataclasses.replace(dev, radius=dev.radius * 1e-6),
                     id="shrunk"),
        pytest.param(lambda dev: dataclasses.replace(dev, radius=None, vacuous=True),
                     id="vacuous"),
    ])
    def test_deviation_chain_violations_counted(self, monkeypatch, small_config, spoil):
        # A spoilt radius no longer follows from the sandwich and the
        # self-normalized event, which both hold on 99 of these trials; a
        # vacuous radius holds on no trial, so those 99 break the chain too.
        exact = montecarlo_module.deviation_radius
        monkeypatch.setattr(montecarlo_module, "deviation_radius",
                            lambda *args: spoil(exact(*args)))
        report = run_campaign(dataclasses.replace(small_config, horizon=5000))
        assert report_row(report, "sandwich").failures == 0
        assert report_row(report, "self_normalized").failures == 1
        assert report.sandwich_chain_violations == 0
        assert report.deviation_chain_violations == {"e1": 99}

    def test_all_bounds_respected(self, small_report):
        # Includes the self-normalized event, whose failures must stay below
        # the same delta that bounds the sandwich.  The deviation bound 2*delta
        # exceeds 1 at this horizon, so that row is marked vacuous while its
        # frequency is still recorded.
        for row in small_report.events:
            if row.bound >= 1.0:
                assert row.verdict == "vacuous", row.event
            else:
                assert row.verdict == "respected", row.event
            if row.frequency is not None:
                assert row.frequency - 3.0 * row.stderr <= max(row.bound, 1.0)

    def test_csv_shape(self, small_report):
        lines = _csv_text(EventCoverage, small_report.events).splitlines()
        assert lines[0] == "event,bound,failures,evaluated,frequency,stderr,verdict"
        assert len(lines) == 1 + len(small_report.events)

    def test_near_ceiling_sandwich_rarely_fails(self, ar1):
        # With epsilon close to the ceiling the lower matrix is nearly zero and
        # the upper one is wide: the sandwich holds on essentially every trial,
        # so the empirical event frequency respects 1 - delta with huge margin.
        config = CampaignConfig(process=ar1, horizon=5000, epsilon=0.95, trials=200,
                                master_seed=909, directions=(("e1", np.array([1.0])),))
        report = run_campaign(config)
        row = report_row(report, "sandwich")
        assert row.bound < 0.05
        assert row.failures == 0
        assert 1.0 - row.frequency >= 1.0 - row.bound

    def test_multiple_directions(self, monkeypatch, ar2):
        monkeypatch.setattr(montecarlo_module, "BATCH", 64)
        config = CampaignConfig(
            process=ar2, horizon=600, epsilon=0.25, trials=100, master_seed=11,
            directions=(("e1", np.array([1.0, 0.0])), ("e2", np.array([0.0, 1.0])),
                        ("uniform", np.full(2, np.sqrt(0.5)))),
        )
        report = run_campaign(config)
        names = [row.event for row in report.events]
        assert names[-3:] == ["deviation:e1", "deviation:e2", "deviation:uniform"]
        assert set(report.deviation_chain_violations) == {"e1", "e2", "uniform"}
        assert all(v == 0 for v in report.deviation_chain_violations.values())


AR3 = ArProcess(coeffs=[0.5, -0.3, 0.2], noise_variance=1.0)


def half_ceiling_config(process, horizon, **kwargs) -> CampaignConfig:
    stats = stationary_stats(build_companion(process), process.noise_variance)
    n = process.order
    return CampaignConfig(
        process=process, horizon=horizon,
        epsilon=0.5 * max_feasible_epsilon(process, stats), trials=100, master_seed=2718,
        directions=(("e1", np.eye(n)[0]), ("uniform", np.full(n, n ** -0.5))),
        **kwargs,
    )


def campaign_counts(sigma2: float) -> tuple:
    """Every count of an AR(2) campaign at half the ceiling, noise variance sigma2."""
    process = ArProcess(coeffs=[0.3, 0.4], noise_variance=sigma2)
    config = dataclasses.replace(half_ceiling_config(process, 5000), trials=200, master_seed=1)
    report = run_campaign(config)
    return ([(row.event, row.failures, row.evaluated) for row in report.events],
            report.sandwich_chain_violations, report.deviation_chain_violations,
            report.trial_errors)


@pytest.mark.parametrize("sigma2", [1e-300, 1e-100, 1e100, 1e300])
def test_counts_invariant_to_noise_variance(sigma2):
    # Every event is invariant to s2, and the campaign runs at unit variance,
    # so no statistic overflows or underflows at the ends of double range.
    assert campaign_counts(sigma2) == campaign_counts(1.0)


class TestStreamingKernel:
    """The campaign streams each batch through fixed time chunks; these
    horizons cross chunk boundaries, which the small campaigns above do not."""

    @pytest.mark.parametrize("coeffs", [[0.5], [0.5, -0.3, 0.2]])
    def test_multichunk_matches_reference(self, coeffs):
        config = half_ceiling_config(ArProcess(coeffs=coeffs),
                                     2 * process_module.CHUNK + 37)
        assert reference_failures(config) == report_failures(run_campaign(config))

    def test_multichunk_independent_of_batch_and_threads(self, monkeypatch):
        horizon = 2 * process_module.CHUNK + 37
        monkeypatch.setattr(montecarlo_module, "BATCH", 100)
        one = run_campaign(half_ceiling_config(AR3, horizon))
        monkeypatch.setattr(montecarlo_module, "BATCH", 7)
        split = run_campaign(half_ceiling_config(AR3, horizon, threads=2))
        assert _csv_text(EventCoverage, split.events) == _csv_text(EventCoverage, one.events)
        assert split == one

    def test_one_trial_final_batch_matches_one_batch(self, monkeypatch):
        # 100 trials in batches of 99 leave a final batch of one trial, which
        # the recursion runs on plain floats instead of in-place rows.
        horizon = 2 * process_module.CHUNK + 37
        monkeypatch.setattr(montecarlo_module, "BATCH", 100)
        one = run_campaign(half_ceiling_config(AR3, horizon))
        monkeypatch.setattr(montecarlo_module, "BATCH", 99)
        assert run_campaign(half_ceiling_config(AR3, horizon)) == one

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("coeffs", [[0.5], [0.5, -0.3, 0.2]])
    def test_edge_horizons_match_reference(self, monkeypatch, chunk, coeffs):
        # Chunks shorter than the AR(3) lag windows make those span chunks;
        # at a chunk of n, the first end vector's innovation is the last
        # noise row of the first chunk.
        monkeypatch.setattr(process_module, "CHUNK", chunk)
        process = ArProcess(coeffs=coeffs)
        shortest = 2 * process.order + 1
        for horizon in sorted({chunk, chunk + 1, shortest}):
            if horizon < shortest:
                continue
            config = half_ceiling_config(process, horizon)
            assert reference_failures(config) == report_failures(run_campaign(config)), horizon

    def test_memory_independent_of_horizon(self, ar1):
        # A materialised 100 x 200 000 path alone would take 160 MB; the
        # batch's noise and window buffers, allocated once, take 0.8 MB
        # each, and its block of 32 trials' draws 0.25 MB.  Chunks of 4096
        # steps allocated afresh, with the noise copied into each window,
        # peak at 16 MiB and fail the bound.
        config = CampaignConfig(process=ar1, horizon=200_000, epsilon=0.5, trials=100,
                                master_seed=5, directions=(("e1", np.array([1.0])),))
        tracemalloc.start()
        try:
            report = run_campaign(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trial_errors == 0
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("fill", [np.nan, 0.0])
    def test_degenerate_trials_counted_as_errors(self, monkeypatch, fill):
        # A non-finite path, or an all-zero one with a singular normal matrix,
        # must be counted as a trial error without breaking the batch.  The
        # chunks are time-major, so column 0 is the first trial of a batch.
        def spoiled(*args):
            for lo, window, noise in process_module.simulate_chunks(*args):
                window[:, 0] = fill
                noise[:, 0] = fill
                yield lo, window, noise

        monkeypatch.setattr(montecarlo_module, "simulate_chunks", spoiled)
        monkeypatch.setattr(montecarlo_module, "MAX_ERROR_FRACTION", 1.0)
        monkeypatch.setattr(montecarlo_module, "BATCH", 50)
        report = run_campaign(half_ceiling_config(AR3, 300))
        assert report.trial_errors == 2
        assert report_row(report, "sandwich").evaluated == 98

    @pytest.mark.parametrize("buffer", ["window", "noise"])
    def test_one_interior_nan_is_one_error(self, monkeypatch, buffer):
        # One NaN sample or innovation in the middle of one trial's second
        # chunk, away from the carried rows, so the recursion never spreads
        # it: the batch has no per-chunk finiteness scan, and the statistics
        # it enters must still mark exactly that trial.
        def spoiled(*args):
            for lo, window, noise in process_module.simulate_chunks(*args):
                if lo == process_module.CHUNK:
                    {"window": window, "noise": noise}[buffer][500, 7] = np.nan
                yield lo, window, noise

        monkeypatch.setattr(montecarlo_module, "simulate_chunks", spoiled)
        monkeypatch.setattr(montecarlo_module, "MAX_ERROR_FRACTION", 1.0)
        report = run_campaign(half_ceiling_config(AR3, 2 * process_module.CHUNK + 37))
        assert report.trial_errors == 1
        assert report_row(report, "sandwich").evaluated == 99

    def test_too_many_errors_is_a_numerical_failure(self, monkeypatch, small_config):
        monkeypatch.setattr(montecarlo_module, "MAX_ERROR_FRACTION", -1.0)
        with pytest.raises(NumericalFailureError):
            run_campaign(small_config)
