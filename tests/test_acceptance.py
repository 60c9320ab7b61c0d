"""End-to-end acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and prints
one PASS line (visible with ``pytest -s``) once its assertions hold.  The two
10^4-trial coverage campaigns are shared session-wide.
"""

import json
import math
import time

import numpy as np
import pytest

from arcert import (
    ArProcess,
    BoundInputs,
    CampaignConfig,
    build_companion,
    covariance_certificate,
    max_feasible_epsilon,
    rate_analysis,
    run_campaign,
    simulate_stationary,
    stationary_stats,
)
from arcert.cli import main as cli_main
from arcert.linalg import solve_companion_lyapunov
from conftest import truncated_lyapunov_series
from reference import (
    build_regressors,
    chi2_tail_frequencies,
    ols_fit,
    report_row,
    simulate_whole_horizon,
    spectral_radius_subadditive_check,
    toeplitz_covariance,
    weierstrass_lower_bound,
    weighted_chi2_tail_frequency,
)

TRIALS = 10_000
HORIZON = 5_000


def _campaign(coeffs, directions, master_seed):
    process = ArProcess(coeffs=coeffs, noise_variance=1.0)
    stats = stationary_stats(build_companion(process), 1.0)
    epsilon = 0.5 * max_feasible_epsilon(process, stats)
    inputs = BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=HORIZON)
    config = CampaignConfig(inputs=inputs, trials=TRIALS, master_seed=master_seed,
                            directions=directions, threads=2)
    return config, covariance_certificate(inputs)


@pytest.fixture(scope="session")
def campaigns():
    ar1_dirs = (("e1", np.array([1.0])), ("en", np.array([1.0])),
                ("uniform", np.array([1.0])))
    root_half = math.sqrt(0.5)
    ar2_dirs = (("e1", np.array([1.0, 0.0])), ("en", np.array([0.0, 1.0])),
                ("uniform", np.array([root_half, root_half])))
    config1, cert1 = _campaign([0.5], ar1_dirs, master_seed=20_240_001)
    config2, cert2 = _campaign([0.3, 0.4], ar2_dirs, master_seed=20_240_002)
    started = time.perf_counter()
    report1 = run_campaign(config1)
    report2 = run_campaign(config2)
    elapsed = time.perf_counter() - started
    return {
        "ar1": {"config": config1, "cert": cert1, "report": report1},
        "ar2": {"config": config2, "cert": cert2, "report": report2},
        "elapsed": elapsed,
    }


def test_criterion_1_sandwich_coverage(campaigns):
    for name in ("ar1", "ar2"):
        report = campaigns[name]["report"]
        cert = campaigns[name]["cert"]
        row = report_row(report, "sandwich")
        assert row.bound == pytest.approx(cert.delta, rel=1e-12)
        assert row.frequency <= row.bound + 3.0 * row.stderr, name
    assert campaigns["elapsed"] < 300.0
    print(f"\nPASS criterion 1: sandwich failure frequency within delta on both "
          f"setups ({campaigns['elapsed']:.1f}s for 2x{TRIALS} trials)")


def test_criterion_2_deviation_coverage(campaigns):
    recorded = []
    for name in ("ar1", "ar2"):
        report = campaigns[name]["report"]
        for label in ("e1", "en", "uniform"):
            row = report_row(report, f"deviation:{label}")
            if row.bound >= 1.0:
                assert row.verdict == "vacuous"
                assert row.frequency is not None  # recorded even when vacuous
            else:
                assert row.frequency <= row.bound + 3.0 * row.stderr, (name, label)
            recorded.append((name, label, row.frequency, row.bound))
    print("PASS criterion 2: deviation frequencies within 2*delta "
          f"(or vacuous-marked with frequency recorded) for {len(recorded)} cells")


def test_criterion_3_per_event_bounds(campaigns):
    for name in ("ar1", "ar2"):
        report = campaigns[name]["report"]
        for event in ("boundary", "noise_energy", "cross_term"):
            row = report_row(report, event)
            assert row.frequency <= row.bound + 3.0 * row.stderr, (name, event)
    print("PASS criterion 3: per-event failure frequencies within their "
          "closed-form bounds on both setups")


def test_criterion_4_chain_determinism(campaigns):
    for name in ("ar1", "ar2"):
        report = campaigns[name]["report"]
        assert report.trial_errors == 0
        assert report.sandwich_chain_violations == 0
        assert all(v == 0 for v in report.deviation_chain_violations.values())
    print(f"PASS criterion 4: zero implication violations across 2x{TRIALS} trials")


def test_criterion_5_decay_rate(ar1, ar1_stats):
    started = time.perf_counter()
    analysis = rate_analysis(ar1, ar1_stats, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], [1.0])
    elapsed = time.perf_counter() - started
    ceiling = analysis.epsilon_ceiling
    rel_err = abs(analysis.slope + ceiling) / ceiling
    assert rel_err <= 0.10
    assert elapsed < 1.0
    print(f"PASS criterion 5: log(2*delta) slope {analysis.slope:.4f} vs "
          f"-{ceiling:.4f} (rel err {rel_err:.1%}, {elapsed * 1e3:.0f} ms)")


def test_criterion_6_oracle_equivalences(ar2, ar2_stats):
    # Lyapunov solve against the truncated series oracle.
    a = build_companion(ar2)
    qs = (np.diag([1.0, 0.0, 0.0]), np.eye(3))
    for solved, q in zip(solve_companion_lyapunov(ar2.coeffs), qs):
        oracle = truncated_lyapunov_series(a, q, 250)
        assert np.abs(solved - oracle).max() <= 1e-10 * np.abs(solved).max()

    # Failure bound equals the sum of its per-event terms.
    cert = covariance_certificate(
        BoundInputs(process=ar2, stats=ar2_stats, epsilon=0.2, horizon=HORIZON))
    assert cert.delta == pytest.approx(sum(cert.failure_terms), rel=1e-15)
    assert cert.log_delta == pytest.approx(math.log(cert.delta), rel=1e-12)

    # Orthogonal-factorisation least squares against the normal-equation oracle.
    traj = simulate_whole_horizon(ar2, 20_000, 1144)
    design, target = build_regressors(traj)
    normal_solution = np.linalg.solve(design.T @ design, design.T @ target)
    np.testing.assert_allclose(ols_fit(design, target), normal_solution, rtol=1e-8)
    print("PASS criterion 6: Lyapunov/series, delta-sum and OLS/normal-equation "
          "oracle equivalences hold")


def test_criterion_7_tail_falsification():
    cells = 0
    for dof in (1, 5, 50):
        for x in (0.5, 2.0, 5.0):
            upper, lower = chi2_tail_frequencies(dof, x, samples=1_000_000,
                                                 seed=1000 + 10 * dof + int(2 * x))
            assert upper.verdict == "respected", (dof, x, "upper")
            assert lower.verdict == "respected", (dof, x, "lower")
            cells += 1

    weights = np.linalg.eigvalsh(toeplitz_covariance(ArProcess(coeffs=[0.5]), 64))
    for x in (1.0, 5.0):
        result = weighted_chi2_tail_frequency(weights, x, samples=1_000_000,
                                              seed=int(100 * x))
        assert result.verdict == "respected", ("weighted", x)
        cells += 1

    rng = np.random.default_rng(4242)
    lam = rng.uniform(0.0, 1.0, size=(10_000, 8))
    products = np.prod(1.0 - lam, axis=1)
    bounds = 1.0 - lam.sum(axis=1)
    assert np.all(products >= bounds - 1e-12)
    for lam_row in (np.zeros(4), np.array([1.0, 0.5, 0.2])):
        assert np.prod(1.0 - lam_row) >= weierstrass_lower_bound(lam_row) - 1e-12

    rng = np.random.default_rng(2323)
    raw_a = rng.standard_normal((10_000, 4, 4))
    raw_b = rng.standard_normal((10_000, 4, 4))
    sym_a = raw_a + raw_a.transpose(0, 2, 1)
    sym_b = raw_b + raw_b.transpose(0, 2, 1)
    rho = lambda m: np.abs(np.linalg.eigvalsh(m)).max(axis=-1)
    assert np.all(rho(sym_a + sym_b) <= rho(sym_a) + rho(sym_b) + 1e-10)
    # Spot-check the scalar checker agrees with the vectorised sweep.
    assert spectral_radius_subadditive_check(sym_a[0], sym_b[0])
    print(f"PASS criterion 7: chi-square tail thresholds respected on {cells} "
          "million-sample cells; product and subadditivity inequalities hold on "
          "10^4 instances each")


def test_criterion_8_stationarity(ar1):
    y = simulate_stationary(ar1, 1_000_000, 60_601).samples[ar1.order :]
    worst = 0.0
    for lag in range(11):
        gamma = (4.0 / 3.0) * 0.5 ** lag
        prods = y[lag:] * y[: len(y) - lag]
        usable = (len(prods) // 100) * 100
        blocks = prods[:usable].reshape(100, -1).mean(axis=1)
        stderr = blocks.std(ddof=1) / math.sqrt(len(blocks))
        deviation = abs(prods.mean() - gamma)
        assert deviation <= 3.0 * stderr, lag
        worst = max(worst, deviation / stderr)
    print(f"PASS criterion 8: lags 0..10 autocovariances match the closed form "
          f"(worst z-score {worst:.2f})")


def test_criterion_9_byte_determinism(tmp_path):
    config = {
        "coeffs": [0.5], "noise_variance": 1.0,
        "epsilon": {"fraction_of_ceiling": 0.5},
        "horizon": 3000, "trials": 200, "seed": 777,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    csvs = {}
    for threads in ("1", "2"):
        for attempt in ("a", "b"):
            out = tmp_path / f"mc-{threads}-{attempt}"
            assert cli_main(["montecarlo", "--config", str(cfg_path),
                             "--out", str(out), "--threads", threads]) == 0
            csvs[(threads, attempt)] = (out / "coverage.csv").read_bytes()
    assert csvs[("1", "a")] == csvs[("1", "b")]
    assert csvs[("2", "a")] == csvs[("2", "b")]
    assert csvs[("1", "a")] == csvs[("2", "a")]

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"coeffs": [0.5], "noise_variance": 1.0,
                                     "horizon_grid": [1000, 10_000]}))
    sweeps = []
    for attempt in ("a", "b"):
        out = tmp_path / f"sweep-{attempt}"
        assert cli_main(["rate-sweep", "--config", str(sweep_cfg),
                         "--out", str(out)]) == 0
        sweeps.append((out / "rate_sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]
    print("PASS criterion 9: byte-identical CSV outputs across repeat runs and "
          "thread counts")


def test_smoke_campaign_runtime():
    # 100-trial campaign on the reference configuration, pinned with headroom.
    process = ArProcess(coeffs=[0.5], noise_variance=1.0)
    stats = stationary_stats(build_companion(process), 1.0)
    config = CampaignConfig(
        inputs=BoundInputs(process=process, stats=stats, epsilon=0.5, horizon=HORIZON),
        trials=100, master_seed=5, directions=(("e1", np.array([1.0])),),
    )
    started = time.perf_counter()
    run_campaign(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS smoke: 100-trial reference campaign in {elapsed:.2f}s (< 60s)")
