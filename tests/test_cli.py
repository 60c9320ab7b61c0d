import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from arcert import (
    ArProcess,
    BoundInputs,
    CampaignConfig,
    ConfigError,
    ConvergenceError,
    CovarianceCertificate,
    CoverageReport,
    DeviationCertificate,
    EventCoverage,
    RateAnalysis,
    RatePoint,
    build_companion,
    covariance_certificate,
    deviation_radius,
    max_feasible_epsilon,
    rate_analysis,
    run_campaign,
    simulate_stationary,
    stationary_stats,
)
import arcert.cli as cli_module
import arcert.process as process_module
import arcert.stationary as stationary_module
from arcert.cli import _resolve_direction, main
from conftest import CLUSTERED_POLES_AR8
from test_stationary import PINNED_COEFFS


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


AR1_MC = dict(coeffs=[0.5], noise_variance=1.0, epsilon={"fraction_of_ceiling": 0.5},
              horizon=3000, trials=150, seed=99)

#: An AR(5) whose lower sandwich matrix, formed entry by entry at epsilon equal
#: to the ceiling, still has a positive smallest eigenvalue; the whitened gap
#: mu_min - eps is exactly 0 there.
AR5_AT_CEILING = dict(
    coeffs=[-2.3421558999492644, -2.105598033801749, -0.9098127882790601,
            -0.18901062844095312, -0.015092346249685062],
    noise_variance=1.0, epsilon={"fraction_of_ceiling": 1.0}, horizon=5000,
    direction=["e1", "uniform"])


class TestCertify:
    def test_writes_certificate_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           epsilon=0.5, horizon=5000)
        code = run(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["feasible"] is True
        assert payload["covariance"]["delta"] == pytest.approx(0.4228238, rel=1e-5)
        assert "e1" in payload["deviations"]
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "delta:" in summary and "radius[e1]:" in summary

    def test_unstable_coeffs_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[1.2], noise_variance=1.0,
                           epsilon=0.5, horizon=100)
        code = run(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "Schur" in capsys.readouterr().err

    def test_order_above_cap_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.01] * 33, noise_variance=1.0,
                           epsilon=0.5, horizon=5000)
        code = run(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "field 'coeffs': order 33 exceeds" in capsys.readouterr().err

    def test_ceiling_rule_infeasible_marks_output(self, tmp_path):
        # Ceiling is 0.5 for these coefficients, below 1/sqrt(3).
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           epsilon="ceiling-rule", horizon=3)
        code = run(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["feasible"] is False
        assert payload["epsilon"] is None
        assert "infeasible" in (tmp_path / "out" / "summary.txt").read_text()

    def test_missing_field_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, horizon=100)
        code = run(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_seed_flag_rejected_threads_accepted(self, tmp_path):
        # certify and rate-sweep draw nothing, so they take no --seed; every
        # subcommand takes --threads.
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, epsilon=0.5,
                           horizon=5000, horizon_grid=[1000])
        for command in ("certify", "rate-sweep"):
            assert run([command, "--config", cfg, "--out", str(tmp_path / command),
                        "--threads", "1"]) == 0
            with pytest.raises(SystemExit) as exc:
                run([command, "--config", cfg, "--out", str(tmp_path / command),
                     "--seed", "5"])
            assert exc.value.code == 2

    def test_numerical_error_exit_three(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which alone would mean exit 2.
        import arcert.cli as cli_module

        def boom(*args):
            raise np.linalg.LinAlgError("synthetic non-PSD covariance")

        monkeypatch.setattr(cli_module, "covariance_certificate", boom)
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           epsilon=0.5, horizon=5000)
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_eigvals_and_kron_calls(self, tmp_path, monkeypatch):
        # eigvals runs for the stability checks of two ArProcess objects: the
        # config's and the one stationary_stats reads the companion into.  The
        # peak gain checks no stability, and at order 2 needs no root finder.
        # No Kronecker operator, and no eigvalsh: feasibility is read off the
        # whitened spectrum.
        calls = {"eigvals": 0, "kron": 0, "eigvalsh": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(np.linalg, "eigvals")
        counting(np.linalg, "eigvalsh")
        counting(np, "kron")
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           epsilon={"fraction_of_ceiling": 0.5}, horizon=5000,
                           direction=["e1", "uniform"])
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls["eigvals"] <= 2 and calls["kron"] == 0
        assert calls["eigvalsh"] == 0

    def test_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # No config path raises KeyError (a missing field is a ConfigError),
        # so one is a program bug, not exit 2.
        def broken(args):
            raise KeyError("synthetic")

        monkeypatch.setattr(cli_module, "cmd_certify", broken)
        with pytest.raises(KeyError, match="synthetic"):
            run(["certify", "--config", str(tmp_path / "unused.json")])

    @pytest.mark.parametrize("config", [
        AR5_AT_CEILING,
        # One float above this process's ceiling 0.1776825172036712.
        dict(coeffs=[2.09911033122312, -1.4535666771519975, 0.33217755939282567],
             noise_variance=1.0, epsilon=0.17768251720367123, horizon=5000,
             direction=["e1", "uniform"]),
    ], ids=["ar5-fraction-one", "ar3-one-float-above"])
    def test_epsilon_at_or_above_ceiling_reported_infeasible(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, **config)
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["feasible"] is False and payload["deviations"] == {}
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "feasible: False" in summary
        assert "deviation radii: skipped (infeasible epsilon)" in summary

    @pytest.mark.parametrize("command", ["certify", "rate-sweep"])
    def test_inaccurate_lyapunov_solve_exit_three(self, tmp_path, monkeypatch, capsys,
                                                  command):
        # Every solve comes back a factor 1 + 1e-3 off.  The stationary
        # solve's one refinement step shrinks that to a relative error of
        # (1e-3)^2 = 1e-6, which only the residual check can catch.
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: exact(m, b) * (1.0 + 1e-3))
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, epsilon=0.5,
                           horizon=5000, horizon_grid=[1000])
        assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "Lyapunov residual" in capsys.readouterr().err


class TestMontecarlo:
    def test_smoke_campaign(self, tmp_path):
        cfg = write_config(tmp_path, **AR1_MC)
        code = run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "coverage.json").read_text())["report"]
        assert report["trials"] == 150
        assert report["sandwich_chain_violations"] == 0

    def test_epsilon_at_ceiling_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **AR5_AT_CEILING, trials=100, seed=1, allow_vacuous=True)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: epsilon: infeasible" in capsys.readouterr().err

    def test_vacuous_delta_runs(self, tmp_path):
        # The library quickstart's AR(2) campaign, with no allow_vacuous key:
        # delta = 1.67, but the boundary and noise-energy terms are far below
        # 1, so those rows still test the kernel while the rest read vacuous.
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           epsilon={"fraction_of_ceiling": 0.5}, horizon=5000, trials=100,
                           seed=7, direction="e1")
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "coverage.csv", newline="", encoding="utf-8") as fh:
            verdicts = {row["event"]: row["verdict"] for row in csv.DictReader(fh)}
        assert verdicts == {"boundary": "respected", "noise_energy": "respected",
                            "cross_term": "vacuous", "sandwich": "vacuous",
                            "self_normalized": "vacuous", "deviation:e1": "vacuous"}

    def test_one_stationary_solve_per_command(self, tmp_path, monkeypatch):
        # The campaign tests the statistics solved for the ceiling, so one
        # stationary solve (one peak gain) serves the command.  The stability
        # checks are the config's process, the one stationary_stats reads the
        # companion into, and run_campaign's unit-variance process.
        calls = {"check_schur_stable": 0, "peak_transfer_gain": 0}

        def counting(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args: calls.__setitem__(name, calls[name] + 1)
                                or original(*args))

        counting(process_module, "check_schur_stable")
        counting(stationary_module, "peak_transfer_gain")
        cfg = write_config(tmp_path, **dict(AR1_MC, coeffs=[0.3, 0.4], noise_variance=1.7,
                                            horizon=500, trials=100, direction="e1"))
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"check_schur_stable": 3, "peak_transfer_gain": 1}

    def test_missing_trials_named(self, tmp_path, capsys):
        payload = dict(AR1_MC)
        payload.pop("trials")
        cfg = write_config(tmp_path, **payload)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "trials" in capsys.readouterr().err

    def test_huge_trials_rejected_quickly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **dict(AR1_MC, trials=10 ** 30))
        started = time.perf_counter()
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - started < 1.0
        assert "trials" in capsys.readouterr().err

    def test_huge_thread_count_rejected_before_any_thread(self, tmp_path, monkeypatch,
                                                         capsys):
        import arcert.montecarlo as montecarlo_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started")

        monkeypatch.setattr(montecarlo_module, "ThreadPoolExecutor", no_pool)
        cfg = write_config(tmp_path, **AR1_MC)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--threads", "1000000"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_byte_identical_csv_across_runs_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, **AR1_MC)
        outputs = []
        for idx, threads in enumerate(["1", "1", "2"]):
            out = tmp_path / f"out{idx}"
            assert run(["montecarlo", "--config", cfg, "--out", str(out),
                        "--threads", threads]) == 0
            outputs.append((out / "coverage.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, **AR1_MC)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["montecarlo", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["montecarlo", "--config", cfg, "--out", str(out_b),
                    "--seed", "123456"]) == 0
        assert (out_a / "coverage.csv").read_bytes() != (out_b / "coverage.csv").read_bytes()

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        import arcert.cli as cli_module

        def boom(config):
            raise ConvergenceError("synthetic solver stall")

        monkeypatch.setattr(cli_module, "run_campaign", boom)
        cfg = write_config(tmp_path, **AR1_MC)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_too_many_trial_errors_exit_three(self, tmp_path, monkeypatch, capsys):
        import arcert.montecarlo as montecarlo_module

        monkeypatch.setattr(montecarlo_module, "MAX_ERROR_FRACTION", -1.0)
        cfg = write_config(tmp_path, **AR1_MC)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "failed numerically" in capsys.readouterr().err


# Counts recorded for two campaigns; they pin the kernel's output across
# changes to the code.  Each case: (config, --threads, coverage.csv rows as
# (event, failures, evaluated, verdict), sandwich chain violations,
# deviation chain violations, trial errors).
PINNED_CAMPAIGNS = [
    pytest.param(
        dict(coeffs=[0.3, 0.4], noise_variance=1.0, epsilon=0.25, horizon=50, trials=300,
             seed=7, allow_vacuous=True, direction=["e1", "uniform"]), "1",
        [("boundary", "131", "300", "vacuous"), ("noise_energy", "207", "300", "vacuous"),
         ("cross_term", "280", "300", "vacuous"), ("sandwich", "152", "300", "vacuous"),
         ("self_normalized", "300", "300", "vacuous"), ("deviation:e1", "", "300", "vacuous"),
         ("deviation:uniform", "", "300", "vacuous")],
        0, {"e1": 0, "uniform": 0}, 0, id="ar2-vacuous-deviation"),
    # The same campaign at another noise variance: every count is computed
    # at unit variance, so the rows do not move.
    pytest.param(
        dict(coeffs=[0.3, 0.4], noise_variance=1.7, epsilon=0.25, horizon=50, trials=300,
             seed=7, allow_vacuous=True, direction=["e1", "uniform"]), "1",
        [("boundary", "131", "300", "vacuous"), ("noise_energy", "207", "300", "vacuous"),
         ("cross_term", "280", "300", "vacuous"), ("sandwich", "152", "300", "vacuous"),
         ("self_normalized", "300", "300", "vacuous"), ("deviation:e1", "", "300", "vacuous"),
         ("deviation:uniform", "", "300", "vacuous")],
        0, {"e1": 0, "uniform": 0}, 0, id="ar2-vacuous-deviation-noise-variance-1.7"),
    pytest.param(
        dict(coeffs=[0.5, -0.3, 0.2], noise_variance=1.0,
             epsilon={"fraction_of_ceiling": 0.5}, horizon=2085, trials=300, seed=2718,
             allow_vacuous=True, direction=["e1", "uniform"]), "2",
        [("boundary", "0", "300", "respected"), ("noise_energy", "28", "300", "respected"),
         ("cross_term", "116", "300", "vacuous"), ("sandwich", "0", "300", "vacuous"),
         ("self_normalized", "189", "300", "vacuous"), ("deviation:e1", "16", "300", "vacuous"),
         ("deviation:uniform", "12", "300", "vacuous")],
        0, {"e1": 0, "uniform": 0}, 0, id="ar3-multichunk-two-threads"),
]


@pytest.mark.parametrize("config, threads, rows, sandwich_chain, deviation_chain, errors",
                         PINNED_CAMPAIGNS)
def test_campaign_counts_pinned(tmp_path, config, threads, rows, sandwich_chain,
                                deviation_chain, errors):
    # Integer counts, not file digests: the float columns may move in their
    # last digits with the BLAS build, the counts do not.
    cfg = write_config(tmp_path, **config)
    out = tmp_path / "out"
    assert run(["montecarlo", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
    with open(out / "coverage.csv", newline="", encoding="utf-8") as fh:
        table = [(r["event"], r["failures"], r["evaluated"], r["verdict"])
                 for r in csv.DictReader(fh)]
    assert table == rows
    report = json.loads((out / "coverage.json").read_text())["report"]
    assert report["sandwich_chain_violations"] == sandwich_chain
    assert report["deviation_chain_violations"] == deviation_chain
    assert report["trial_errors"] == errors


#: The processes whose certify and rate-sweep outputs are pinned: the AR(1),
#: AR(2) and AR(6) of PINNED_COEFFS and the clustered-pole AR(8).
OUTPUT_PIN_COEFFS = PINNED_COEFFS[:3] + [CLUSTERED_POLES_AR8]

OUTPUT_PIN_CONFIGS = {
    "certify": dict(epsilon={"fraction_of_ceiling": 0.5}, horizon=5000,
                    direction=["e1", "uniform"]),
    "rate-sweep": dict(horizon_grid=[200, 1000, 5000, 20000, 100000], direction="uniform"),
}


# SHA-256 of each output file over OUTPUT_PIN_COEFFS in order, with the
# generated_at stamp of the JSON files blanked.  The digests pin every
# certificate bit and its text together.  rate-sweep's bounds are per unit
# variance, so rate_sweep.csv has one digest at both noise variances;
# rate_analysis.json names its process, noise variance included.
# The solves and the stationary layer run through LAPACK, so another LAPACK
# build could move their last bits and with them every digest; the oracle
# comparisons in test_certificates.py and test_stationary.py hold on any build.
# The clustered-pole AR(8) warns that its radius may be inaccurate; the
# digests pin that radius as it is.
@pytest.mark.filterwarnings(r"ignore:cond\(G_blk\)")
@pytest.mark.parametrize("command, sigma2, digests", [
    pytest.param("certify", 1.0, {
        "certificate.json": "417de68b9ac2428143f7664f0fa723e0664bd4a0a954d10129b0ea36d7eba4ef",
        "summary.txt": "f4240e6d40c2f6f9ab7c90a9c6b272701e8f81b2df424d4f18e852ea1349e429",
    }, id="certify-1"),
    pytest.param("certify", 1.7, {
        "certificate.json": "83727a81b903c6a726aebbc93a6b6c97d9643c74ffda2ab5099b06944bbdaa94",
        "summary.txt": "318c402d0b6e91bb9451ffa7392b7e4c5d25c246bca422e9ab6bf7d871e95ded",
    }, id="certify-1.7"),
] + [pytest.param("rate-sweep", sigma2, {
        "rate_analysis.json": analysis_digest,
        "rate_sweep.csv": "d29e453412ba4c82d0d0643e0dd8ce4b53a3ba0bb20d6da230f83e827eadde7b",
    }, id=f"rate-sweep-{sigma2:g}") for sigma2, analysis_digest in (
        (1.0, "69cc0a021398bc5ad0296a4807a8efa752931bcffabd25139c4cc66c6f3d40e0"),
        (1.7, "7b5a33b34b2b8db5bc06add405cfbfc94282455a105cdd36e34b781b1572a5f6"))])
def test_command_output_bytes_pinned(tmp_path, command, sigma2, digests):
    hashes = {name: hashlib.sha256() for name in digests}
    for k, coeffs in enumerate(OUTPUT_PIN_COEFFS):
        cfg = write_config(tmp_path, coeffs=coeffs, noise_variance=sigma2,
                           **OUTPUT_PIN_CONFIGS[command])
        out = tmp_path / f"out{k}"
        assert run([command, "--config", cfg, "--out", str(out)]) == 0
        for name, h in hashes.items():
            h.update(re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": ""',
                            (out / name).read_bytes()))
    assert {name: h.hexdigest() for name, h in hashes.items()} == digests


class TestRateSweep:
    def test_single_point_grid(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           horizon_grid=[1000])
        assert run(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "rate_sweep.csv").read_text().splitlines()
        assert lines[0] == "horizon,epsilon,delta,log_delta,radius,feasible"
        assert len(lines) == 2
        payload = json.loads((tmp_path / "out" / "rate_analysis.json").read_text())
        assert payload["analysis"]["slope"] is None

    def test_grid_slope_and_monotone_delta(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           horizon_grid=[10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
        assert run(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "rate_analysis.json").read_text())
        slope = payload["analysis"]["slope"]
        ceiling = payload["analysis"]["epsilon_ceiling"]
        assert abs(slope + ceiling) / ceiling <= 0.10
        logs = [p["log_delta"] for p in payload["analysis"]["points"]]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_analysis_names_its_process(self, tmp_path):
        # The bounds are per unit variance, so the files of two noise
        # variances differ only where they name the process.
        payloads = []
        for sigma2 in (1.0, 1.7):
            cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=sigma2,
                               horizon_grid=[1000, 5000], direction="uniform")
            out = tmp_path / f"out{sigma2}"
            assert run(["rate-sweep", "--config", cfg, "--out", str(out)]) == 0
            payload = json.loads((out / "rate_analysis.json").read_text())
            payload["meta"]["generated_at"] = ""
            payloads.append(payload)
        first, second = payloads
        assert (first["process"]["noise_variance"], second["process"]["noise_variance"]) == (
            1.0, 1.7)
        second["process"]["noise_variance"] = 1.0
        assert first == second

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           horizon_grid=[100, 1000, 10_000])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["rate-sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["rate-sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "rate_sweep.csv").read_bytes() == (out_b / "rate_sweep.csv").read_bytes()

    def test_certify_ceiling_rule_matches_sweep_points(self, tmp_path):
        # Both commands set epsilon = ceiling - N^{-1/2} through one rule:
        # certify with "ceiling-rule" at N reports the sweep's point at N, bit
        # for bit, writes the epsilon bits of that rate_sweep.csv row (null
        # where the row's is not positive), and both call the same horizons
        # infeasible.
        grid = [3, 4, 5, 50, 1000, 5000]
        base = dict(coeffs=[0.3, 0.4], noise_variance=1.0, direction="e1")
        cfg = write_config(tmp_path, name="sweep.json", horizon_grid=grid, **base)
        assert run(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
        analysis = json.loads((tmp_path / "sweep" / "rate_analysis.json").read_text())
        with open(tmp_path / "sweep" / "rate_sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        infeasible = []
        for point, row in zip(analysis["analysis"]["points"], rows, strict=True):
            horizon, out = point["horizon"], tmp_path / f"certify-{point['horizon']}"
            cfg = write_config(tmp_path, name=f"{horizon}.json", epsilon="ceiling-rule",
                               horizon=horizon, **base)
            assert run(["certify", "--config", cfg, "--out", str(out)]) == 0
            cert = json.loads((out / "certificate.json").read_text())
            assert cert["feasible"] is point["feasible"]
            if not point["feasible"]:
                infeasible.append(horizon)
            assert int(row["horizon"]) == horizon
            if cert["epsilon"] is None:
                assert point["epsilon"] <= 0.0 and point["delta"] is None
                assert float(row["epsilon"]) <= 0.0
                continue
            assert cert["epsilon"] == point["epsilon"]
            assert cert["epsilon"].hex() == float(row["epsilon"]).hex()
            assert cert["covariance"]["delta"] == point["delta"]
            assert cert["covariance"]["log_delta"] == point["log_delta"]
            radius = cert["deviations"]["e1"]["radius"] if cert["feasible"] else None
            assert radius == point["radius"]
        assert infeasible == [3, 4]


class TestSimulate:
    def test_trajectory_dump(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           horizon=50, seed=4)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "y"
        assert len(lines) == 1 + 50 + 2  # header + horizon + pre-samples

    def test_deterministic_and_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, horizon=40, seed=8)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert run(["simulate", "--config", cfg, "--out", str(outs[0])]) == 0
        assert run(["simulate", "--config", cfg, "--out", str(outs[1])]) == 0
        assert run(["simulate", "--config", cfg, "--out", str(outs[2]), "--seed", "9"]) == 0
        a, b, c = [(o / "trajectory.csv").read_bytes() for o in outs]
        assert a == b
        assert a != c

    def test_bad_horizon_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           horizon=1, seed=8)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_huge_horizon_rejected_quickly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                           horizon=10 ** 12, seed=8)
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert time.perf_counter() - started < 1.0
        assert peak < 2 ** 20
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_horizon_ceiling_inclusive(self, tmp_path, monkeypatch):
        import arcert.cli as cli_module

        monkeypatch.setattr(cli_module, "MAX_SIMULATE_HORIZON", 50)
        for horizon, code in ((50, 0), (51, 2)):
            cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0,
                               horizon=horizon, seed=8)
            assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == code

    def test_config_fields_parsed(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=2.0, horizon=10, seed=3)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        simulate_stationary(ArProcess(coeffs=[0.5], noise_variance=2.0), 10, 3).to_csv(
            tmp_path / "direct.csv")
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "direct.csv").read_bytes())

    @pytest.mark.parametrize("missing", ["coeffs", "noise_variance", "horizon", "seed"])
    def test_missing_field_named(self, tmp_path, capsys, missing):
        doc = {"coeffs": [0.5], "noise_variance": 1.0, "horizon": 10, "seed": 3}
        doc.pop(missing)
        cfg = write_config(tmp_path, **doc)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"'{missing}'" in capsys.readouterr().err

    def test_unstable_coeffs_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[1.5], noise_variance=1.0, horizon=10, seed=3)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "Schur" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_named(self, tmp_path, capsys, source):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, horizon=10,
                           seed=-1 if source == "config" else 3)
        flag = ["--seed", "-1"] if source == "flag" else []
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")] + flag) == 2
        assert "'seed'" in capsys.readouterr().err

    # SHA-256 of trajectory.csv for three processes at N = 2100, which crosses
    # two chunk edges.  The digests pin the recursion's bits and the repr text
    # together.  The pre-samples come from an eigendecomposition, so another
    # LAPACK build could move their last bits and with them every digest;
    # test_process.py's whole-horizon comparisons hold on any build.
    @pytest.mark.parametrize("coeffs, digest", [
        pytest.param([0.5], "effc702ba410f3aaed130e273007d8ece682a8339dc86f4bbd6c5cc4aaf0e67a",
                     id="ar1"),
        pytest.param([0.3, 0.4],
                     "f2fb30a92732f582abb8a45ddc5b84ba940794f22906a03ae7d8202680bdef94",
                     id="ar2"),
        pytest.param([0.3, -0.2, 0.15, 0.1, -0.1, 0.05],
                     "e4dfd7edeff0596f00ecdaf3cc310cfff97d2181df4d16c750ae9a7ac771b295",
                     id="ar6"),
    ])
    def test_trajectory_bytes_pinned(self, tmp_path, coeffs, digest):
        cfg = write_config(tmp_path, coeffs=coeffs, noise_variance=1.0, horizon=2100, seed=3)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_seed_flag_without_config_seed(self, tmp_path):
        # As for montecarlo, --seed stands in for a missing config seed.
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, horizon=40)
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                    "--seed", "9"]) == 0
        full = write_config(tmp_path, "full.json", coeffs=[0.5], noise_variance=1.0,
                            horizon=40, seed=9)
        assert run(["simulate", "--config", full, "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())


def plain(value):
    """Reference JSON form written out independently of the CLI: dataclasses
    as field dicts, arrays and tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def assert_csv_cells(path, cls, rows):
    """Parse a CSV output back and check every cell against the dataclass
    value it was written from."""
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == field_names(cls)
    assert len(table) == 1 + len(rows)
    for line, row in zip(table[1:], rows):
        for cell, name in zip(line, table[0], strict=True):
            value = getattr(row, name)
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                assert type(value)(cell) == value, (name, cell, value)
            else:
                assert cell == value


class TestCsvOutputs:
    """The CSV outputs are the result dataclasses, one row per instance."""

    def test_coverage_csv(self, tmp_path):
        cfg = write_config(tmp_path, **dict(AR1_MC, direction=["e1", [2.0]]))
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        process = ArProcess(coeffs=[0.5], noise_variance=1.0)
        stats = stationary_stats(build_companion(process), 1.0)
        epsilon = 0.5 * max_feasible_epsilon(process, stats)
        report = run_campaign(CampaignConfig(
            inputs=BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=3000),
            trials=150, master_seed=99,
            directions=(("e1", np.array([1.0])), ("w2", np.array([1.0])))))
        assert_csv_cells(tmp_path / "out" / "coverage.csv", EventCoverage, report.events)

    def test_rate_sweep_csv(self, tmp_path):
        # N = 3 is infeasible, so its row has empty cells and "false".
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           horizon_grid=[3, 100, 1000, 10_000])
        assert run(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        process = ArProcess(coeffs=[0.3, 0.4], noise_variance=1.0)
        stats = stationary_stats(build_companion(process), 1.0)
        analysis = rate_analysis(process, stats, [3, 100, 1000, 10_000], [1.0, 0.0])
        assert analysis.points[0].delta is None and analysis.points[0].feasible is False
        assert_csv_cells(tmp_path / "out" / "rate_sweep.csv", RatePoint, analysis.points)


class TestJsonOutputs:
    """The JSON outputs are the result dataclasses, field for field."""

    def test_certificate_json(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=2.0,
                           epsilon=0.2, horizon=4000, direction=["e1", "uniform"])
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert list(payload) == ["process", "horizon", "epsilon_policy", "epsilon_ceiling",
                                 "meta", "epsilon", "feasible", "covariance", "deviations"]
        assert field_names(ArProcess) == list(payload["process"]) \
            == ["coeffs", "noise_variance"]
        assert field_names(CovarianceCertificate) == list(payload["covariance"]) == [
            "lower", "upper", "delta", "failure_terms", "energy_scale", "log_delta",
            "feasible", "epsilon", "horizon"]
        assert field_names(DeviationCertificate) == list(payload["deviations"]["e1"]) \
            == ["direction", "radius", "total_failure", "vacuous"]

        process = ArProcess(coeffs=[0.3, 0.4], noise_variance=2.0)
        stats = stationary_stats(build_companion(process), 2.0)
        inputs = BoundInputs(process=process, stats=stats, epsilon=0.2, horizon=4000)
        cert = covariance_certificate(inputs)
        assert payload["process"] == {"coeffs": [0.3, 0.4], "noise_variance": 2.0}
        assert payload["epsilon_ceiling"] == max_feasible_epsilon(process, stats)
        assert payload["covariance"] == plain(cert)
        half = 1.0 / np.sqrt(2.0)  # the CLI's "uniform" direction
        for label, w in (("e1", [1.0, 0.0]), ("uniform", [half, half])):
            assert payload["deviations"][label] == plain(deviation_radius(inputs, w))

    def test_coverage_json(self, tmp_path):
        cfg = write_config(tmp_path, **AR1_MC)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "coverage.json").read_text())
        assert list(payload) == ["report", "epsilon_policy", "meta"]
        assert field_names(CoverageReport) == list(payload["report"]) == [
            "trials", "master_seed", "horizon", "epsilon", "process", "events",
            "sandwich_chain_violations", "deviation_chain_violations", "trial_errors"]
        assert field_names(EventCoverage) == list(payload["report"]["events"][0]) == [
            "event", "bound", "failures", "evaluated", "frequency", "stderr", "verdict"]

        process = ArProcess(coeffs=[0.5], noise_variance=1.0)
        stats = stationary_stats(build_companion(process), 1.0)
        epsilon = 0.5 * max_feasible_epsilon(process, stats)
        report = run_campaign(CampaignConfig(
            inputs=BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=3000),
            trials=150, master_seed=99, directions=(("e1", np.array([1.0])),)))
        assert payload["report"] == plain(report)

    def test_coverage_and_certificate_write_one_process_form(self, tmp_path):
        cfg = write_config(tmp_path, **dict(AR1_MC, coeffs=[0.3, 0.4], noise_variance=1.7,
                                            allow_vacuous=True))
        for command in ("certify", "montecarlo"):
            assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        certificate = json.loads((tmp_path / "out" / "certificate.json").read_text())
        coverage = json.loads((tmp_path / "out" / "coverage.json").read_text())
        # Items, not dicts, so the key order is compared too.
        assert list(coverage["report"]["process"].items()) \
            == list(certificate["process"].items()) \
            == [("coeffs", [0.3, 0.4]), ("noise_variance", 1.7)]

    def test_rate_analysis_json(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           horizon_grid=[3, 100, 1000, 10_000], direction="uniform")
        assert run(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "rate_analysis.json").read_text())
        assert list(payload) == ["process", "direction", "analysis", "meta"]
        assert payload["process"] == {"coeffs": [0.3, 0.4], "noise_variance": 1.0}
        assert field_names(RateAnalysis) == list(payload["analysis"]) == [
            "epsilon_ceiling", "multiplicity", "slow_directions", "points", "slope"]
        assert field_names(RatePoint) == list(payload["analysis"]["points"][0]) == [
            "horizon", "epsilon", "delta", "log_delta", "radius", "feasible"]

        process = ArProcess(coeffs=[0.3, 0.4], noise_variance=1.0)
        stats = stationary_stats(build_companion(process), 1.0)
        half = 1.0 / np.sqrt(2.0)  # the CLI's "uniform" direction
        analysis = rate_analysis(process, stats, [3, 100, 1000, 10_000], [half, half])
        assert payload["analysis"] == plain(analysis)
        assert payload["analysis"]["points"][0]["feasible"] is False


class TestResolveDirection:
    def test_basis_shorthand(self):
        label, w = _resolve_direction("e2", 3, "w1")
        assert label == "e2"
        np.testing.assert_array_equal(w, [0.0, 1.0, 0.0])

    def test_uniform(self):
        label, w = _resolve_direction("uniform", 4, "w1")
        assert label == "uniform"
        np.testing.assert_allclose(w, 0.5 * np.ones(4))

    def test_vector_normalised(self):
        label, w = _resolve_direction([3.0, 4.0], 2, fallback_label="w1")
        assert label == "w1"
        np.testing.assert_allclose(w, [0.6, 0.8])

    @pytest.mark.parametrize("vector", [[1e-200, 1e-200], [1e-170, 1e-170], [1e200, 1e200],
                                        [3e-160, 4e-160]])
    def test_vector_near_the_ends_of_double_range(self, vector):
        # The squares of these entries underflow or overflow; the vector,
        # scaled by its largest entry first, does not.
        label, w = _resolve_direction(vector, 2, fallback_label="w1")
        assert label == "w1"
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-15

    def test_tiny_vector_certifies_like_its_unit_multiple(self, tmp_path):
        radii = []
        for name, vector in (("tiny", [1e-200, 1e-200]), ("ones", [1.0, 1.0])):
            cfg = write_config(tmp_path, f"{name}.json", coeffs=[0.3, 0.4], noise_variance=1.0,
                               epsilon={"fraction_of_ceiling": 0.5}, horizon=5000,
                               direction=vector)
            assert run(["certify", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            payload = json.loads((tmp_path / name / "certificate.json").read_text())
            radii.append(payload["deviations"]["w1"]["radius"])
        assert radii[0] == radii[1]

    def test_errors(self):
        with pytest.raises(ConfigError):
            _resolve_direction("e5", 2, "w1")
        with pytest.raises(ConfigError):
            _resolve_direction("sideways", 2, "w1")
        with pytest.raises(ConfigError):
            _resolve_direction([0.0, 0.0], 2, "w1")


# Numeric fields holding an integer beyond float range, with the commands
# that parse each field: (id label, field, value, commands).
BEYOND_FLOAT = [
    ("coeffs", "coeffs", [10 ** 400], ("certify", "montecarlo", "rate-sweep", "simulate")),
    ("noise-variance", "noise_variance", 10 ** 400,
     ("certify", "montecarlo", "rate-sweep", "simulate")),
    ("epsilon", "epsilon", 10 ** 400, ("certify", "montecarlo")),
    ("fraction", "epsilon", {"fraction_of_ceiling": 10 ** 400}, ("certify", "montecarlo")),
    ("direction", "direction", [10 ** 400], ("certify", "montecarlo", "rate-sweep")),
]


@pytest.mark.parametrize("command, field, value", [
    *[pytest.param(command, field, value, id=f"{command}-{label}-beyond-float")
      for label, field, value, commands in BEYOND_FLOAT for command in commands],
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": None}, id="null-fraction"),
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": [0.5]}, id="list-fraction"),
    pytest.param("certify", "direction", {"x": 1}, id="certify-dict-direction"),
    pytest.param("montecarlo", "direction", {"x": 1}, id="montecarlo-dict-direction"),
    pytest.param("montecarlo", "direction", [1.0, None], id="null-in-vector"),
    pytest.param("rate-sweep", "direction", {"x": 1}, id="sweep-dict-direction"),
    pytest.param("rate-sweep", "direction", [], id="no-direction"),
    pytest.param("certify", "direction", ["e1", "E1"], id="certify-repeated-direction"),
    pytest.param("certify", "direction", ["e1", "e01"], id="certify-zero-padded-direction"),
    pytest.param("montecarlo", "direction", ["uniform", "uniform"],
                 id="montecarlo-repeated-direction"),
    pytest.param("rate-sweep", "direction", ["e1", "e1"], id="sweep-repeated-direction"),
    pytest.param("rate-sweep", "direction", ["e1", "uniform"], id="sweep-two-directions"),
    pytest.param("certify", "horizon", 10 ** 400, id="certify-horizon-beyond-float"),
    pytest.param("montecarlo", "horizon", 10 ** 400, id="montecarlo-horizon-beyond-float"),
    pytest.param("rate-sweep", "horizon_grid", [1000, 10 ** 400],
                 id="sweep-horizon-beyond-float"),
    pytest.param("simulate", "output_dir", 5, id="number-output-dir"),
    # Values whose certificate numbers overflow, which JSON cannot hold.
    pytest.param("certify", "epsilon", 1e-320, id="epsilon-energy-scale-overflows"),
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": 1e-320},
                 id="fraction-energy-scale-overflows"),
    # The same epsilon rule for every command: a campaign is refused, not
    # run with every row vacuous.
    pytest.param("montecarlo", "epsilon", 1e-320, id="montecarlo-epsilon-energy-scale-overflows"),
    pytest.param("montecarlo", "epsilon", {"fraction_of_ceiling": 1e-320},
                 id="montecarlo-fraction-energy-scale-overflows"),
    # Non-ASCII digits: a superscript two and an Arabic-Indic one.
    *[pytest.param(command, "direction", spec, id=f"{command}-direction-{label}")
      for command in ("certify", "montecarlo", "rate-sweep")
      for label, spec in (("superscript-digit", "e\u00b2"), ("arabic-indic-digit", "e\u0661"))],
    pytest.param("certify", "noise_variance", 1e305, id="noise-variance-sandwich-overflows"),
    pytest.param("certify", "output_dir", ["out"], id="list-output-dir"),
    pytest.param("certify", "noise_variance", 0, id="zero-noise-variance"),
    *[pytest.param(command, "epsilon", value, id=f"{command}-{label}-epsilon")
      for command in ("certify", "montecarlo") for label, value in (("negative", -1.0),
                                                                    ("zero", 0.0))],
    pytest.param("certify", "epsilon", "half", id="string-epsilon"),
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": 0.5, "x": 1},
                 id="fraction-extra-key"),
    pytest.param("certify", "direction", [1.0, 2.0], id="certify-direction-wrong-length"),
    pytest.param("montecarlo", "direction", [1.0, 2.0], id="montecarlo-direction-wrong-length"),
    pytest.param("rate-sweep", "horizon_grid", "x", id="string-horizon-grid"),
    pytest.param("rate-sweep", "horizon_grid", [], id="empty-horizon-grid"),
    pytest.param("rate-sweep", "horizon_grid", [2000, 1000], id="decreasing-horizon-grid"),
])
def test_malformed_field_named(tmp_path, capsys, command, field, value):
    doc = dict(AR1_MC, horizon_grid=[1000], output_dir=str(tmp_path / "out"))
    doc[field] = value
    cfg = write_config(tmp_path, **doc)
    assert run([command, "--config", cfg]) == 2
    assert field in capsys.readouterr().err


# Fields malformed only for some process: (command, the fields that differ
# from the AR(1) config, the field named, the error it must give).
@pytest.mark.parametrize("command, overrides, field, message", [
    pytest.param("montecarlo", dict(coeffs=[0.3, 0.4], horizon=4), "horizon",
                 "at least 2 * order + 1", id="montecarlo-ar2-horizon-4"),
    pytest.param("rate-sweep", dict(coeffs=[0.3, 0.4], horizon_grid=[2]), "horizon_grid",
                 "every horizon must exceed the process order", id="sweep-ar2-horizon-2"),
    # The AR(3) ceiling is 0.33, below 8^{-1/2}: the ceiling rule has no epsilon.
    pytest.param("montecarlo", dict(coeffs=[0.2, -0.3, 0.1], horizon=8, epsilon="ceiling-rule"),
                 "epsilon", "policy 'ceiling-rule' is infeasible at horizon 8",
                 id="montecarlo-ar3-ceiling-rule-infeasible"),
    # 5e-324 times that ceiling underflows to an epsilon of 0.
    *[pytest.param(command, dict(coeffs=[0.2, -0.3, 0.1],
                                 epsilon={"fraction_of_ceiling": 5e-324}),
                   "epsilon", "got 0.0", id=f"{command}-ar3-fraction-underflows-to-zero")
      for command in ("certify", "montecarlo")],
])
def test_malformed_field_named_for_process(tmp_path, capsys, command, overrides, field,
                                           message):
    doc = {**AR1_MC, "horizon_grid": [1000], "output_dir": str(tmp_path / "out"), **overrides}
    cfg = write_config(tmp_path, **doc)
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert field in err and message in err


# Numbers written as strings or booleans, which float() or int arithmetic
# would read as numbers: (command, field, value, the error it must give).
@pytest.mark.parametrize("command, field, value, message", [
    pytest.param("certify", "coeffs", "0.5", "field 'coeffs': must be a number",
                 id="string-coeffs"),
    pytest.param("certify", "coeffs", ["0.5"], "field 'coeffs': must be a number",
                 id="string-in-coeffs"),
    pytest.param("certify", "noise_variance", "2", "field 'noise_variance': must be a number",
                 id="string-noise-variance"),
    pytest.param("certify", "noise_variance", True, "field 'noise_variance': must be a number",
                 id="bool-noise-variance"),
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": "0.5"},
                 "field 'epsilon.fraction_of_ceiling': must be a number", id="string-fraction"),
    pytest.param("certify", "epsilon", {"fraction_of_ceiling": True},
                 "field 'epsilon.fraction_of_ceiling': must be a number", id="bool-fraction"),
    pytest.param("rate-sweep", "horizon_grid", [True, 1000],
                 "field 'horizon_grid': must be an integer", id="bool-in-horizon-grid"),
])
def test_number_as_string_or_bool_rejected(tmp_path, capsys, command, field, value, message):
    doc = dict(AR1_MC, horizon_grid=[1000], output_dir=str(tmp_path / "out"))
    doc[field] = value
    cfg = write_config(tmp_path, **doc)
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("field '") == 1


@pytest.mark.parametrize("command", ["certify", "montecarlo", "rate-sweep", "simulate"])
def test_output_dir_that_is_a_file_rejected_before_work(tmp_path, capsys, monkeypatch,
                                                        command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    monkeypatch.setattr(cli_module, "stationary_stats", no_work)
    monkeypatch.setattr(cli_module, "simulate_stationary", no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    cfg = write_config(tmp_path, **dict(AR1_MC, horizon_grid=[1000]))
    for out in (blocker, blocker / "sub"):
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "output_dir" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command, name", [
    ("certify", "certificate.json"), ("certify", "summary.txt"),
    ("montecarlo", "coverage.json"), ("montecarlo", "coverage.csv"),
    ("rate-sweep", "rate_sweep.csv"), ("rate-sweep", "rate_analysis.json"),
    ("simulate", "trajectory.csv"),
])
def test_unwritable_output_file_exit_two(tmp_path, capsys, command, name):
    # A directory standing where an output file goes: the directory itself
    # is usable, so only the write can find out.
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(tmp_path, **dict(AR1_MC, horizon_grid=[1000]))
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output_dir" in err and name in err
    assert (out / name).is_dir()


def test_missing_config_file_exit_two(tmp_path, capsys):
    assert run(["certify", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{"coeffs": [0.5],', "invalid JSON"),
    (b"[0.5]", "top level must be a JSON object"),
    (b'{"coeffs": [0.5]}\xff', "can't decode byte 0xff"),
    (b'{"horizon": ' + b"1" * 5000 + b"}", "invalid JSON (Exceeds the limit"),
    (b"[" * 100_000, "invalid JSON (maximum recursion depth"),
], ids=["invalid-json", "top-level-list", "not-utf8", "integer-over-digit-limit",
        "nested-too-deep"])
def test_unusable_config_file_exit_two(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run(["certify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config file '{path}'" in err and message in err


class TestRepeatedMain:
    """main() is called many times in one process (the benchmark loop, these
    tests): the parser is built once and no call leaves state for the next."""

    def test_warm_main_builds_no_parser(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, epsilon=0.5,
                           horizon=5000, horizon_grid=[1000], seed=3)
        out = str(tmp_path / "out")
        assert run(["certify", "--config", cfg, "--out", out]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for command in ("certify", "rate-sweep", "simulate"):
            assert run([command, "--config", cfg, "--out", out]) == 0
        assert built == []

    def test_flags_do_not_carry_over(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, horizon=200,
                           seed=11, output_dir=str(tmp_path / "config_out"))
        assert run(["simulate", "--config", cfg, "--seed", "5",
                    "--out", str(tmp_path / "a")]) == 0
        assert run(["simulate", "--config", cfg]) == 0
        assert run(["simulate", "--config", cfg, "--seed", "11",
                    "--out", str(tmp_path / "b")]) == 0
        plain_run = (tmp_path / "config_out" / "trajectory.csv").read_bytes()
        assert plain_run == (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert plain_run != (tmp_path / "a" / "trajectory.csv").read_bytes()

    def test_valid_call_after_argparse_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coeffs=[0.5], noise_variance=1.0, epsilon=0.5,
                           horizon=5000)
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            run(["certify", "--config", cfg, "--out", out, "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(["certify", "--config", cfg, "--out", out]) == 0


def test_cli_import_loads_no_optional_module():
    # numpy is the one runtime dependency.  scipy is installed beside the
    # test extras in many environments, and importing scipy.signal alone
    # costs a command about 0.8 s and 68 MB of peak RSS (2-core x86-64 VM).
    code = ("import sys, arcert.cli; print(sorted({name.partition('.')[0] for name in "
            "sys.modules} & {'scipy', 'mpmath', 'hypothesis', 'pytest'}))")
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"
