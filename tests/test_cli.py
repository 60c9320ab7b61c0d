import json

import pytest

from arcert import ConvergenceError, CoverageReport
from arcert.cli import main


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


AR1_MC = dict(coeffs=[0.5], noise_variance=1.0, epsilon={"fraction_of_ceiling": 0.5},
              horizon=3000, trials=150, seed=99)


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

    def test_round_trip_certificate(self, tmp_path):
        from arcert import CovarianceCertificate

        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=2.0,
                           epsilon=0.2, horizon=4000)
        assert run(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        cert = CovarianceCertificate.from_dict(payload["covariance"])
        assert cert.to_dict() == payload["covariance"]


class TestMontecarlo:
    def test_smoke_campaign(self, tmp_path):
        cfg = write_config(tmp_path, **AR1_MC)
        code = run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = CoverageReport.from_dict(
            json.loads((tmp_path / "out" / "coverage.json").read_text())["report"]
        )
        assert report.trials == 150
        assert report.sandwich_chain_violations == 0

    def test_missing_trials_named(self, tmp_path, capsys):
        payload = dict(AR1_MC)
        payload.pop("trials")
        cfg = write_config(tmp_path, **payload)
        assert run(["montecarlo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "trials" in capsys.readouterr().err

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

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, coeffs=[0.3, 0.4], noise_variance=1.0,
                           horizon_grid=[100, 1000, 10_000])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["rate-sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert run(["rate-sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "rate_sweep.csv").read_bytes() == (out_b / "rate_sweep.csv").read_bytes()


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


def test_missing_config_file_exit_two(tmp_path, capsys):
    assert run(["certify", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err
