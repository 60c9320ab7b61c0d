"""What the benchmark under ``bench/`` uses of the package.

The benchmark imports arcert from the source tree and wraps its public
functions by module and name, so a deletion or rename in ``src/`` can break it
without breaking any other test.  These checks fail first.
"""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arcert.cli
import arcert.montecarlo
import arcert.process
import arcert.stationary
from arcert import (
    ArProcess,
    BoundInputs,
    build_companion,
    covariance_certificate,
    max_feasible_epsilon,
    stationary_stats,
)

ROOT = Path(__file__).resolve().parents[1]

#: Spans that bench/run.py ``_per_layer`` reads, as "<module>.<function>"
#: (checked against its source below).  ``process.to_csv`` is the one method
#: span and is checked on its own.  ``_per_layer`` also reads
#: "linalg.solve_discrete_lyapunov", a function the library no longer has:
#: its two metrics read 0, as they did while nothing called it.
PER_LAYER_SPANS = [
    "process.ar_recursion",
    "process.simulate_batch",
    "process.simulate_stationary",
    "process.substream",
    "montecarlo.run_campaign",
    "certificates.rate_analysis",
    "certificates.covariance_certificate",
    "certificates.deviation_radius",
    "certificates.max_feasible_epsilon",
    "stationary.stationary_stats",
    "stationary.peak_transfer_gain",
    "linalg.symmetric_sqrt",
]


def test_certificate_calls():
    # The benchmark solves the stats from its own process's companion and
    # noise variance; the stats keep a copy of the coefficients alone, which
    # the certificates' same-process check compares.
    process = ArProcess(coeffs=[0.3, 0.4], noise_variance=1.0)
    stats = stationary_stats(build_companion(process), process.noise_variance)
    assert stats.coeffs is not process.coeffs
    epsilon = 0.5 * max_feasible_epsilon(process, stats)
    cert = covariance_certificate(BoundInputs(process=process, stats=stats, epsilon=epsilon,
                                              horizon=5000))
    assert cert.feasible


def test_stability_checked_once_per_stationary_stats(monkeypatch):
    # stationary_stats' span includes the one stability check, made where it
    # reads the companion into an ArProcess; peak_transfer_gain's makes none.
    process = ArProcess(coeffs=[0.3, 0.4], noise_variance=1.0)
    a = build_companion(process)
    calls = []
    check = arcert.process.check_schur_stable
    monkeypatch.setattr(arcert.process, "check_schur_stable",
                        lambda coeffs: calls.append(1) or check(coeffs))
    stats = stationary_stats(a, 1.0)
    assert len(calls) == 1
    arcert.stationary.peak_transfer_gain(process)
    assert len(calls) == 1


def test_simulate_batch_reexported_by_montecarlo():
    # The span tracer wraps it in the montecarlo namespace.
    assert arcert.montecarlo.simulate_batch is arcert.process.simulate_batch


def test_simulate_stationary_runs_ar_recursion(monkeypatch):
    # The tracer's process.ar_recursion span times simulate's recursion on
    # oneshot-cli; a one-seed loop that bypassed the module attribute would
    # leave the span reading 0.
    calls = []
    recursion = arcert.process.ar_recursion
    monkeypatch.setattr(arcert.process, "ar_recursion",
                        lambda *args, **kwargs: calls.append(1) or recursion(*args, **kwargs))
    arcert.process.simulate_stationary(ArProcess(coeffs=[0.3, 0.4]), 50, 1)
    assert calls


def per_layer_span_names() -> set[str]:
    """Span names that bench/run.py ``_per_layer`` reads from its ``incl``,
    ``own`` and ``calls`` tables: string subscripts, and in its loops over a
    tuple of names, each name behind the subscript's f-string prefix."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    [func] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_per_layer"]

    def table_keys(node):
        return [sub.slice for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id in ("incl", "own", "calls")]

    names = {key.value for key in table_keys(func) if isinstance(key, ast.Constant)}
    for loop in ast.walk(func):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
            for key in table_keys(loop):
                prefix = key.values[0].value if isinstance(key, ast.JoinedStr) else ""
                names.update(prefix + elt.value for elt in loop.iter.elts)
    return names


def test_per_layer_spans_match_bench_source():
    names = per_layer_span_names()
    assert len(names) == 14
    assert names - {"process.to_csv", "linalg.solve_discrete_lyapunov"} \
        == set(PER_LAYER_SPANS)


@pytest.mark.parametrize("span", PER_LAYER_SPANS)
def test_per_layer_span_is_public_function(span):
    module_name, name = span.split(".")
    module = importlib.import_module(f"arcert.{module_name}")
    func = vars(module).get(name)
    assert inspect.isfunction(func) and func.__module__ == module.__name__


def test_to_csv_span_is_trajectory_method():
    assert inspect.isfunction(vars(arcert.process.Trajectory).get("to_csv"))


@pytest.mark.parametrize("workload", ["mc-long", "oneshot-cli"])
def test_tiny_run_is_correct(workload):
    # The benchmark's own check of every certificate and implication, on
    # shrunken inputs; it writes only the ignored .bench_out/ and .bench_work/.
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, result.stdout


def test_traced_campaign_counts_every_trial():
    # The tracer keeps one span stack; a campaign's batches open their spans
    # on a pool worker while the main thread waits inside run_campaign's span.
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-long", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, result.stdout
    metrics = summary["metrics"]
    assert metrics["process.substream.calls"]["value"] \
        == metrics["montecarlo.trials_evaluated"]["value"] > 0


def test_main_looks_up_handler_at_call_time(tmp_path, monkeypatch):
    # The tracer wraps arcert.cli.cmd_* by module attribute, and cli.main.self_s
    # rests on those spans, so a warm main() must call what the attribute holds.
    config = tmp_path / "certify.json"
    config.write_text(json.dumps({"coeffs": [0.5], "noise_variance": 1.0,
                                  "epsilon": 0.5, "horizon": 5000}))
    argv = ["certify", "--config", str(config), "--out", str(tmp_path / "out")]
    assert arcert.cli.main(argv) == 0
    calls = []

    def stub(args):
        calls.append(args.command)
        return 0

    monkeypatch.setattr(arcert.cli, "cmd_certify", stub)
    assert arcert.cli.main(argv) == 0
    assert calls == ["certify"]
