"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest bench -q

Runs every workload once untraced and once traced with ``--tiny``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import arcert  # noqa: E402
from arcert import ArProcess, ConvergenceError, build_companion, stationary_stats  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Metrics named after the commands, printed (not gated) per workload.
DETAIL = {
    "mc-long": ["trials_per_s"],
    "oneshot-cli": ["certify_p50_ms", "certify_p95_ms", "sweep_p50_ms", "sweep_p95_ms",
                    "simulate_samples_per_s"],
}

#: An AR(8) that the oneshot-cli pool drew before COEFF_L1_MAX bounded it
#: (workload seed 1996151547, process 87): l1 norm 27.3, spectral radius 0.945.
CLUSTERED_POLES_AR8 = [4.69949818406541, -8.757256044433852, 7.639449995718014,
                       -2.0155058955713896, -1.7926502176999795, 1.7338231339568202,
                       -0.5784750162877226, 0.07110408097301613]


@pytest.fixture(scope="module")
def runs():
    """(stdout lines, full result) per (workload, trace)."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--tiny"])
            assert code == 0
            result_file = run.RESULTS / f"{workload}-seed1-trace{trace}.json"
            out[workload, trace] = (buf.getvalue().splitlines(),
                                    json.loads(result_file.read_text(encoding="utf-8")))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_prints_every_metric_with_its_unit(runs, workload, trace):
    lines, _ = runs[workload, trace]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in last["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec]
    for m in spec:
        assert any(line.startswith(f"metrics: {m['name']} = ") and m["unit"] in line
                   for line in lines), m["name"]
    if not trace:
        for name in DETAIL[workload] + ["failed_frac"]:
            assert any(line.startswith(f"detail: {name} = ") for line in lines), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_runs_have_no_wrapper(runs, workload):
    for trace in (0, 1):
        result = runs[workload, trace][1]
        assert result["wrappers_installed_untraced"] == 0
        assert result["wrappers_left_after_run"] == 0


def test_traced_run_restores_every_patched_attribute():
    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr, _, _ in tracing._targets(arcert)}
    tracer = tracing.Tracer()
    tracer.install(arcert)
    try:
        assert tracing.count_wrappers(arcert) == len(before)
        assert arcert.montecarlo.simulate_batch is not before[
            id(arcert.montecarlo), "simulate_batch"]
    finally:
        restored = tracer.restore()
    assert len(restored) == len(before)
    for owner, attr, func in restored:
        assert vars(owner)[attr] is func is before[id(owner), attr]
    assert tracing.count_wrappers(arcert) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_traced_wall(runs, workload):
    metrics = runs[workload, 1][1]["metrics"]
    wall = metrics["trace.traced_wall_s"]["value"]
    overhead = metrics["trace.overhead_s"]["value"]
    unattributed = metrics["trace.unattributed_s"]["value"]
    # Time outside every span is the outermost wrapper's own cost, so it is
    # part of the tracing overhead.  The measured overhead is a difference of
    # two noisy wall times; when noise drives it below zero, 0.1% of the
    # traced wall time stands in for it.
    assert 0.0 <= unattributed <= max(overhead, 1e-3 * wall)


def test_pool_bound_excludes_the_clustered_pole_process():
    assert sum(abs(a) for a in CLUSTERED_POLES_AR8) > workloads.COEFF_L1_MAX


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="known program defect: solve_discrete_lyapunov misses its "
                          "residual tolerance on this process (README.md, Known gaps)")
def test_lyapunov_solves_clustered_pole_process():
    """The defect COEFF_L1_MAX keeps out of oneshot-cli.  When this passes,
    the bound can go and the pool can take every Schur-stable process."""
    process = ArProcess(coeffs=CLUSTERED_POLES_AR8, noise_variance=1.0)
    stationary_stats(build_companion(process), process.noise_variance)
