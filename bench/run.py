"""arcert benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload mc-long --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The arcert sources are imported from
``src/`` of that checkout.  With ``--trace 0`` the run times the workload
for ``--seconds`` seconds with no wrapper installed and reports the
end-to-end metrics.  With ``--trace 1`` it replays a fixed number of
operations twice, untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the machine manifest, goes to ``.bench_out/``.  Metric
definitions are in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

#: Fresh interpreters started per run, spread over it, to time set-up; the
#: median is reported.
SETUP_SPAWNS = 7

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics, reported by every workload (name, unit).
END_TO_END = (
    ("throughput_p10_per_s", "1/s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics of a traced run (name, unit).
PER_LAYER = (
    ("process.ar_recursion.s", "s"),
    ("process.draws.s", "s"),
    ("process.substream.s", "s"),
    ("process.substream.calls", "count"),
    ("process.to_csv.s", "s"),
    ("process.to_csv.bytes", "B"),
    ("process.samples", "count"),
    ("montecarlo.kernel.self_s", "s"),
    ("montecarlo.kernel.bytes_computed", "B"),
    ("montecarlo.kernel.flops_computed", "flop"),
    ("montecarlo.trials_evaluated", "count"),
    ("montecarlo.trial_errors", "count"),
    ("stationary.stationary_stats.s", "s"),
    ("stationary.stationary_stats.calls", "count"),
    ("stationary.peak_transfer_gain.s", "s"),
    ("stationary.peak_transfer_gain.calls", "count"),
    ("linalg.solve_discrete_lyapunov.s", "s"),
    ("linalg.solve_discrete_lyapunov.calls", "count"),
    ("linalg.symmetric_sqrt.s", "s"),
    ("linalg.symmetric_sqrt.calls", "count"),
    ("certificates.covariance_certificate.s", "s"),
    ("certificates.deviation_radius.s", "s"),
    ("certificates.max_feasible_epsilon.s", "s"),
    ("certificates.rate_analysis.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _median(values):
    return statistics.median(values) if values else None


def _decile(values, k: int):
    """The k-th decile (k = 1 is the 10th percentile), or the only value."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[k - 1]


def _p95(values):
    """95th percentile, only when at least ten samples lie beyond it."""
    return statistics.quantiles(values, n=20)[18] if len(values) >= 200 else None


def _run_ops(ops, phase: str, workloads, tracer=None) -> list[tuple]:
    done = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.run_id = i
        done.append((phase, op, [workloads.run_command(cmd) for cmd in op.commands]))
    return done


def _timed_loop(plan, seconds: float, workloads, setup) -> tuple[list[tuple], list[float]]:
    """Run ops back to back for ``seconds`` of op time.  Between ops, time
    SETUP_SPAWNS set-ups spread evenly over the run, so that they see the
    same machine as the ops do; their time does not count against the run."""
    done, setup_times, i, elapsed = [], [], plan.warmup, 0.0
    while elapsed < seconds:
        if len(setup_times) < SETUP_SPAWNS and elapsed >= len(setup_times) * seconds / SETUP_SPAWNS:
            setup_times.append(setup())
        start = time.perf_counter()
        done += _run_ops([plan.ops[i % len(plan.ops)]], "timed", workloads)
        elapsed += time.perf_counter() - start
        i += 1
    while len(setup_times) < SETUP_SPAWNS:
        setup_times.append(setup())
    return done, setup_times


def _setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh interpreter that imports arcert and writes the inputs."""
    target = WORK / f"setup-{os.getpid()}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only", str(target)] + (["--tiny"] if tiny else [])
    start = time.perf_counter()
    try:
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(target, ignore_errors=True)


def _manifest(workloads) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    l3 = caches.get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    working_set = workloads.kernel_bytes(workloads.CAMPAIGN_BATCH, 100_000, 1)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "caches": caches,
        "mc_long_working_set_bytes_computed": working_set,
        "l3_bytes": l3_bytes,
    }


def _end_to_end(timed, setup_times) -> tuple[dict, dict, dict]:
    """Gated metrics (value, sample count), the metrics named after the
    commands (unit, value, sample count), and the raw samples."""
    # Failed operations are counted in "failed", not timed.
    timed = [(phase, op, recs) for phase, op, recs in timed
             if not any(r.failures for r in recs)]
    by_kind = defaultdict(list)
    for _, op, recs in timed:
        by_kind[op.kind].append(recs)
    campaigns, pairs, sims = by_kind["campaign"], by_kind["pair"], by_kind["simulate"]
    if campaigns:
        rates = [sum(r.trials for r in recs) / sum(r.seconds for r in recs)
                 for recs in campaigns]
        latencies = [1e3 * sum(r.seconds for r in recs) for recs in campaigns]
    else:
        rates = [recs[0].samples_written / recs[0].seconds for recs in sims]
        latencies = [1e3 * sum(r.seconds for r in recs) for recs in pairs]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"rates": rates, "latencies_ms": latencies}
    gated = {
        # The slow end of each run: on a shared host the contended speed
        # repeats between runs better than the median does (README.md).
        "throughput_p10_per_s": (_decile(rates, 1), len(rates)),
        "op_p90_ms": (_decile(latencies, 9), len(latencies)),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": (_median(setup_times), len(setup_times)),
    }
    records = [r for _, _, recs in timed for r in recs]
    detail = {}
    mc = [r for r in records if r.name == "montecarlo"]
    if mc:
        detail["trials_per_s"] = ("1/s", sum(r.trials for r in mc) / sum(r.seconds for r in mc),
                                  len(mc))
    for name, label in (("certify", "certify"), ("rate-sweep", "sweep")):
        ms = [1e3 * r.seconds for r in records if r.name == name]
        if ms:
            detail[f"{label}_p50_ms"] = ("ms", _median(ms), len(ms))
            detail[f"{label}_p95_ms"] = ("ms", _p95(ms), len(ms))
    sim = [r for r in records if r.name == "simulate"]
    if sim:
        detail["simulate_samples_per_s"] = (
            "1/s", sum(r.samples_written for r in sim) / sum(r.seconds for r in sim), len(sim))
    return gated, detail, samples


def _per_layer(tracer, traced, untraced_wall: float, workloads) -> dict:
    incl, own, calls = defaultdict(float), defaultdict(float), Counter()
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        incl[span[0]] += span[2] - span[1]
        own[span[0]] += self_time
        calls[span[0]] += 1
    records = [r for _, _, recs in traced for r in recs]
    mc = [r for r in records if r.name == "montecarlo"]
    traced_wall = sum(r.seconds for r in records)
    values = {
        "process.ar_recursion.s": incl["process.ar_recursion"],
        "process.draws.s": own["process.simulate_batch"] + own["process.simulate_stationary"],
        "process.substream.s": incl["process.substream"],
        "process.substream.calls": calls["process.substream"],
        "process.to_csv.s": incl["process.to_csv"],
        "process.to_csv.bytes": sum(r.csv_bytes for r in records),
        "process.samples": sum(r.normals_drawn for r in records),
        "montecarlo.kernel.self_s": own["montecarlo.run_campaign"],
        "montecarlo.kernel.bytes_computed": sum(workloads.kernel_bytes(b, r.horizon, r.order)
                                                for r in mc for b in r.batches),
        "montecarlo.kernel.flops_computed": sum(workloads.kernel_flops(b, r.horizon, r.order)
                                                for r in mc for b in r.batches),
        "montecarlo.trials_evaluated": sum(r.trials_evaluated for r in mc),
        "montecarlo.trial_errors": sum(r.trial_errors for r in mc),
        "certificates.rate_analysis.self_s": own["certificates.rate_analysis"],
        "cli.main.self_s": sum(t for name, t in own.items() if name.startswith("cli.")),
        "cli.bytes_written": sum(r.bytes_written for r in records),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(own.values()),
    }
    for name in ("stationary.stationary_stats", "stationary.peak_transfer_gain",
                 "linalg.solve_discrete_lyapunov", "linalg.symmetric_sqrt"):
        values[f"{name}.s"] = incl[name]
        values[f"{name}.calls"] = calls[name]
    for name in ("covariance_certificate", "deviation_radius", "max_feasible_epsilon"):
        values[f"certificates.{name}.s"] = incl[f"certificates.{name}"]
    return values


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> dict:
    """Run one workload; returns the result (see README.md for its fields)."""
    import arcert
    import tracing
    import workloads

    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.build(workload, seed, work, tiny=tiny)
        done = _run_ops(plan.ops[:plan.warmup], "warmup", workloads)
        if trace:
            count = max(1, round(seconds * plan.ops_per_s / 2))
            replay = [plan.ops[(plan.warmup + i) % len(plan.ops)] for i in range(count)]
            untraced = _run_ops(replay, "untraced", workloads)
            wrappers_untraced = tracing.count_wrappers(arcert)
            tracer = tracing.Tracer()
            tracer.install(arcert)
            try:
                traced = _run_ops(replay, "traced", workloads, tracer)
            finally:
                tracer.restore()
            done += untraced + traced
        else:
            timed, setup_times = _timed_loop(
                plan, seconds, workloads, lambda: _setup_seconds(workload, seed, tiny))
            done += timed
            wrappers_untraced = tracing.count_wrappers(arcert)
        records = [r for _, _, recs in done for r in recs]
        configs = {cmd.config_path.name: cmd.config for op in plan.ops for cmd in op.commands}
        failures = [f for r in records for f in r.failures]
        failures += workloads.check_certificates(records, configs)
        result = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "tiny": tiny,
            "manifest": _manifest(workloads),
            "attempted": len(records) + sum(r.trials for r in records),
            "failed": len(failures) + sum(r.trial_errors for r in records),
            "failures": failures,
            "wrappers_installed_untraced": wrappers_untraced,
            "wrappers_left_after_run": tracing.count_wrappers(arcert),
            "coverage_sha256": {
                f"{cmd.config['coeffs']} seed={cmd.config['seed']}": r.coverage_sha256
                for (phase, op, recs) in done if phase == "warmup"
                for cmd, r in zip(op.commands, recs) if cmd.name == "montecarlo"},
        }
        if trace:
            values = _per_layer(tracer, traced, sum(r.seconds for _, _, recs in untraced
                                                   for r in recs), workloads)
            result["metrics"] = {name: {"value": values[name], "unit": unit}
                                 for name, unit in PER_LAYER}
            result["traced_ops"] = len(traced)
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"{workload}-seed{seed}-spans.jsonl")
        else:
            gated, detail, samples = _end_to_end([d for d in done if d[0] == "timed"],
                                                 setup_times)
            result["samples"] = dict(samples, setup_s=setup_times)
            result["metrics"] = {name: {"value": gated[name][0], "unit": unit,
                                        "samples": gated[name][1]}
                                 for name, unit in END_TO_END}
            result["detail"] = {name: {"value": v, "unit": u, "samples": n}
                                for name, (u, v, n) in detail.items()}
            result["failed_frac"] = result["failed"] / result["attempted"]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(result: dict) -> None:
    print(f"# arcert bench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("manifest: " + json.dumps(result["manifest"], sort_keys=True))
    for section in ("metrics", "detail"):
        for name, m in result.get(section, {}).items():
            shown = "n/a (fewer than 200 samples)" if m["value"] is None else f"{m['value']:.6g}"
            samples = f" (n={m['samples']})" if "samples" in m else ""
            print(f"{section}: {name} = {shown} {m['unit']}{samples}")
    if "failed_frac" in result:
        print(f"detail: failed_frac = {result['failed_frac']:.6g} "
              f"({result['failed']} of {result['attempted']} operations)")
    for label, digest in result["coverage_sha256"].items():
        print(f"coverage.csv sha256 [{label}]: {digest}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (benchmark self-test)")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "arcert" / "__init__.py").is_file():
        print(f"error: no arcert sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads; pin it before that.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import arcert

    if Path(arcert.__file__).resolve().parent != SRC / "arcert":
        print(f"error: arcert imported from {arcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only), tiny=args.tiny)
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    _print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
