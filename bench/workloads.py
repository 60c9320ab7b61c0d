"""The benchmark workloads: seeded inputs, CLI commands and output checks.

Every workload is a closed loop with one client: operations run back to back
in one process, each a short list of ``arcert`` CLI commands issued in-process
through ``arcert.cli.main``.  The workload seed fixes every input (processes,
master seeds, simulate seeds); the program only sees the JSON configs written
here.  See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import arcert.cli
from arcert import ArProcess, BoundInputs, build_companion, covariance_certificate
from arcert import max_feasible_epsilon, stationary_stats

WORKLOADS = ("mc-long", "oneshot-cli")

EPSILON = {"fraction_of_ceiling": 0.5}
SWEEP_GRID = [1000, 10000, 100000, 1000000]

#: Largest l1 norm of a generated process's AR coefficients.  Beyond it,
#: processes with several poles of modulus near 0.9 at nearly the same angle
#: make the companion matrix so non-normal that ``solve_discrete_lyapunov``
#: misses its 1e-10 residual tolerance and the CLI exits 3, although a
#: direct Kronecker-product solve reaches about 1e-14 on the same inputs
#: (README.md, Known gaps).  At 5 the largest residual seen in 80 000 draws
#: is 3.6e-13.
COEFF_L1_MAX = 5.0

#: Campaign batch size of ``run_campaign`` (its default; the CLI does not set it).
CAMPAIGN_BATCH = 256

#: Files each subcommand writes into its output directory.
OUTPUTS = {
    "certify": ("certificate.json", "summary.txt"),
    "montecarlo": ("coverage.json", "coverage.csv"),
    "rate-sweep": ("rate_sweep.csv", "rate_analysis.json"),
    "simulate": ("trajectory.csv",),
}


@dataclass(frozen=True)
class Command:
    name: str
    config: dict
    config_path: Path
    out: Path


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.  ``kind`` says which metric its time feeds:
    "campaign" (montecarlo commands), "pair" (certify + rate-sweep on one
    process) or "simulate"."""

    kind: str
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class Plan:
    """A workload's operations, cycled in order.  The first ``warmup`` ops
    run untimed.  ``ops_per_s`` is the nominal rate on the reference machine
    (see README.md); a traced run sizes its fixed op count from it."""

    ops: tuple[Op, ...]
    warmup: int
    ops_per_s: float


@dataclass
class Record:
    """What one command did: its time, exit code, work and check results."""

    name: str
    seconds: float
    exit_code: int
    trials: int = 0
    trial_errors: int = 0
    trials_evaluated: int = 0
    samples_written: int = 0
    normals_drawn: int = 0
    batches: tuple[int, ...] = ()
    order: int = 0
    horizon: int = 0
    bytes_written: int = 0
    csv_bytes: int = 0
    coverage_sha256: str = ""
    certificate: tuple | None = None
    failures: list[str] = field(default_factory=list)


def _stable_coeffs(rng: np.random.Generator, order: int) -> list[float]:
    """AR coefficients whose poles have modulus in [0.1, 0.95], real or in
    conjugate pairs, and whose l1 norm is at most COEFF_L1_MAX (redrawn
    until it is)."""
    while True:
        pairs = int(rng.integers(0, order // 2 + 1))
        poles = []
        for _ in range(pairs):
            r, theta = rng.uniform(0.1, 0.95), rng.uniform(0.0, np.pi)
            poles += [r * np.exp(1j * theta), r * np.exp(-1j * theta)]
        for _ in range(order - 2 * pairs):
            poles.append(rng.uniform(0.1, 0.95) * rng.choice([-1.0, 1.0]))
        coeffs = [float(-a) for a in np.real(np.poly(poles))[1:]]
        if sum(abs(a) for a in coeffs) <= COEFF_L1_MAX:
            return coeffs


class _Writer:
    def __init__(self, root: Path):
        self.configs = root / "configs"
        self.outs = root / "out"
        self.configs.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def command(self, name: str, config: dict) -> Command:
        path = self.configs / f"{self.count:05d}-{name}.json"
        self.count += 1
        path.write_text(json.dumps(config), encoding="utf-8")
        return Command(name, config, path, self.outs / name)


def _campaign(writer, rng, coeffs, horizon, trials, directions) -> Command:
    return writer.command("montecarlo", {
        "coeffs": coeffs, "noise_variance": 1.0, "epsilon": EPSILON,
        "horizon": horizon, "direction": directions, "trials": trials,
        "seed": int(rng.integers(0, 2 ** 63)), "allow_vacuous": True,
    })


def build(workload: str, seed: int, root: Path, tiny: bool = False) -> Plan:
    """Write the seeded configs of ``workload`` under ``root``; return its plan.

    ``tiny`` shrinks every size so that a self-test run takes a second.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    writer = _Writer(root)
    if workload == "mc-long":
        horizon, trials = (2000, 100) if tiny else (100_000, CAMPAIGN_BATCH)
        ops = [Op("campaign", (_campaign(writer, rng, [0.5], horizon, trials,
                                         ["e1", "uniform"]),)) for _ in range(32)]
        return Plan(tuple(ops), 1, 0.5)
    if workload == "oneshot-cli":
        pool, sim_every, sim_horizon = (16, 4, 2000) if tiny else (400, 100, 1_000_000)
        ops = []
        for i in range(pool):
            if i % sim_every == 0:
                # Order 2 for every simulate call, so that its cost does not
                # depend on the seed (the recursion's cost grows with order).
                ops.append(Op("simulate", (writer.command("simulate", {
                    "coeffs": _stable_coeffs(rng, 2), "noise_variance": 1.0,
                    "horizon": sim_horizon, "seed": int(rng.integers(0, 2 ** 63)),
                }),)))
            # Orders cycle 1..8 so that the mix of orders is the same for
            # every seed; only the poles are random.
            coeffs = _stable_coeffs(rng, 1 + i % 8)
            ops.append(Op("pair", (
                writer.command("certify", {
                    "coeffs": coeffs, "noise_variance": 1.0, "epsilon": EPSILON,
                    "horizon": 5000, "direction": ["e1", "uniform"]}),
                writer.command("rate-sweep", {
                    "coeffs": coeffs, "noise_variance": 1.0, "horizon_grid": SWEEP_GRID}),
            )))
        return Plan(tuple(ops), 2, 40.0)
    raise ValueError(f"unknown workload {workload!r}")


def run_command(cmd: Command) -> Record:
    """Run one CLI command in-process and inspect its outputs (untimed)."""
    cmd.out.mkdir(parents=True, exist_ok=True)
    for name in OUTPUTS[cmd.name]:
        (cmd.out / name).unlink(missing_ok=True)
    argv = [cmd.name, "--config", str(cmd.config_path), "--out", str(cmd.out),
            "--threads", "1"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = arcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop keeps running; the failure is counted
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    rec = Record(cmd.name, seconds, code)
    if code != 0:
        rec.failures.append(f"{cmd.config_path.name}: exit {code}: "
                            f"{stderr.getvalue().strip()[-300:]}")
        return rec
    try:
        _inspect(cmd, rec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rec.failures.append(f"{cmd.config_path.name}: unreadable output: {exc!r}")
    return rec


def _inspect(cmd: Command, rec: Record) -> None:
    cfg, out = cmd.config, cmd.out
    rec.order = len(cfg["coeffs"])
    rec.horizon = cfg.get("horizon", 0)
    rec.bytes_written = sum((out / name).stat().st_size for name in OUTPUTS[cmd.name])
    tag = cmd.config_path.name
    if cmd.name == "montecarlo":
        report = json.loads((out / "coverage.json").read_text(encoding="utf-8"))["report"]
        csv_bytes = (out / "coverage.csv").read_bytes()
        rec.coverage_sha256 = hashlib.sha256(csv_bytes).hexdigest()
        rec.trials = cfg["trials"]
        rec.trial_errors = report["trial_errors"]
        rec.trials_evaluated = report["events"][0]["evaluated"]
        rec.batches = tuple(min(CAMPAIGN_BATCH, rec.trials - lo)
                            for lo in range(0, rec.trials, CAMPAIGN_BATCH))
        rec.normals_drawn = rec.trials * (rec.horizon + rec.order + 1)
        if report["sandwich_chain_violations"]:
            rec.failures.append(f"{tag}: sandwich implication violated "
                                f"{report['sandwich_chain_violations']} times")
        for label, count in report["deviation_chain_violations"].items():
            if count:
                rec.failures.append(f"{tag}: deviation:{label} implication violated "
                                    f"{count} times")
        for row in report["events"]:
            if row["verdict"] == "violated":
                rec.failures.append(f"{tag}: event {row['event']} verdict violated")
    elif cmd.name == "certify":
        cov = json.loads((out / "certificate.json").read_text(encoding="utf-8"))["covariance"]
        if cov is None:
            rec.failures.append(f"{tag}: no certificate written")
        else:
            rec.certificate = (tag, cov["delta"], cov["log_delta"])
    elif cmd.name == "simulate":
        data = (out / "trajectory.csv").read_bytes()
        rec.csv_bytes = len(data)
        rec.samples_written = rec.horizon + rec.order
        rec.normals_drawn = rec.horizon + rec.order + 1
        lines = data.count(b"\n")
        if lines != rec.horizon + rec.order + 1:
            rec.failures.append(f"{tag}: trajectory.csv has {lines} lines, "
                                f"expected N + n + 1 = {rec.horizon + rec.order + 1}")


def check_certificates(records: list[Record], configs: dict[str, dict]) -> list[str]:
    """certificate.json delta and log_delta must equal, bit for bit, a direct
    ``covariance_certificate`` call on the same inputs."""
    failures = []
    for tag, delta, log_delta in sorted({r.certificate for r in records if r.certificate}):
        cfg = configs[tag]
        process = ArProcess(coeffs=cfg["coeffs"], noise_variance=cfg["noise_variance"])
        stats = stationary_stats(build_companion(process), process.noise_variance)
        epsilon = float(cfg["epsilon"]["fraction_of_ceiling"]) * max_feasible_epsilon(
            process, stats)
        cert = covariance_certificate(BoundInputs(process=process, stats=stats,
                                                  epsilon=epsilon, horizon=cfg["horizon"]))
        if float(delta).hex() != cert.delta.hex() or float(log_delta).hex() != cert.log_delta.hex():
            failures.append(f"{tag}: certificate.json delta/log_delta "
                            f"({delta!r}, {log_delta!r}) differ from a direct call "
                            f"({cert.delta!r}, {cert.log_delta!r})")
    return failures


def kernel_bytes(batch: int, horizon: int, order: int) -> int:
    """Computed bytes of the float64 arrays one campaign batch materialises:
    noise (N), recursion buffer (N + n), full path (N + n), and three
    (N - n) x n arrays (design stack, QR's working copy, explicit Q)."""
    n, m = order, horizon - order
    return 8 * batch * (horizon + 2 * (horizon + n) + 3 * m * n)


def kernel_flops(batch: int, horizon: int, order: int) -> int:
    """Computed floating-point operations of one campaign batch, m = N - n:
    recursion 2nN, normal matrix n(n+1)m, innovation energy 2m, cross sums
    2nm, self-normalised sums 2nm, Householder QR with explicit Q
    2(2mn^2 - 2n^3/3), Q^T y 2mn.  Per-trial O(n^3) eigen/solve work on
    n x n matrices is left out."""
    n, m = order, horizon - order
    per_trial = (2 * n * horizon + n * (n + 1) * m + 2 * m + 4 * n * m
                 + 2 * (2 * m * n * n - (2 * n ** 3) // 3) + 2 * m * n)
    return batch * per_trial
