"""Batch command-line front end.

Subcommands: ``certify`` (evaluate certificates for one configuration),
``montecarlo`` (run a coverage campaign), ``rate-sweep`` (decay-rate table
over a horizon grid) and ``simulate`` (dump one trajectory).  Configurations
are JSON documents; outputs are JSON for structured results and CSV for
tables.  All CSV output is byte-deterministic given the master seed; the only
nondeterministic content anywhere is the ``generated_at`` field inside JSON
metadata.

Exit codes: 0 on success (a bound empirically violated is a scientific result,
not a tool failure), 2 on configuration errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (
    BoundInputs,
    RatePoint,
    ceiling_rule_epsilon,
    covariance_certificate,
    deviation_radius,
    max_feasible_epsilon,
    rate_analysis,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleCertificateError,
    NumericalFailureError,
    StabilityError,
)
from .montecarlo import CampaignConfig, EventCoverage, run_campaign
from .process import ArProcess, _positive, build_companion, simulate_stationary
from .stationary import stationary_stats

#: Longest trajectory ``simulate`` accepts.  It holds the whole path in memory:
#: about 25 bytes per sample at peak (the noise and observed arrays and the
#: path joined from the latter; the recursion's Python floats and the CSV text
#: are held one chunk at a time), so about 0.25 GB at this ceiling.  The other
#: commands stream or never simulate, so they need no cap.
MAX_SIMULATE_HORIZON = 10 ** 7


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file '{path}': {exc}") from exc
    try:
        data = json.loads(text)
    # A JSONDecodeError or an integer literal over the int digit limit is a
    # ValueError; nesting deeper than the recursion limit a RecursionError.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file '{path}': invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file '{path}': top level must be a JSON object")
    return data


def _require(config: dict, field: str):
    if field not in config:
        raise ConfigError(f"field '{field}': missing from config")
    return config[field]


def _number(value, field: str, integer: bool = False):
    """``value`` if it is a JSON number (an integer when ``integer``) within
    float range.  bool subclasses int and float() parses strings, so both are
    rejected here rather than read as 1.0 or 0.5."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"field '{field}': must be {'an integer' if integer else 'a number'}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"field '{field}': too large to convert to a float") from None
    return value


def _positive_field(value, field: str) -> float:
    return _positive(_number(value, field), f"field '{field}'", ConfigError)


def _parse_process(config: dict) -> ArProcess:
    coeffs = _require(config, "coeffs")
    noise_variance = _positive_field(_require(config, "noise_variance"), "noise_variance")
    coeffs = [_number(c, "coeffs") for c in (coeffs if isinstance(coeffs, list) else [coeffs])]
    try:
        return ArProcess(coeffs=coeffs, noise_variance=noise_variance)
    except (StabilityError, ValueError) as exc:
        raise ConfigError(f"field 'coeffs': {exc}") from exc


def _int_field(config: dict, field: str) -> int:
    return _number(_require(config, field), field, integer=True)


def _parse_horizon(config: dict, order: int) -> int:
    horizon = _int_field(config, "horizon")
    if horizon <= order:
        raise ConfigError(f"field 'horizon': must be an integer above the order {order}")
    return horizon


def _parse_seed(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else _int_field(config, "seed")
    if seed < 0:
        raise ConfigError("field 'seed': must be a nonnegative integer")
    return seed


def resolve_epsilon(spec, ceiling: float, horizon: int) -> tuple[str, float | None]:
    """Resolve the epsilon policy to a value (None when infeasible).

    Policies: a plain number fixes epsilon; "ceiling-rule" uses
    :func:`ceiling_rule_epsilon`; {"fraction_of_ceiling": f} uses f * ceiling.
    """
    if isinstance(spec, (int, float)):
        return "fixed", _positive_field(spec, "epsilon")
    if spec == "ceiling-rule":
        value = ceiling_rule_epsilon(ceiling, horizon)
        return "ceiling-rule", (value if value > 0.0 else None)
    if isinstance(spec, dict) and set(spec) == {"fraction_of_ceiling"}:
        fraction = _positive_field(spec["fraction_of_ceiling"], "epsilon.fraction_of_ceiling")
        return f"fraction_of_ceiling:{fraction}", fraction * ceiling
    raise ConfigError("field 'epsilon': must be a number, 'ceiling-rule' or "
                      "{'fraction_of_ceiling': f}")


def _resolve_direction(spec, order: int, fallback_label: str) -> tuple[str, np.ndarray]:
    """Turn a direction spec into a (label, unit vector) pair.

    Accepts the shorthand "e<i>" for the i-th standard basis vector (i in
    ASCII digits, 1-based, labelled without leading zeros), "uniform" for the
    normalised all-ones vector, or an explicit vector, which is normalised to
    unit length and labelled ``fallback_label``.
    """
    if isinstance(spec, str):
        token = spec.strip().lower()
        if token == "uniform":
            return "uniform", np.full(order, 1.0 / math.sqrt(order))
        if token.startswith("e") and token[1:].isascii() and token[1:].isdigit():
            idx = int(token[1:])
            if not 1 <= idx <= order:
                raise ConfigError(f"direction '{spec}': index must be in 1..{order}")
            w = np.zeros(order)
            w[idx - 1] = 1.0
            return f"e{idx}", w
        raise ConfigError(f"direction '{spec}': expected 'e<i>', 'uniform' or a vector")
    w = np.array([_number(v, "direction") for v in (spec if isinstance(spec, list) else [spec])],
                 dtype=float)
    if w.shape != (order,):
        raise ConfigError(f"direction: expected a vector of length {order}")
    # Scaled by its largest magnitude first, so the norm's squares neither
    # underflow nor overflow at the ends of double range.
    peak = float(np.abs(w).max())
    if not np.isfinite(peak) or peak == 0.0:
        raise ConfigError("direction: vector must be finite and nonzero")
    w = w / peak
    return fallback_label, w / np.linalg.norm(w)


def _parse_directions(config: dict, order: int) -> list[tuple[str, np.ndarray]]:
    raw = config.get("direction", "e1")
    specs = raw if isinstance(raw, list) and not _is_vector(raw) else [raw]
    if not specs:
        raise ConfigError("field 'direction': at least one direction is required")
    out = [_resolve_direction(spec, order, fallback_label=f"w{idx + 1}")
           for idx, spec in enumerate(specs)]
    # certify and rate-sweep never build a CampaignConfig, which checks this too.
    labels = [label for label, _ in out]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"field 'direction': labels must be unique, got {labels}")
    return out


def _is_vector(value: list) -> bool:
    return bool(value) and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in value)


def _out_dir(args, config: dict) -> Path:
    target = args.out or config.get("output_dir")
    if not target or not isinstance(target, str):
        raise ConfigError("field 'output_dir': missing or not a path string (or pass --out)")
    path = Path(target)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"field 'output_dir': '{target}' is not a usable directory "
                          f"({exc})") from exc
    return path


def _meta() -> dict:
    return {
        "package_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _json_default(obj):
    """JSON form of the result objects: arrays as nested lists, dataclasses as
    {field name: value} in field order."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _csv_text(cls, rows) -> str:
    """CSV of dataclass instances: a header of ``cls``'s field names, then one
    line per row.  A cell is empty for None, lower case for a bool and str()
    otherwise (for a float, str and repr agree), so the text is a pure
    function of the values."""
    names = [f.name for f in dataclasses.fields(cls)]
    lines = [",".join(names)]
    lines += [",".join(_csv_cell(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"


def _write(path: Path, write) -> None:
    """Call ``write(path)`` and report the file.  A file that cannot be
    written (a directory in its place, no permission) is a ConfigError
    naming output_dir, so it exits 2 like an unusable directory."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"field 'output_dir': cannot write '{path}' ({exc})") from exc
    print(f"wrote {path}")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False, default=_json_default)
    _write(path, lambda p: p.write_text(text + "\n", encoding="utf-8"))


def _write_text(path: Path, text: str) -> None:
    _write(path, lambda p: p.write_text(text, encoding="utf-8", newline="\n"))


def cmd_certify(args) -> int:
    config = _load_config(args.config)
    process = _parse_process(config)
    horizon = _parse_horizon(config, process.order)
    directions = _parse_directions(config, process.order)
    out = _out_dir(args, config)

    stats = stationary_stats(build_companion(process), process.noise_variance)
    ceiling = max_feasible_epsilon(process, stats)
    policy, epsilon = resolve_epsilon(_require(config, "epsilon"), ceiling, horizon)
    cert, deviations = None, {}
    if epsilon is not None:
        inputs = BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=horizon)
        cert = covariance_certificate(inputs)
        if cert.feasible:
            deviations = {label: deviation_radius(inputs, w) for label, w in directions}

    payload = {"process": process, "horizon": horizon, "epsilon_policy": policy,
               "epsilon_ceiling": ceiling, "meta": _meta(), "epsilon": epsilon,
               "feasible": cert is not None and cert.feasible, "covariance": cert,
               "deviations": deviations}
    lines = [f"process: coeffs={process.coeffs.tolist()} noise_variance={process.noise_variance}",
             f"horizon: {horizon}", f"epsilon ceiling: {ceiling!r}"]
    if cert is None:
        lines += [f"epsilon ({policy}): infeasible at this horizon", "certificate: infeasible"]
    else:
        lines += [f"epsilon ({policy}): {epsilon!r}", f"feasible: {cert.feasible}",
                  f"delta: {cert.delta!r} (log: {cert.log_delta!r})"]
        if not cert.feasible:
            lines.append("deviation radii: skipped (infeasible epsilon)")
    for label, dev in deviations.items():
        shown = "vacuous" if dev.vacuous else repr(dev.radius)
        lines.append(f"radius[{label}]: {shown} (failure <= {dev.total_failure!r})")

    _write_json(out / "certificate.json", payload)
    _write_text(out / "summary.txt", "\n".join(lines) + "\n")
    return 0


def cmd_montecarlo(args) -> int:
    config = _load_config(args.config)
    process = _parse_process(config)
    horizon = _parse_horizon(config, process.order)
    directions = _parse_directions(config, process.order)
    trials = _int_field(config, "trials")
    seed = _parse_seed(args, config)
    out = _out_dir(args, config)

    stats = stationary_stats(build_companion(process), process.noise_variance)
    ceiling = max_feasible_epsilon(process, stats)
    policy, epsilon = resolve_epsilon(_require(config, "epsilon"), ceiling, horizon)
    if epsilon is None:
        raise ConfigError(f"field 'epsilon': policy '{policy}' is infeasible at horizon {horizon}")

    campaign = CampaignConfig(
        inputs=BoundInputs(process=process, stats=stats, epsilon=epsilon, horizon=horizon),
        trials=trials,
        master_seed=seed,
        directions=tuple(directions),
        threads=args.threads,
    )
    report = run_campaign(campaign)

    _write_json(out / "coverage.json",
                {"report": report, "epsilon_policy": policy, "meta": _meta()})
    _write_text(out / "coverage.csv", _csv_text(EventCoverage, report.events))
    for row in report.events:
        shown = "n/a" if row.frequency is None else repr(row.frequency)
        print(f"{row.event}: frequency={shown} bound={row.bound!r} verdict={row.verdict}")
    return 0


def cmd_rate_sweep(args) -> int:
    config = _load_config(args.config)
    process = _parse_process(config)
    grid = _require(config, "horizon_grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("field 'horizon_grid': must be a non-empty list of integers")
    grid = [_number(h, "horizon_grid", integer=True) for h in grid]
    directions = _parse_directions(config, process.order)
    if len(directions) > 1:
        raise ConfigError("field 'direction': rate-sweep takes one direction")
    [(label, w)] = directions
    out = _out_dir(args, config)

    stats = stationary_stats(build_companion(process), process.noise_variance)
    try:
        analysis = rate_analysis(process, stats, grid, w)
    except ValueError as exc:
        raise ConfigError(f"field 'horizon_grid': {exc}") from exc

    _write_text(out / "rate_sweep.csv", _csv_text(RatePoint, analysis.points))
    _write_json(out / "rate_analysis.json",
                {"process": process, "direction": label, "analysis": analysis,
                 "meta": _meta()})
    if analysis.slope is not None:
        print(f"fitted slope of log(2 delta) vs sqrt(N): {analysis.slope!r} "
              f"(epsilon ceiling {analysis.epsilon_ceiling!r})")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    process = _parse_process(config)
    horizon = _parse_horizon(config, process.order)
    if horizon > MAX_SIMULATE_HORIZON:
        raise ConfigError(
            f"field 'horizon': simulate writes at most {MAX_SIMULATE_HORIZON} samples")
    seed = _parse_seed(args, config)
    out = _out_dir(args, config)
    traj = simulate_stationary(process, horizon, seed)
    _write(out / "trajectory.csv", traj.to_csv)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``arcert`` argument parser, built on the first call and returned
    as the same shared instance on every later one.  Callers must not mutate
    it (no ``set_defaults``, no added arguments): ``main`` parses with it on
    every call in the process."""
    parser = argparse.ArgumentParser(
        prog="arcert",
        description="Finite-sample certificates for least-squares AR(n) identification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb, seeded in (
        ("certify", "evaluate certificates for one configuration", False),
        ("montecarlo", "run a Monte Carlo coverage campaign", True),
        ("rate-sweep", "decay-rate table over a horizon grid", False),
        ("simulate", "simulate and dump one trajectory", True),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed (overrides config)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads; only montecarlo uses them")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up on every call, not bound into the shared parser, so that a
    # wrapper or patch installed over a ``cmd_*`` function runs.
    handler = {"certify": cmd_certify, "montecarlo": cmd_montecarlo,
               "rate-sweep": cmd_rate_sweep, "simulate": cmd_simulate}[args.command]
    try:
        return handler(args)
    # LinAlgError subclasses ValueError, so the numerical clause comes first.
    except (ConvergenceError, InfeasibleCertificateError, NumericalFailureError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, StabilityError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
