"""Monte Carlo validation of every probabilistic claim made by the certificates.

Each trial simulates one exactly stationary trajectory and evaluates the three
concentration events behind the sandwich failure bound, the sandwich itself,
the self-normalized norm event, and the deviation of the least-squares
estimate.  Two implications between those events are deterministic
consequences of the certificate construction and are checked on every single
trial, not just in aggregate:

* boundary and noise-energy and cross-term  =>  sandwich holds;
* sandwich and self-normalized              =>  the deviation radius holds.

The campaign kernel never materialises a trajectory.  Each batch of trials is
simulated CHUNK time steps at a time (:func:`arcert.process.simulate_chunks`)
and only per-trial sufficient statistics are carried between chunks: the
normal matrix Y^T Y, the regressor-innovation sums over the residual and the
event windows, the innovation energy, and the first and last lag windows.
Every event is a function of those, and the least-squares error follows from
the normal equations, theta_hat - theta = (Y^T Y)^{-1} Y^T e.  Each batch's
simulator allocates its chunk buffers once and refills them, so memory is
O(threads * batch * CHUNK) whatever the horizon.  The test suite's
``reference`` module re-derives every event trial by trial from a whole
trajectory; the kernel is tested against it.

Trials are embarrassingly parallel: trial i draws from the RNG substream
``substream(master_seed, i)`` and aggregation is an order-independent sum of
counts.  Chunk boundaries are fixed in time, so every per-trial sum is added
up in the same order whatever the batch; reports are bit-identical across
batch sizes and thread counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .certificates import (
    BoundInputs,
    CovarianceCertificate,
    covariance_certificate,
    deviation_radius,
)
from .errors import ConfigError, NumericalFailureError
from .linalg import PSD_ORDER_RTOL
from .process import (
    ArProcess,
    build_companion,
    simulate_batch,  # noqa: F401  (the benchmark's span tracer wraps it in this namespace)
    simulate_chunks,
    substream,
)
from .stationary import stationary_stats

#: Maximum tolerated fraction of trials lost to numerical failures.
MAX_ERROR_FRACTION = 1e-3

#: Trials per batch.  A batch is the unit of work of one thread; reports do
#: not depend on it.
BATCH = 256

#: Largest accepted campaign.  ``run_campaign`` holds one (start, stop) pair
#: and, with threads, one future per batch: at this ceiling 39 063 of each,
#: about 65 MB.
MAX_TRIALS = 10 ** 7


def event_threshold(inputs: BoundInputs) -> float:
    """Per-event spectral-radius budget epsilon * s2 * (N - n) / 3.

    The three component events each get a third of the total radius budget, so
    together they force the sandwich by subadditivity of the spectral radius on
    symmetric matrices.
    """
    return inputs.epsilon * inputs.process.noise_variance * inputs.effective_samples / 3.0


def resolve_direction(spec, order: int, fallback_label: str) -> tuple[str, np.ndarray]:
    """Turn a direction spec into a (label, unit vector) pair.

    Accepts the shorthand "e<i>" for the i-th standard basis vector (1-based),
    "uniform" for the normalised all-ones vector, or an explicit vector, which
    is normalised to unit length and labelled ``fallback_label``.
    """
    if isinstance(spec, str):
        token = spec.strip().lower()
        if token == "uniform":
            return "uniform", np.full(order, 1.0 / math.sqrt(order))
        if token.startswith("e") and token[1:].isdigit():
            idx = int(token[1:])
            if not 1 <= idx <= order:
                raise ConfigError(f"direction '{spec}': index must be in 1..{order}")
            w = np.zeros(order)
            w[idx - 1] = 1.0
            return token, w
        raise ConfigError(f"direction '{spec}': expected 'e<i>', 'uniform' or a vector")
    try:
        w = np.atleast_1d(np.asarray(spec, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"direction: expected 'e<i>', 'uniform' or a vector ({exc})") from exc
    if w.shape != (order,):
        raise ConfigError(f"direction: expected a vector of length {order}")
    norm = float(np.linalg.norm(w))
    if not np.isfinite(norm) or norm == 0.0:
        raise ConfigError("direction: vector must be finite and nonzero")
    return fallback_label, w / norm


@dataclass(frozen=True, eq=False)
class CampaignConfig:
    """Validated inputs of one Monte Carlo campaign.

    directions maps labels to unit vectors; trial i uses the RNG substream
    derived from (master_seed, i).  With allow_vacuous=False a campaign whose
    sandwich failure bound is already >= 1 is rejected, since every verdict
    would be vacuous.
    """

    process: ArProcess
    horizon: int
    epsilon: float
    trials: int
    master_seed: int
    directions: tuple[tuple[str, np.ndarray], ...]
    threads: int = 1
    allow_vacuous: bool = False

    def __post_init__(self):
        n = self.process.order
        if int(self.horizon) < 2 * n + 1:
            raise ConfigError("horizon: must be at least 2 * order + 1 for a full-rank design")
        if int(self.trials) < 100:
            raise ConfigError("trials: at least 100 trials are required")
        if int(self.trials) > MAX_TRIALS:
            raise ConfigError(f"trials: at most {MAX_TRIALS} trials are supported")
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps <= 0.0:
            raise ConfigError("epsilon: must be a positive finite real")
        if int(self.master_seed) < 0:
            raise ConfigError("seed: must be a nonnegative integer")
        if not self.directions:
            raise ConfigError("direction: at least one direction is required")
        labels = [label for label, _ in self.directions]
        if len(set(labels)) != len(labels):
            raise ConfigError("direction: labels must be unique")
        resolved = []
        for label, w in self.directions:
            vec = np.atleast_1d(np.asarray(w, dtype=float)).copy()
            if vec.shape != (n,) or abs(np.linalg.norm(vec) - 1.0) > 1e-9:
                raise ConfigError(f"direction '{label}': must be a unit vector of length {n}")
            vec.flags.writeable = False
            resolved.append((str(label), vec))
        if int(self.threads) < 1:
            raise ConfigError("threads: must be >= 1")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "directions", tuple(resolved))
        object.__setattr__(self, "threads", int(self.threads))


@dataclass(frozen=True)
class EventCoverage:
    """Empirical failure frequency of one event against its theoretical bound.

    failures / frequency / stderr are None for a deviation event whose
    certificate was vacuous (there is no radius to test).  verdict is
    "violated" only when the observation beats the bound by more than three
    binomial standard errors, and "vacuous" when the bound itself is >= 1 or
    untestable.
    """

    event: str
    bound: float
    failures: int | None
    evaluated: int
    frequency: float | None
    stderr: float | None
    verdict: str


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated campaign result: per-event coverage rows, the per-trial
    implication violation counts (zero unless the implementation is broken),
    and the number of trials lost to numerical errors."""

    trials: int
    master_seed: int
    horizon: int
    epsilon: float
    process: dict
    events: tuple[EventCoverage, ...]
    sandwich_chain_violations: int
    deviation_chain_violations: dict[str, int]
    trial_errors: int

    def event(self, name: str) -> EventCoverage:
        for row in self.events:
            if row.event == name:
                return row
        raise KeyError(name)


@dataclass
class _BatchCounts:
    evaluated: int = 0
    errors: int = 0
    boundary_fail: int = 0
    noise_fail: int = 0
    cross_fail: int = 0
    sandwich_fail: int = 0
    sn_fail: int = 0
    dev_fail: tuple[int, ...] = ()
    chain_sandwich: int = 0
    chain_dev: tuple[int, ...] = ()


def _run_batch(config: CampaignConfig, inputs: BoundInputs, cert: CovarianceCertificate,
               radii: list[float | None], logdet_lower: float,
               start: int, stop: int) -> _BatchCounts:
    """Evaluate trials start, ..., stop - 1 and count their event outcomes.

    Reads the time-major chunks of :func:`simulate_chunks` directly (rows are
    time steps, columns are trials), so every per-trial statistic is a sum
    over contiguous rows; per-trial arrays below are indexed trial first.
    """
    process = config.process
    n = process.order
    horizon = config.horizon
    rows = horizon - n
    sigma2 = process.noise_variance
    coeffs = process.coeffs
    threshold = event_threshold(inputs)
    batch = stop - start

    # Per-trial sufficient statistics.  With x[f] entry f = 0 .. N + n - 1 of
    # the path (y_{1-n}, ..., y_N) and e[f] the innovation that drives it:
    #   normal[j, k] = sum_{f=2n}^{N+n-1} x[f-1-j] x[f-1-k]   (Y^T Y)
    #   s_sn[k]      = sum_{f=2n}^{N+n-1} e[f] x[f-1-k]       (Y^T e, residual window)
    #   s_tail[k]    = sum_{f=2n-1}^{N+n-2} e[f] x[f-1-k]     (event window)
    #   energy       = sum_{f=2n-1}^{N+n-2} e[f]^2
    # plus the lag windows x[n-1 .. 2n-2] and x[N-1 .. N+n-2], in time order.
    normal = np.zeros((batch, n, n))
    s_sn = np.zeros((batch, n))
    s_tail = np.zeros((batch, n))
    energy = np.zeros(batch)
    first = np.empty((batch, n))
    last = np.empty((batch, n))
    finite = np.ones(batch, dtype=bool)

    seeds = [substream(config.master_seed, i) for i in range(start, stop)]
    for lo, window, noise in simulate_chunks(process, horizon, seeds):
        # The chunks are time-major: window row p is x[lo + p] and noise row
        # p is e[lo + n + p], one column per trial.  Every statistic below
        # sums over contiguous row blocks.
        hi = lo + window.shape[0]
        finite &= np.isfinite(window[n:]).all(axis=0)
        reg_lo, evt_lo = max(2 * n, lo + n) - lo, max(2 * n - 1, lo + n) - lo
        reg_hi, evt_hi = hi - lo, min(horizon + n - 1, hi) - lo
        lagged = [window[reg_lo - 1 - k : reg_hi - 1 - k] for k in range(n)]
        e_reg = noise[reg_lo - n : reg_hi - n]
        e_evt = noise[evt_lo - n : evt_hi - n]
        for j in range(n):
            for k in range(j, n):
                normal[:, j, k] += np.einsum("ib,ib->b", lagged[j], lagged[k])
            s_sn[:, j] += np.einsum("ib,ib->b", e_reg, lagged[j])
            s_tail[:, j] += np.einsum(
                "ib,ib->b", e_evt, window[evt_lo - 1 - j : evt_hi - 1 - j]
            )
        energy += np.einsum("ib,ib->b", e_evt, e_evt)
        for dst, f0 in ((first, n - 1), (last, horizon - 1)):
            a, b = max(f0, lo), min(f0 + n, hi)
            if a < b:
                dst[:, a - f0 : b - f0] = window[a - lo : b - lo].T
    upper_tri = np.triu_indices(n, 1)
    normal[:, upper_tri[1], upper_tri[0]] = normal[:, upper_tri[0], upper_tri[1]]

    # Stand-in statistics keep the batched LAPACK calls defined on errored
    # trials; their events are never counted.
    errored = ~finite
    normal[errored] = np.eye(n)
    first[errored] = last[errored] = 0.0
    eig = np.linalg.eigvalsh(normal)
    # The square of the 1e-12 diagonal ratio of a triangular factor of Y.
    errored |= eig[:, 0] <= 1e-24 * eig[:, -1]
    normal[errored] = np.eye(n)

    # Boundary event from the first and last usable lag windows.
    first_window = first[:, ::-1]
    last_window = last[:, ::-1]
    u = np.concatenate([(first_window @ coeffs)[:, None], first_window], axis=1)
    v = np.concatenate([(last_window @ coeffs)[:, None], last_window], axis=1)
    rank_two = u[:, :, None] * u[:, None, :] - v[:, :, None] * v[:, None, :]
    boundary_radius = np.abs(np.linalg.eigvalsh(rank_two)).max(axis=1)
    boundary_ok = boundary_radius <= threshold

    # Innovation energy event on the state-driving window (e_n .. e_{N-1}).
    noise_ok = np.abs(energy - rows * sigma2) <= threshold

    # Cross-term event; rank-2 closed-form spectral radius.
    s_head = s_tail @ coeffs
    cross_radius = np.abs(s_head) + np.sqrt(
        s_head ** 2 + np.einsum("bi,bi->b", s_tail, s_tail)
    )
    cross_ok = cross_radius <= threshold

    # Sandwich event in the PSD order, with a slack of PSD_ORDER_RTOL times
    # the spectral norm of Y^T Y, so equal matrices pass.
    mid_scale = np.maximum(np.abs(eig).max(axis=1), 1e-300)
    tol = PSD_ORDER_RTOL * mid_scale
    lo_gap = np.linalg.eigvalsh(normal - cert.lower[None]).min(axis=1)
    hi_gap = np.linalg.eigvalsh(cert.upper[None] - normal).min(axis=1)
    sandwich_ok = (lo_gap >= -tol) & (hi_gap >= -tol)

    # Self-normalized event on the regression residual window (e_{n+1} .. e_N).
    m_sn = normal + cert.lower[None]
    lhs_sq = np.einsum("bi,bi->b", s_sn, np.linalg.solve(m_sn, s_sn[..., None])[..., 0])
    sign_m, logdet_m = np.linalg.slogdet(m_sn)
    log_argument = 0.5 * (logdet_m - logdet_lower) - cert.log_delta
    sn_ok = (sign_m > 0) & (log_argument > 0.0) & (lhs_sq <= 2.0 * sigma2 * log_argument)

    # Least-squares error from the normal equations: theta_hat - theta
    # = (Y^T Y)^{-1} Y^T e over the residual window.
    error = np.linalg.solve(normal, s_sn[..., None])[..., 0]
    errored |= ~np.isfinite(error).all(axis=1)

    valid = ~errored
    counts = _BatchCounts(
        evaluated=int(valid.sum()),
        errors=int(errored.sum()),
        boundary_fail=int((~boundary_ok & valid).sum()),
        noise_fail=int((~noise_ok & valid).sum()),
        cross_fail=int((~cross_ok & valid).sum()),
        sandwich_fail=int((~sandwich_ok & valid).sum()),
        sn_fail=int((~sn_ok & valid).sum()),
        chain_sandwich=int((boundary_ok & noise_ok & cross_ok & ~sandwich_ok & valid).sum()),
    )

    dev_fail = []
    chain_dev = []
    for (_, w), radius in zip(config.directions, radii):
        if radius is None:
            # A vacuous radius means delta exceeds the determinant term, which
            # the sandwich event makes incompatible with the self-normalized
            # event holding; both holding anyway is an implication violation.
            dev_fail.append(0)
            chain_dev.append(int((sandwich_ok & sn_ok & valid).sum()))
            continue
        deviation = np.abs(error @ w)
        dev_ok = deviation <= radius
        dev_fail.append(int((~dev_ok & valid).sum()))
        chain_dev.append(int((sandwich_ok & sn_ok & ~dev_ok & valid).sum()))
    counts.dev_fail = tuple(dev_fail)
    counts.chain_dev = tuple(chain_dev)
    return counts


def _frequency_row(name: str, failures: int, evaluated: int, bound: float) -> EventCoverage:
    frequency = failures / evaluated
    stderr = math.sqrt(frequency * (1.0 - frequency) / evaluated)
    if bound >= 1.0:
        verdict = "vacuous"
    elif frequency - 3.0 * stderr > bound:
        verdict = "violated"
    else:
        verdict = "respected"
    return EventCoverage(event=name, bound=bound, failures=failures, evaluated=evaluated,
                         frequency=frequency, stderr=stderr, verdict=verdict)


def run_campaign(config: CampaignConfig) -> CoverageReport:
    """Run the full campaign and aggregate per-event coverage.

    Deterministic given the master seed.  Trials that fail numerically are
    counted and excluded from frequencies; the campaign raises
    NumericalFailureError if more than MAX_ERROR_FRACTION of trials error out.
    """
    process = config.process
    stats = stationary_stats(build_companion(process), process.noise_variance)
    inputs = BoundInputs(process=process, stats=stats,
                         epsilon=config.epsilon, horizon=config.horizon)
    cert = covariance_certificate(inputs)
    if not cert.feasible:
        raise ConfigError(
            "epsilon: infeasible (the lower sandwich matrix is not positive definite); "
            "choose epsilon below the feasibility ceiling"
        )
    if cert.delta >= 1.0 and not config.allow_vacuous:
        raise ConfigError(
            f"epsilon/horizon: the failure bound delta = {cert.delta:.4g} is vacuous (>= 1); "
            "pass allow_vacuous to run anyway"
        )

    dev_certs = [deviation_radius(cert, w, process.noise_variance)
                 for _, w in config.directions]
    radii = [dc.radius for dc in dev_certs]
    _, logdet_lower = np.linalg.slogdet(cert.lower)

    batches = [(lo, min(lo + BATCH, config.trials))
               for lo in range(0, config.trials, BATCH)]

    def work(bounds: tuple[int, int]) -> _BatchCounts:
        return _run_batch(config, inputs, cert, radii, float(logdet_lower),
                          bounds[0], bounds[1])

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            partials = list(pool.map(work, batches))
    else:
        partials = [work(b) for b in batches]

    evaluated = sum(p.evaluated for p in partials)
    errors = sum(p.errors for p in partials)
    if errors > MAX_ERROR_FRACTION * config.trials:
        raise NumericalFailureError(
            f"{errors} of {config.trials} trials failed numerically "
            f"(limit {MAX_ERROR_FRACTION:.1%})"
        )

    events = [
        _frequency_row("boundary", sum(p.boundary_fail for p in partials),
                       evaluated, cert.failure_terms[0]),
        _frequency_row("noise_energy", sum(p.noise_fail for p in partials),
                       evaluated, cert.failure_terms[1]),
        _frequency_row("cross_term", sum(p.cross_fail for p in partials),
                       evaluated, cert.failure_terms[2] + cert.failure_terms[3]),
        _frequency_row("sandwich", sum(p.sandwich_fail for p in partials),
                       evaluated, cert.delta),
        _frequency_row("self_normalized", sum(p.sn_fail for p in partials),
                       evaluated, cert.delta),
    ]
    deviation_chain: dict[str, int] = {}
    for idx, ((label, _), dev_cert) in enumerate(zip(config.directions, dev_certs)):
        name = f"deviation:{label}"
        if dev_cert.vacuous:
            events.append(EventCoverage(event=name, bound=dev_cert.total_failure,
                                        failures=None, evaluated=evaluated,
                                        frequency=None, stderr=None, verdict="vacuous"))
        else:
            events.append(_frequency_row(name, sum(p.dev_fail[idx] for p in partials),
                                         evaluated, dev_cert.total_failure))
        deviation_chain[label] = sum(p.chain_dev[idx] for p in partials)

    return CoverageReport(
        trials=config.trials,
        master_seed=config.master_seed,
        horizon=config.horizon,
        epsilon=config.epsilon,
        process={"coeffs": process.coeffs.tolist(), "noise_variance": process.noise_variance},
        events=tuple(events),
        sandwich_chain_violations=sum(p.chain_sandwich for p in partials),
        deviation_chain_violations=deviation_chain,
        trial_errors=errors,
    )
