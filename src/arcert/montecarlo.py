"""Monte Carlo validation of every probabilistic claim made by the certificates.

Each trial simulates one exactly stationary trajectory and evaluates the three
concentration events behind the sandwich failure bound, the sandwich itself,
the self-normalized norm event, and the deviation of the least-squares
estimate.  Two implications between those events are deterministic
consequences of the certificate construction and are checked on every single
trial, not just in aggregate:

* boundary and noise-energy and cross-term  =>  sandwich holds;
* sandwich and self-normalized              =>  the deviation radius holds.

Every count and bound depends only on the coefficients, epsilon and N, so
campaigns run at unit innovation variance and report the configured process.

The campaign kernel never materialises a trajectory.  Each batch of trials is
simulated CHUNK time steps at a time (:func:`arcert.process.simulate_chunks`)
and only per-trial sufficient statistics are carried between chunks: the
Gram matrix of (lagged regressors, innovation) over the residual window,
whose blocks are Y^T Y and Y^T e, and its two end vectors.  The event window
is the residual window one step earlier, so its cross sums and innovation
energy are the Gram sums plus the first end term minus the last, and the end
vectors' lags are the states the boundary event bounds.  Every event is a
function of those, and the least-squares error follows from the normal
equations, theta_hat - theta = (Y^T Y)^{-1} Y^T e.  Each batch's
simulator allocates its chunk buffers once and refills them, so memory is
O(threads * batch * CHUNK) whatever the horizon.  The test suite's
``reference`` module re-derives every event trial by trial from a whole
trajectory; the kernel is tested against it.

Trials are embarrassingly parallel: trial i draws from the RNG substream
``substream(master_seed, i)``, every campaign runs its batches on one thread
pool of ``threads`` workers (a single worker included), and aggregation is an
order-independent sum of counts.  Chunk boundaries are fixed in time, so every
per-trial sum is added up in the same order whatever the batch; reports are
bit-identical across batch sizes and thread counts.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .certificates import (
    BoundInputs,
    CovarianceCertificate,
    DeviationCertificate,
    _lower_gap,
    _unit_direction,
    covariance_certificate,
    deviation_radius,
    event_threshold,
)
from .errors import ConfigError, NumericalFailureError
from .process import (
    ArProcess,
    _frozen,
    _integer,
    simulate_batch,  # noqa: F401  (the benchmark's span tracer wraps it in this namespace)
    simulate_chunks,
    substream,
)

#: Maximum tolerated fraction of trials lost to numerical failures.
MAX_ERROR_FRACTION = 1e-3

#: Trials per batch.  A batch is the unit of work of one thread; reports do
#: not depend on it.
BATCH = 256

#: Largest accepted campaign.  ``run_campaign`` holds one (start, stop) pair
#: and one future per batch: at this ceiling 39 063 of each, about 65 MB.
MAX_TRIALS = 10 ** 7

#: Relative slack of the sandwich event's positive-semidefinite order test.
PSD_ORDER_RTOL = 1e-8

#: Most worker threads a campaign accepts.  Every campaign runs on a pool of
#: ``threads`` workers, which starts a thread per batch while none is idle,
#: and each running batch holds its chunk buffers (about 4.3 MB at
#: BATCH x CHUNK), so this caps them near 0.3 GB.
MAX_THREADS = 64


@dataclass(frozen=True, eq=False)
class CampaignConfig:
    """Validated inputs of one Monte Carlo campaign.

    ``inputs`` is the certificate under test: its process, stationary
    statistics, epsilon and horizon, already checked by :class:`BoundInputs`.
    Construction adds the campaign's own rules, a horizon of at least
    2 n + 1 and a feasible epsilon among them, so a config that constructs
    can run.  directions maps labels to unit vectors; trial i uses the RNG
    substream derived from (master_seed, i).
    """

    inputs: BoundInputs
    trials: int
    master_seed: int
    directions: tuple[tuple[str, np.ndarray], ...]
    threads: int = 1

    def __post_init__(self):
        n = self.inputs.process.order
        trials, master_seed, threads = (
            _integer(getattr(self, name), name, ConfigError)
            for name in ("trials", "master_seed", "threads"))
        if self.inputs.horizon < 2 * n + 1:
            raise ConfigError("horizon: must be at least 2 * order + 1 for a full-rank design")
        if trials < 100:
            raise ConfigError("trials: at least 100 trials are required")
        if trials > MAX_TRIALS:
            raise ConfigError(f"trials: at most {MAX_TRIALS} trials are supported")
        if master_seed < 0:
            raise ConfigError("seed: must be a nonnegative integer")
        if not self.directions:
            raise ConfigError("direction: at least one direction is required")
        # Guards library callers of run_campaign, whose labels no parser checked.
        labels = [label for label, _ in self.directions]
        if len(set(labels)) != len(labels):
            raise ConfigError("direction: labels must be unique")
        resolved = []
        for label, w in self.directions:
            try:
                resolved.append((str(label), _frozen(_unit_direction(w, n))))
            except ValueError as exc:
                raise ConfigError(f"direction '{label}': {exc}") from exc
        if not 1 <= threads <= MAX_THREADS:
            raise ConfigError(f"threads: must be in 1..{MAX_THREADS}")
        if _lower_gap(self.inputs) is None:
            raise ConfigError("epsilon: infeasible (the lower sandwich matrix is not positive "
                              "definite); choose epsilon below the feasibility ceiling")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "directions", tuple(resolved))
        object.__setattr__(self, "threads", threads)


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
    process: ArProcess
    events: tuple[EventCoverage, ...]
    sandwich_chain_violations: int
    deviation_chain_violations: dict[str, int]
    trial_errors: int


def _run_batch(config: CampaignConfig, inputs: BoundInputs, cert: CovarianceCertificate,
               deviations: list[tuple[str, np.ndarray, DeviationCertificate]],
               logdet_lower: float, start: int, stop: int) -> Counter:
    """Evaluate trials start, ..., stop - 1 and count their event outcomes.

    The count table holds "evaluated" and "errors", each event's failures
    under its coverage-row name, and the implication violations under
    ("chain", name of the implied event's row).

    Reads the time-major chunks of :func:`simulate_chunks` directly (rows are
    time steps, columns are trials), so every per-trial statistic is a sum
    over contiguous rows; per-trial arrays below are indexed trial first.
    """
    process = inputs.process
    n = process.order
    horizon = inputs.horizon
    rows = horizon - n
    coeffs = process.coeffs
    threshold = event_threshold(inputs)
    batch = stop - start

    # Per-trial sufficient statistics.  With x[f] entry f = 0 .. N + n - 1 of
    # the path (y_{1-n}, ..., y_N), e[f] the innovation that drives it and
    # z_f = (x[f-1], ..., x[f-n], e[f]):
    #   gram = sum_{f=2n}^{N+n-1} z_f z_f^T   (the residual window)
    # with Y^T Y its leading n x n block and Y^T e its last column, plus the
    # end vectors head = z_{2n-1} and tail = z_{N+n-1}.  The event window
    # f = 2n-1 .. N+n-2 is the residual window shifted back one step, so its
    # sums are the gram sums plus the head term minus the tail term.
    gram = np.zeros((batch, n + 1, n + 1))
    head = np.empty((batch, n + 1))
    tail = np.empty((batch, n + 1))

    seeds = [substream(config.master_seed, i) for i in range(start, stop)]
    for lo, window, noise in simulate_chunks(process, horizon, seeds):
        # The chunks are time-major: window row p is x[lo + p] and noise row
        # p is e[lo + n + p], one column per trial.  Every z_f with
        # lo + n <= f < hi lies whole in this chunk, one row per entry.
        hi = lo + window.shape[0]
        reg_lo = max(2 * n, lo + n) - lo
        z = [window[reg_lo - 1 - k : hi - lo - 1 - k] for k in range(n)]
        z.append(noise[reg_lo - n :])
        for j in range(n + 1):
            for k in range(j, n + 1):
                gram[:, j, k] += np.einsum("ib,ib->b", z[j], z[k])
        for end, f in ((head, 2 * n - 1), (tail, horizon + n - 1)):
            if lo + n <= f < hi:
                end[:, :n] = window[f - lo - n : f - lo][::-1].T
                end[:, n] = noise[f - lo - n]
    # Every path value and innovation that a statistic reads enters the Gram
    # diagonal or an end vector, so one that is not finite leaves them not
    # finite; y_N, the one sample they leave out, enters no statistic.
    finite = (np.isfinite(gram.diagonal(axis1=1, axis2=2)).all(axis=1)
              & np.isfinite(head).all(axis=1) & np.isfinite(tail).all(axis=1))
    upper_tri = np.triu_indices(n + 1, 1)
    gram[:, upper_tri[1], upper_tri[0]] = gram[:, upper_tri[0], upper_tri[1]]
    normal = gram[:, :n, :n]
    # A contiguous copy: einsum rounds a strided operand differently.
    s_sn = gram[:, :n, n].copy()
    s_tail = s_sn + head[:, n:] * head[:, :n] - tail[:, n:] * tail[:, :n]
    energy = gram[:, n, n] + head[:, n] ** 2 - tail[:, n] ** 2

    # Stand-in statistics keep the batched LAPACK calls and the boundary
    # closed form finite on errored trials; their events are never counted.
    errored = ~finite
    normal[errored] = np.eye(n)
    head[errored] = tail[errored] = 0.0
    eig = np.linalg.eigvalsh(normal)
    # The square of the 1e-12 diagonal ratio of a triangular factor of Y.
    errored |= eig[:, 0] <= 1e-24 * eig[:, -1]
    normal[errored] = np.eye(n)

    # Boundary event from the lag windows of the two end vectors.
    u = np.concatenate([(head[:, :n] @ coeffs)[:, None], head[:, :n]], axis=1)
    v = np.concatenate([(tail[:, :n] @ coeffs)[:, None], tail[:, :n]], axis=1)
    # Rank-2 closed form: u u^T - v v^T has the nonzero eigenvalues
    # (|u|^2 - |v|^2 +- |u - v| |u + v|) / 2, and |u|^2 - |v|^2 = d . s.
    d, s = u - v, u + v
    boundary_radius = 0.5 * (np.abs(np.einsum("bi,bi->b", d, s)) + np.sqrt(
        np.einsum("bi,bi->b", d, d) * np.einsum("bi,bi->b", s, s)))
    boundary_ok = boundary_radius <= threshold

    # Innovation energy event on the state-driving window (e_n .. e_{N-1}).
    noise_ok = np.abs(energy - rows) <= threshold

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
    sn_ok = (sign_m > 0) & (log_argument > 0.0) & (lhs_sq <= 2.0 * log_argument)

    # Least-squares error from the normal equations: theta_hat - theta
    # = (Y^T Y)^{-1} Y^T e over the residual window.
    error = np.linalg.solve(normal, s_sn[..., None])[..., 0]
    errored |= ~np.isfinite(error).all(axis=1)

    valid = ~errored
    held = {"boundary": boundary_ok, "noise_energy": noise_ok, "cross_term": cross_ok,
            "sandwich": sandwich_ok, "self_normalized": sn_ok}
    broken = {"sandwich": boundary_ok & noise_ok & cross_ok & ~sandwich_ok}
    for name, w, dev in deviations:
        # A vacuous radius holds on no trial.  It means delta exceeds the
        # determinant term, which the sandwich event makes incompatible with
        # the self-normalized event holding; both holding anyway is an
        # implication violation.
        if dev.vacuous:
            held[name] = np.zeros(batch, dtype=bool)
        else:
            held[name] = np.abs(error @ w) <= dev.radius
        broken[name] = sandwich_ok & sn_ok & ~held[name]

    counts = Counter(evaluated=int(valid.sum()), errors=int(errored.sum()))
    for name, ok in held.items():
        counts[name] = int((~ok & valid).sum())
    for name, chain in broken.items():
        counts["chain", name] = int((chain & valid).sum())
    return counts


def _frequency_row(name: str, failures: int | None, evaluated: int,
                   bound: float) -> EventCoverage:
    """Coverage row of one event; failures None marks a deviation event whose
    certificate is vacuous, which has no radius to test."""
    if failures is None:
        return EventCoverage(event=name, bound=bound, failures=None, evaluated=evaluated,
                             frequency=None, stderr=None, verdict="vacuous")
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

    Deterministic given the master seed.  Every config has a feasible
    epsilon; a row whose own bound is >= 1 reads "vacuous".  Trials that fail
    numerically are counted and excluded from frequencies; the campaign raises
    NumericalFailureError if more than MAX_ERROR_FRACTION of trials error out.
    """
    # The caller's statistics serve at unit variance: they carry no s2.
    inputs = replace(config.inputs, process=ArProcess(coeffs=config.inputs.process.coeffs))
    cert = covariance_certificate(inputs)
    gap = _lower_gap(inputs)

    deviations = [(f"deviation:{label}", w, deviation_radius(inputs, w))
                  for label, w in config.directions]
    # lower = (N - n) W U diag(gap) U^T W^T with W the Gramian's Cholesky factor.
    logdet_lower = float(inputs.process.order * math.log(inputs.effective_samples)
                         + 2.0 * np.sum(np.log(np.diag(inputs.stats.whitened_spectrum[2])))
                         + np.sum(np.log(gap)))

    batches = [(lo, min(lo + BATCH, config.trials))
               for lo in range(0, config.trials, BATCH)]

    def work(bounds: tuple[int, int]) -> Counter:
        return _run_batch(config, inputs, cert, deviations, logdet_lower,
                          bounds[0], bounds[1])

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        counts = sum(pool.map(work, batches), Counter())
    errors = counts["errors"]
    if errors > MAX_ERROR_FRACTION * config.trials:
        raise NumericalFailureError(
            f"{errors} of {config.trials} trials failed numerically "
            f"(limit {MAX_ERROR_FRACTION:.1%})"
        )

    terms = cert.failure_terms
    rows = [("boundary", terms[0]), ("noise_energy", terms[1]),
            ("cross_term", terms[2] + terms[3]), ("sandwich", cert.delta),
            ("self_normalized", cert.delta)]
    rows += [(name, dev.total_failure) for name, _, dev in deviations]
    vacuous = {name for name, _, dev in deviations if dev.vacuous}
    events = tuple(_frequency_row(name, None if name in vacuous else counts[name],
                                  counts["evaluated"], bound)
                   for name, bound in rows)

    return CoverageReport(
        trials=config.trials,
        master_seed=config.master_seed,
        horizon=inputs.horizon,
        epsilon=inputs.epsilon,
        process=config.inputs.process,
        events=events,
        sandwich_chain_violations=counts["chain", "sandwich"],
        deviation_chain_violations={label: counts["chain", f"deviation:{label}"]
                                    for label, _ in config.directions},
        trial_errors=errors,
    )
