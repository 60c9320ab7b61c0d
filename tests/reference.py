"""Test oracles: straightforward, unvectorised versions of what arcert computes.

The campaign kernel in ``arcert.montecarlo`` evaluates every event from
streamed sufficient statistics.  The functions here evaluate the same events
trial by trial on a whole :class:`OraclePath` (the path with its innovations,
order and horizon, which the library's :class:`arcert.Trajectory` does not
keep), fit least squares by an orthogonal factorisation, and give the
closed-form chi-square tail thresholds the sandwich bound rests on, with
samplers that try to break them.  The whole-horizon simulator draws one
oracle path in a single pass, the oracle for the chunked simulator.  The
deviation radius and the rate sweep are evaluated from the sandwich matrices
themselves (eigendecomposition and log determinants), the oracle for their
closed forms.  The Lyapunov equations are solved in Kronecker form and at 50
digits, the oracles for the companion solve.  Only the tests use them.

Index convention (pinned by tests against hand enumeration, since an
off-by-one here silently corrupts every event frequency): the design matrix
stacks the lag vectors Y_n, ..., Y_{N-1} as rows, paired with targets
y_{n+1}, ..., y_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from arcert import (
    ArProcess,
    BoundInputs,
    CovarianceCertificate,
    DeviationCertificate,
    InfeasibleCertificateError,
    RatePoint,
    StationaryStatistics,
    build_companion,
    covariance_certificate,
    max_feasible_epsilon,
)
from arcert.linalg import PSD_ORDER_RTOL, solve_companion_lyapunov, symmetric_sqrt
from arcert.montecarlo import CoverageReport, EventCoverage, _frequency_row, event_threshold
from arcert.process import SeedLike

# --- simulation -------------------------------------------------------------


@dataclass(frozen=True)
class OraclePath:
    """One sample path with what drove it.  ``samples`` holds
    (y_{1-n}, ..., y_N), length N + n, so the observed path (y_1, ..., y_N)
    is ``samples[order:]``; ``noise`` holds the true innovations
    (e_1, ..., e_N), which residuals of a fit would only estimate."""

    samples: np.ndarray
    noise: np.ndarray
    order: int
    horizon: int


def simulate_whole_horizon(process: ArProcess, horizon: int, seed: SeedLike) -> OraclePath:
    """One exactly stationary path drawn in a single pass.

    The stream draws the initial companion state from its stationary law,
    then all N innovations in one ``standard_normal`` call, each draw scaled
    by sqrt(s2) (the state through the factor of its covariance per unit
    variance), and the recursion runs over plain floats with the innovation
    first and the lag terms in increasing k: the draw order, scaling and
    accumulation order the chunked simulator must reproduce bit for bit.
    """
    n = process.order
    state_cov, _ = solve_companion_lyapunov(process.coeffs)
    factor = symmetric_sqrt(state_cov)
    scale = np.sqrt(process.noise_variance)
    rng = np.random.default_rng(seed)
    state = factor @ rng.standard_normal(n + 1)
    # state = (y_0, y_{-1}, ..., y_{-n}); keep (y_{1-n}, ..., y_0).
    path = (state[:n][::-1] * scale).tolist()
    noise = scale * rng.standard_normal(horizon)
    coeffs = process.coeffs.tolist()
    for e in noise.tolist():
        acc = e
        for k in range(n):
            acc += coeffs[k] * path[-1 - k]
        path.append(acc)
    return OraclePath(samples=np.asarray(path), noise=noise, order=n, horizon=horizon)


# --- stationary second-order structure -------------------------------------


def autocovariance_sequence(process: ArProcess, max_lag: int) -> np.ndarray:
    """Stationary autocovariances gamma(0), ..., gamma(max_lag).

    Uses the state-space identity E[x_{t+k} x_t^T] = A^k V, whose (1,1) entry
    is gamma(k); gamma(0) is the stationary output variance.
    """
    a = build_companion(process)
    cur, _ = solve_companion_lyapunov(process.coeffs)
    cur = process.noise_variance * cur
    gamma = np.empty(max_lag + 1)
    gamma[0] = cur[0, 0]
    for k in range(1, max_lag + 1):
        cur = a @ cur
        gamma[k] = cur[0, 0]
    return gamma


def kronecker_lyapunov(a, q) -> np.ndarray:
    """Solution of X = A X A^T + Q for any A with rho(A) < 1: one dense solve
    of the Kronecker form (I - A (x) A) vec X = vec Q, then symmetrised.
    Backward stable only, so its forward error grows with the conditioning
    of I - A (x) A."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # Row-major vec: vec(A X A^T) = (A (x) A) vec X.
    x = np.linalg.solve(np.eye(n * n) - np.kron(a, a), np.reshape(q, n * n)).reshape(n, n)
    return 0.5 * (x + x.T)


def lyapunov_mpmath(a, qs, dps: int = 50) -> list[np.ndarray]:
    """Solutions of X = A X A^T + Q, one per Q in ``qs``, from an LU solve at
    ``dps`` decimal digits rounded to float64 at the end.

    The unknowns are the entries X_ij, i <= j, of the symmetric solution, one
    equation each, so nothing here uses the companion or Toeplitz structure
    the library's solve rests on.  One LU factorisation (mpmath caches it on
    the matrix) serves every Q.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    index = {pair: k for k, pair in enumerate(pairs)}
    nonzero = [[(k, a[i, k]) for k in range(m) if a[i, k] != 0.0] for i in range(m)]
    solutions = []
    with mpmath.workdps(dps):
        system = mpmath.eye(len(pairs))
        for r, (i, j) in enumerate(pairs):
            for k, a_ik in nonzero[i]:
                for l, a_jl in nonzero[j]:
                    system[r, index[min(k, l), max(k, l)]] -= mpmath.mpf(a_ik) * mpmath.mpf(a_jl)
        for q in qs:
            x = mpmath.lu_solve(system, mpmath.matrix([float(q[i][j]) for i, j in pairs]))
            out = np.empty((m, m))
            for r, (i, j) in enumerate(pairs):
                out[i, j] = out[j, i] = float(x[r])
            solutions.append(out)
    return solutions


def toeplitz_covariance(process: ArProcess, dimension: int) -> np.ndarray:
    """Covariance matrix of (y_1, ..., y_D) for a stationary run.

    Every eigenvalue is bounded by noise_variance * peak_gain, the supremum of
    the spectral density.
    """
    gamma = autocovariance_sequence(process, dimension - 1)
    idx = np.arange(dimension)
    return gamma[np.abs(idx[:, None] - idx[None, :])]


def psd_order_holds(lower, middle, upper) -> bool:
    """True iff lower <= middle <= upper in the PSD order, up to a relative slack.

    The slack is ``PSD_ORDER_RTOL`` times the spectral norm of ``middle``, so
    exact boundary cases (equal matrices) pass.
    """
    lower, middle, upper = (np.asarray(m, dtype=float) for m in (lower, middle, upper))
    tol = PSD_ORDER_RTOL * max(
        float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (middle + middle.T))))), 1e-300)
    lo_gap = float(np.min(np.linalg.eigvalsh(0.5 * ((middle - lower) + (middle - lower).T))))
    hi_gap = float(np.min(np.linalg.eigvalsh(0.5 * ((upper - middle) + (upper - middle).T))))
    return lo_gap >= -tol and hi_gap >= -tol


# --- certificates from the sandwich matrices ---------------------------------


def deviation_radius_oracle(cert: CovarianceCertificate, direction,
                            noise_variance: float) -> DeviationCertificate:
    """The deviation radius
    2 sigma ||w^T lower^{-1/2}|| sqrt(log(det(upper lower^{-1} + I)^{1/2} / delta))
    from the sandwich matrices: w^T lower^{-1} w through a symmetric
    eigendecomposition of lower, the log-det term as
    (logdet(upper + lower) - logdet(lower)) / 2 from two ``slogdet`` calls.
    None (vacuous) when the log argument is <= 0."""
    w = np.asarray(direction, dtype=float)
    lam, u = np.linalg.eigh(cert.lower)
    sign_sum, logdet_sum = np.linalg.slogdet(cert.upper + cert.lower)
    sign_low, logdet_low = np.linalg.slogdet(cert.lower)
    if not cert.feasible or lam[0] <= 0.0 or sign_sum <= 0 or sign_low <= 0:
        raise InfeasibleCertificateError("sandwich matrices are not positive definite")
    weighted_norm_sq = float(np.sum((u.T @ w) ** 2 / lam))
    log_argument = 0.5 * float(logdet_sum - logdet_low) - cert.log_delta
    radius = None
    if log_argument > 0.0:
        radius = (2.0 * math.sqrt(noise_variance) * math.sqrt(weighted_norm_sq)
                  * math.sqrt(log_argument))
    return DeviationCertificate(direction=w, radius=radius, total_failure=2.0 * cert.delta,
                                vacuous=radius is None)


def rate_sweep_oracle(process: ArProcess, stats: StationaryStatistics, horizon_grid,
                      direction) -> tuple[list[RatePoint], float | None]:
    """(points, slope) of the decay-rate sweep with epsilon_N = ceiling - N^{-1/2},
    each point from a full covariance certificate (feasibility from the
    eigenvalues of lower) and :func:`deviation_radius_oracle`."""
    ceiling = max_feasible_epsilon(process, stats)
    points = []
    for horizon in horizon_grid:
        eps = ceiling - horizon ** -0.5
        if eps <= 0.0:
            points.append(RatePoint(horizon, eps, None, None, None, False))
            continue
        cert = covariance_certificate(BoundInputs(process=process, stats=stats,
                                                  epsilon=eps, horizon=horizon))
        radius = (deviation_radius_oracle(cert, direction, process.noise_variance).radius
                  if cert.feasible else None)
        points.append(RatePoint(horizon, eps, cert.delta, cert.log_delta, radius,
                                cert.feasible))
    usable = [(math.sqrt(p.horizon), math.log(2.0) + p.log_delta) for p in points if p.feasible]
    slope = None
    if len(usable) >= 2:
        xs, ys = np.array(usable).T
        slope = float(np.polyfit(xs, ys, 1)[0])
    return points, slope


# --- regression -------------------------------------------------------------


def lag_window(traj: OraclePath, t: int) -> np.ndarray:
    """Lag vector (y_t, y_{t-1}, ..., y_{t-n+1}) for 0 <= t <= horizon."""
    return traj.samples[t : t + traj.order][::-1]


def build_regressors(traj: OraclePath) -> tuple[np.ndarray, np.ndarray]:
    """(design, target): rows Y_t^T = [y_t ... y_{t-n+1}] and targets y_{t+1}."""
    obs = traj.samples[traj.order :]
    windows = np.lib.stride_tricks.sliding_window_view(obs[: traj.horizon - 1], traj.order)
    return np.ascontiguousarray(windows[:, ::-1]), obs[traj.order:].copy()


def ols_fit(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares by an orthogonal (SVD) factorisation, never the normal
    equations; a rank-deficient design yields the minimum-norm solution."""
    return np.linalg.lstsq(design, target, rcond=None)[0]


# --- per-trial events -------------------------------------------------------


def event_noise_window(traj: OraclePath) -> np.ndarray:
    """Innovations (e_n, ..., e_{N-1}) driving the summed states.

    Note the one-step offset against the regression residuals: the recursion
    that produces states x_n, ..., x_{N-1} consumes these innovations, while
    the regression targets consume (e_{n+1}, ..., e_N).
    """
    return traj.noise[traj.order - 1 : traj.horizon - 1]


def residual_noise_window(traj: OraclePath) -> np.ndarray:
    """Innovations (e_{n+1}, ..., e_N): exactly target - design @ coeffs."""
    return traj.noise[traj.order :]


def _state_image(a: np.ndarray, window: np.ndarray) -> np.ndarray:
    """A x_t assembled from the lag window Y_t; the companion's zero last
    column annihilates the oldest state entry, so Y_t determines A x_t."""
    return np.concatenate(([a[0, :-1] @ window], window))


def check_boundary_event(traj: OraclePath, a: np.ndarray,
                         inputs: BoundInputs) -> tuple[bool, float]:
    """Initial/final-state event: rho[A (x_first x_first^T - x_last x_last^T) A^T]
    within its third of the radius budget.  Returns (held, radius)."""
    u = _state_image(a, lag_window(traj, traj.order - 1))
    v = _state_image(a, lag_window(traj, traj.horizon - 1))
    radius = float(np.max(np.abs(np.linalg.eigvalsh(np.outer(u, u) - np.outer(v, v)))))
    return radius <= event_threshold(inputs), radius


def check_noise_energy_event(noise_window, inputs: BoundInputs) -> tuple[bool, float]:
    """Innovation energy event |sum e^2 - (N-n) s2| within its budget third.

    This is the scalar form of the rank-one matrix event: the matrix's
    spectral radius equals the absolute energy deviation.
    """
    e = np.asarray(noise_window, dtype=float)
    radius = float(abs(e @ e - inputs.effective_samples * inputs.process.noise_variance))
    return radius <= event_threshold(inputs), radius


def check_cross_term_event(traj: OraclePath, noise_window, a: np.ndarray,
                           inputs: BoundInputs) -> tuple[bool, float]:
    """State-innovation cross-term event.

    The summed cross matrix S e1^T + e1 S^T with S = sum_i e_{i+1} A x_i is
    symmetric of rank <= 2 with spectral radius |S_1| + ||S||_2 (closed form,
    cross-checked against a dense eigensolve in tests).
    """
    n, horizon = traj.order, traj.horizon
    e = np.asarray(noise_window, dtype=float)
    full = traj.samples
    s_tail = np.array([e @ full[2 * n - 2 - k : horizon + n - 2 - k] for k in range(n)])
    s_head = float(a[0, :-1] @ s_tail)
    radius = abs(s_head) + math.sqrt(s_head ** 2 + float(s_tail @ s_tail))
    return radius <= event_threshold(inputs), radius


def check_sandwich_event(design: np.ndarray, cert: CovarianceCertificate) -> bool:
    """Sandwich event lower <= design^T design <= upper (PSD order)."""
    return psd_order_holds(cert.lower, design.T @ design, cert.upper)


def check_self_normalized_event(design: np.ndarray, residual_noise,
                                cert: CovarianceCertificate,
                                noise_variance: float) -> bool:
    """Self-normalized event: ||design^T E|| in the (normal + lower)^{-1} norm
    stays below sqrt(2 s2 log(det(normal + lower)^{1/2} det(lower)^{-1/2} / delta)).

    E must be the true innovations (exactly target - design @ coeffs); using
    fitted residuals would contaminate the event.  When delta already exceeds
    the determinant term the threshold is imaginary and the event cannot hold.
    """
    s = design.T @ np.asarray(residual_noise, dtype=float)
    m = design.T @ design + cert.lower
    lhs_sq = float(s @ np.linalg.solve(m, s))
    sign_m, logdet_m = np.linalg.slogdet(m)
    sign_low, logdet_low = np.linalg.slogdet(cert.lower)
    if sign_m <= 0 or sign_low <= 0:
        return False
    log_argument = 0.5 * float(logdet_m - logdet_low) - cert.log_delta
    return log_argument > 0.0 and lhs_sq <= 2.0 * float(noise_variance) * log_argument


def evaluate_trial(process: ArProcess, a: np.ndarray, inputs: BoundInputs,
                   cert: CovarianceCertificate,
                   dev_certs: dict[str, DeviationCertificate],
                   traj: OraclePath) -> dict[str, bool | None]:
    """Every event of one trial, keyed by its coverage-report name; a
    deviation event is None when its certificate is vacuous.  Asserts the two
    deterministic implications between them (:func:`assert_implications`).
    """
    design, target = build_regressors(traj)
    error = ols_fit(design, target) - process.coeffs
    noise = event_noise_window(traj)
    held = {
        "boundary": check_boundary_event(traj, a, inputs)[0],
        "noise_energy": check_noise_energy_event(noise, inputs)[0],
        "cross_term": check_cross_term_event(traj, noise, a, inputs)[0],
        "sandwich": check_sandwich_event(design, cert),
        "self_normalized": check_self_normalized_event(
            design, residual_noise_window(traj), cert, process.noise_variance),
    }
    for label, dev in dev_certs.items():
        held[f"deviation:{label}"] = (
            None if dev.vacuous else bool(abs(float(dev.direction @ error)) <= dev.radius))
    assert_implications(held)
    return held


def assert_implications(held: dict[str, bool | None]) -> None:
    """The three component events force the sandwich, and the sandwich with
    the self-normalized event forces every deviation radius.  Both hold by
    construction, so a violation is a bug, not bad luck."""
    assert held["sandwich"] or not (
        held["boundary"] and held["noise_energy"] and held["cross_term"]), \
        "all three component events held but the sandwich failed"
    if held["sandwich"] and held["self_normalized"]:
        assert all(ok is not False for event, ok in held.items()
                   if event.startswith("deviation:")), \
            "sandwich and self-normalized held but a deviation exceeded its radius"


def report_row(report: CoverageReport, name: str) -> EventCoverage:
    """The coverage row of ``report`` for the event named ``name``."""
    return {row.event: row for row in report.events}[name]


# --- chi-square tail thresholds and their falsification ----------------------


def chi2_upper_threshold(dof: int, x: float) -> float:
    """Upper-tail threshold for a chi-square variable U with ``dof`` degrees of
    freedom: P(U >= dof + 2 sqrt(dof x) + 2 x) <= exp(-x)."""
    return dof + 2.0 * math.sqrt(dof * x) + 2.0 * x


def chi2_lower_threshold(dof: int, x: float) -> float:
    """Lower-tail threshold: P(U <= dof - 2 sqrt(dof x)) <= exp(-x)."""
    return dof - 2.0 * math.sqrt(dof * x)


def weighted_chi2_upper_threshold(weights, x: float) -> float:
    """Deviation threshold for Z = sum a_i (V_i^2 - 1) with nonnegative weights:
    P(Z >= 2 ||a||_2 sqrt(x) + 2 ||a||_inf x) <= exp(-x).

    With all-ones weights this reduces exactly to the unweighted chi-square
    threshold minus its mean.
    """
    a = np.atleast_1d(np.asarray(weights, dtype=float))
    return 2.0 * float(np.linalg.norm(a)) * math.sqrt(x) + 2.0 * float(a.max()) * x


def weierstrass_lower_bound(lambdas) -> float:
    """Lower bound 1 - sum(l_k) for the product prod(1 - l_k), l_k in [0, 1]."""
    return float(1.0 - np.sum(lambdas))


def spectral_radius_subadditive_check(a, b) -> bool:
    """True iff rho(a + b) <= rho(a) + rho(b) + 1e-10 for symmetric a, b.

    Subadditivity holds for all Hermitian pairs; it is the step that combines
    the three per-event spectral-radius bounds into one.
    """
    def rho(m):
        return float(np.max(np.abs(np.linalg.eigvals(m))))

    return rho(a + b) <= rho(a) + rho(b) + 1e-10


def chi2_tail_frequencies(dof: int, x: float, samples: int,
                          seed) -> tuple[EventCoverage, EventCoverage]:
    """Empirical (upper, lower) tail frequencies of chi-square draws against
    the bound exp(-x), judged by the campaign's three-standard-error rule."""
    draws = np.random.default_rng(seed).chisquare(dof, size=samples)
    upper_hits = int(np.count_nonzero(draws >= chi2_upper_threshold(dof, x)))
    lower_hits = int(np.count_nonzero(draws <= chi2_lower_threshold(dof, x)))
    return (_frequency_row("chi2_upper", upper_hits, samples, math.exp(-x)),
            _frequency_row("chi2_lower", lower_hits, samples, math.exp(-x)))


def weighted_chi2_tail_frequency(weights, x: float, samples: int, seed) -> EventCoverage:
    """Empirical upper-tail frequency of Z = sum a_i (V_i^2 - 1).

    Draws are processed in chunks of 100 000 rows to keep the
    (samples x len(weights)) normal matrix out of memory.
    """
    a = np.atleast_1d(np.asarray(weights, dtype=float))
    threshold = weighted_chi2_upper_threshold(a, x)
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, samples, 100_000):
        z = rng.standard_normal((min(100_000, samples - done), a.size))
        hits += int(np.count_nonzero((z * z) @ a - a.sum() >= threshold))
    return _frequency_row("weighted_chi2_upper", hits, samples, math.exp(-x))
