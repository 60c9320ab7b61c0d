"""Closed-form certificate evaluation for least-squares AR(n) identification.

Given a stable process and a tightness parameter epsilon, this module builds:

* a two-sided PSD sandwich on the regression normal matrix Y^T Y that fails
  with probability at most ``delta(epsilon, N)``, where delta is an explicit
  sum of four exponential terms (one per concentration event);
* a certified radius on |w^T (theta_hat - theta)| for any unit direction w,
  failing with probability at most ``2 delta``;
* a decay-rate table along a horizon grid for the feasibility-ceiling choice
  of epsilon, under which log delta falls off linearly in sqrt(N).

delta does not depend on the innovation variance (all variance ratios cancel),
and neither does the deviation radius.  All functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCertificateError
from .process import ArProcess
from .stationary import StationaryStatistics

#: Condition-number threshold above which inverse square roots warn.
CONDITION_WARN_LIMIT = 1e12

#: Relative clustering tolerance when counting the multiplicity of the
#: smallest whitened eigenvalue (exact algebraic multiplicity is numerically
#: undecidable).
EIGENVALUE_CLUSTER_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything a bound evaluation needs: process, its stationary statistics,
    the tightness parameter epsilon and the sample horizon N.

    epsilon = 0 is accepted as a degenerate boundary (the sandwich collapses
    to a single matrix and each failure term sits at its epsilon -> 0 limit);
    informative certificates require epsilon > 0.
    """

    process: ArProcess
    stats: StationaryStatistics
    epsilon: float
    horizon: int

    def __post_init__(self):
        eps = float(self.epsilon)
        horizon = int(self.horizon)
        if not np.isfinite(eps) or eps < 0.0:
            raise ValueError(f"epsilon must be a finite nonnegative real, got {eps!r}")
        if horizon <= self.process.order:
            raise ValueError("horizon must exceed the process order")
        if self.stats.order != self.process.order:
            raise ValueError("stats and process disagree on the order")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "horizon", horizon)

    @property
    def effective_samples(self) -> int:
        """N - n, the number of regression rows."""
        return self.horizon - self.process.order


def regressor_energy_scale(inputs: BoundInputs) -> float:
    """High-probability scale for the normalised regressor energy.

    beta = (n+1) N / (N-n) * [ E{y^2} / (eps s2) + 2 G (1 + eps^{-1/2}) / N^{1/4} ]
    with G the peak transfer gain; eps * beta bounds
    sum_i ||Y_i||^2 / (s2 (N-n)) except with probability exp(-eps sqrt(N)).
    Decreasing in eps; +inf at the eps = 0 boundary.
    """
    eps = inputs.epsilon
    if eps == 0.0:
        return math.inf
    n, big_n = inputs.process.order, inputs.horizon
    sigma2 = inputs.process.noise_variance
    lead = (n + 1) * big_n / (big_n - n)
    return lead * (
        inputs.stats.output_variance / (eps * sigma2)
        + 2.0 * inputs.stats.peak_gain * (1.0 + eps ** -0.5) / big_n ** 0.25
    )


def _boundary_exponent(inputs: BoundInputs) -> float:
    """Exponent of the initial/final-state event's failure term.

    Bounds P( rho[A (x_first x_first^T - x_last x_last^T) A^T] > eps s2 (N-n)/3 )
    by 2 sqrt(2) exp(- (N-n) s2 eps / (24 n E{y^2})).
    """
    return (inputs.effective_samples * inputs.process.noise_variance * inputs.epsilon
            / (24.0 * inputs.process.order * inputs.stats.output_variance))


def _noise_energy_exponent(inputs: BoundInputs) -> float:
    """Exponent of the innovation second-moment event's failure term.

    Bounds P( |sum e^2 / (N-n) - s2| > s2 eps / 3 ) by
    2 exp(- (N-n)/2 * (1 + eps/3 - sqrt(1 + 2 eps/3))).  With a = eps/3 the
    bracket equals a^2 / (1 + a + sqrt(1 + 2a)), which is evaluated instead:
    the difference form cancels (about two digits at eps = 0.5, nearly all of
    them at eps = 1e-6), the quotient of positive terms does not.
    """
    a = inputs.epsilon / 3.0
    return 0.5 * inputs.effective_samples * (a * a / (1.0 + a + math.sqrt(1.0 + 2.0 * a)))


def _cross_term_exponents(inputs: BoundInputs, energy_scale: float) -> tuple[float, float]:
    """Exponents of the state-innovation cross-term event's two failure terms.

    Two-term bound: a martingale term 2 exp(-(N-n) eps / (72 (||c||+1)^2 beta))
    plus a regressor-energy term 2 exp(-eps sqrt(N)), with beta the regressor
    energy scale.
    """
    theta_gain = (np.linalg.norm(inputs.process.coeffs) + 1.0) ** 2
    first = inputs.effective_samples * inputs.epsilon / (72.0 * theta_gain * energy_scale)
    second = inputs.epsilon * math.sqrt(inputs.horizon)
    return first, second


@dataclass(frozen=True, eq=False)
class CovarianceCertificate:
    """Two-sided PSD sandwich on the normal matrix Y^T Y.

    lower/upper are (N-n) [I 0] (V -/+ eps s2 G) [I 0]^T built from the
    stationary state covariance V and Gramian G; the sandwich
    lower <= Y^T Y <= upper holds with probability at least 1 - delta.
    ``feasible`` records whether lower is strictly positive definite, i.e.
    whether epsilon sits below the feasibility ceiling.

    ``failure_terms`` are (boundary, noise-energy, cross-martingale,
    regressor-energy), each including its outer factor; ``delta`` is their sum
    and ``log_delta`` its logarithm computed in log space, which stays finite
    long after ``delta`` underflows.  ``energy_scale`` is the regressor energy
    scale beta.
    """

    lower: np.ndarray
    upper: np.ndarray
    delta: float
    failure_terms: tuple[float, float, float, float]
    energy_scale: float
    log_delta: float
    feasible: bool
    epsilon: float
    horizon: int

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).copy()
        up = np.asarray(self.upper, dtype=float).copy()
        lo.flags.writeable = False
        up.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def order(self) -> int:
        return int(self.lower.shape[0])


def covariance_certificate(inputs: BoundInputs) -> CovarianceCertificate:
    """Evaluate the sandwich matrices, the failure bound and the feasibility flag.

    delta(epsilon, N) is the sum of the four per-event failure terms
    c exp(-a), with c = 2 sqrt(2) for the boundary event and 2 otherwise.  An
    infeasible epsilon (lower not positive definite) is reported through the
    flag, not an error, so sweeps can chart where certificates become
    informative.
    """
    rows = inputs.effective_samples
    spread = inputs.epsilon * inputs.process.noise_variance * inputs.stats.gramian_block
    v_block = inputs.stats.state_covariance_block
    lower = rows * (v_block - spread)
    upper = rows * (v_block + spread)
    lower = 0.5 * (lower + lower.T)
    upper = 0.5 * (upper + upper.T)
    scale = regressor_energy_scale(inputs)
    exponents = (_boundary_exponent(inputs), _noise_energy_exponent(inputs),
                 *_cross_term_exponents(inputs, scale))
    leads = (2.0 * math.sqrt(2.0), 2.0, 2.0, 2.0)
    terms = tuple(c * math.exp(-a) for c, a in zip(leads, exponents))
    log_delta = float(np.logaddexp.reduce([math.log(c) - a for c, a in zip(leads, exponents)]))
    return CovarianceCertificate(
        lower=lower,
        upper=upper,
        delta=float(sum(terms)),
        failure_terms=terms,
        energy_scale=scale,
        log_delta=log_delta,
        feasible=bool(np.linalg.eigvalsh(lower)[0] > 0.0),
        epsilon=inputs.epsilon,
        horizon=inputs.horizon,
    )


def _whitened_spectrum(process: ArProcess,
                       stats: StationaryStatistics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of W^{-1} V_blk W^{-T} with W W^T = s2 * Gramian block.

    Returns (eigenvalues ascending, eigenvectors, W).  The smallest eigenvalue
    is the feasibility ceiling for epsilon and the sqrt(N) decay rate of the
    failure bound; it is invariant to the innovation variance since both blocks
    scale linearly with it.
    """
    n = process.order
    gamma_bar = process.noise_variance * stats.gramian_block
    w_factor = np.linalg.cholesky(gamma_bar)
    half = np.linalg.solve(w_factor, stats.state_covariance_block)
    whitened = np.linalg.solve(w_factor, half.T).T
    lam, u = np.linalg.eigh(0.5 * (whitened + whitened.T))
    return lam, u, w_factor


def max_feasible_epsilon(process: ArProcess, stats: StationaryStatistics) -> float:
    """Feasibility ceiling: the sandwich lower matrix is positive definite iff
    epsilon is strictly below this value."""
    lam, _, _ = _whitened_spectrum(process, stats)
    return float(lam[0])


@dataclass(frozen=True, eq=False)
class DeviationCertificate:
    """Certified radius on |w^T (theta_hat - theta)| for a unit direction w.

    The radius fails with probability at most ``total_failure`` = 2 delta.
    ``vacuous`` is set (and radius is None) when delta already exceeds the
    determinant term, which makes the log in the radius nonpositive; such
    certificates are formally correct but carry no information.
    """

    direction: np.ndarray
    radius: float | None
    total_failure: float
    vacuous: bool

    def __post_init__(self):
        w = np.asarray(self.direction, dtype=float).copy()
        w.flags.writeable = False
        object.__setattr__(self, "direction", w)


def _unit_direction(direction, order: int) -> np.ndarray:
    w = np.atleast_1d(np.asarray(direction, dtype=float))
    if w.shape != (order,):
        raise ValueError(f"direction must have length {order}, got shape {w.shape}")
    if not abs(np.linalg.norm(w) - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError("direction must have unit 2-norm")
    return w


def _log_det_ratio_term(cert: CovarianceCertificate) -> float:
    """log det(upper lower^{-1} + I)^{1/2} = (logdet(upper+lower) - logdet(lower)) / 2."""
    sign_sum, logdet_sum = np.linalg.slogdet(cert.upper + cert.lower)
    sign_low, logdet_low = np.linalg.slogdet(cert.lower)
    if sign_sum <= 0 or sign_low <= 0:
        raise InfeasibleCertificateError("sandwich matrices are not positive definite")
    return 0.5 * float(logdet_sum - logdet_low)


def deviation_radius(cert: CovarianceCertificate, direction,
                     noise_variance: float) -> DeviationCertificate:
    """Evaluate the deviation radius
    2 sigma ||w^T lower^{-1/2}|| sqrt(log(det(upper lower^{-1} + I)^{1/2} / delta)).

    Requires a feasible certificate.  The inverse square root is taken through
    a symmetric eigendecomposition so near-singular lower matrices degrade
    gracefully (with a condition warning); when the log argument is <= 1 the
    certificate is returned with the vacuous flag instead of a fake radius.
    The radius is invariant to the innovation variance: the leading sigma
    cancels against the sigma^2 carried by the sandwich matrices.
    """
    if not cert.feasible:
        raise InfeasibleCertificateError(
            "deviation radius requires a feasible certificate (epsilon below the ceiling)"
        )
    w = _unit_direction(direction, cert.order)
    sigma2 = float(noise_variance)
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError("noise_variance must be a positive finite real")

    lam, u = np.linalg.eigh(cert.lower)
    if lam[0] <= 0.0:
        raise InfeasibleCertificateError("lower sandwich matrix is not positive definite")
    if lam[-1] / lam[0] > CONDITION_WARN_LIMIT:
        warnings.warn(
            f"lower sandwich matrix condition number {lam[-1] / lam[0]:.3e} exceeds "
            f"{CONDITION_WARN_LIMIT:.0e}; the radius may be inaccurate",
            RuntimeWarning,
        )
    weighted_norm_sq = float(np.sum((u.T @ w) ** 2 / lam))

    log_argument = _log_det_ratio_term(cert) - cert.log_delta
    total_failure = 2.0 * cert.delta
    if log_argument <= 0.0:
        return DeviationCertificate(direction=w, radius=None,
                                    total_failure=total_failure, vacuous=True)
    radius = 2.0 * math.sqrt(sigma2) * math.sqrt(weighted_norm_sq) * math.sqrt(log_argument)
    return DeviationCertificate(direction=w, radius=radius,
                                total_failure=total_failure, vacuous=False)


@dataclass(frozen=True)
class RatePoint:
    """One horizon entry of a decay-rate sweep (epsilon pinned to ceiling - N^{-1/2})."""

    horizon: int
    epsilon: float
    delta: float | None
    log_delta: float | None
    radius: float | None
    feasible: bool


@dataclass(frozen=True, eq=False)
class RateAnalysis:
    """Decay-rate summary along a horizon grid.

    epsilon_ceiling: the feasibility ceiling (also the asymptotic decay rate
        of log(2 delta) per sqrt(N)).
    multiplicity: number of whitened eigenvalues clustered at the ceiling.
    slow_directions: orthonormal basis (n x multiplicity) of the subspace in
        which the certified radius shrinks slowest; directions orthogonal to
        it enjoy a faster per-sample rate.
    points: one entry per requested horizon.
    slope: least-squares slope of log(2 delta) against sqrt(N) over the
        feasible points (None when fewer than two are feasible).
    """

    epsilon_ceiling: float
    multiplicity: int
    slow_directions: np.ndarray
    points: tuple[RatePoint, ...]
    slope: float | None

    def __post_init__(self):
        basis = np.asarray(self.slow_directions, dtype=float).copy()
        basis.flags.writeable = False
        object.__setattr__(self, "slow_directions", basis)


def rate_analysis(process: ArProcess, stats: StationaryStatistics,
                  horizon_grid, direction) -> RateAnalysis:
    """Sweep horizons with epsilon_N = ceiling - N^{-1/2} and fit the decay rate.

    Horizons too small for a positive epsilon are marked infeasible.  The slope
    is fitted on log(2 delta) computed in log space, so it stays exact far past
    the underflow point of delta itself.
    """
    grid = [int(h) for h in horizon_grid]
    if not grid:
        raise ValueError("horizon_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("horizon_grid must be strictly increasing")
    if grid[0] <= process.order:
        raise ValueError("every horizon must exceed the process order")
    w = _unit_direction(direction, process.order)

    lam, u, w_factor = _whitened_spectrum(process, stats)
    ceiling = float(lam[0])
    cluster = lam <= lam[0] * (1.0 + EIGENVALUE_CLUSTER_RTOL)
    multiplicity = int(np.count_nonzero(cluster))
    raw_basis = np.linalg.solve(w_factor.T, u[:, cluster])
    basis, _ = np.linalg.qr(raw_basis)

    points = []
    for horizon in grid:
        eps = ceiling - horizon ** -0.5
        if eps <= 0.0:
            points.append(RatePoint(horizon=horizon, epsilon=eps, delta=None,
                                    log_delta=None, radius=None, feasible=False))
            continue
        cert = covariance_certificate(
            BoundInputs(process=process, stats=stats, epsilon=eps, horizon=horizon)
        )
        dev = deviation_radius(cert, w, process.noise_variance)
        points.append(RatePoint(horizon=horizon, epsilon=eps, delta=cert.delta,
                                log_delta=cert.log_delta, radius=dev.radius,
                                feasible=cert.feasible))

    usable = [(math.sqrt(p.horizon), math.log(2.0) + p.log_delta)
              for p in points if p.feasible]
    slope = None
    if len(usable) >= 2:
        xs = np.array([x for x, _ in usable])
        ys = np.array([y for _, y in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])

    return RateAnalysis(epsilon_ceiling=ceiling, multiplicity=multiplicity,
                        slow_directions=basis, points=tuple(points), slope=slope)
