"""Closed-form certificate evaluation for least-squares AR(n) identification.

Given a stable process and a tightness parameter epsilon, this module builds:

* a two-sided PSD sandwich on the regression normal matrix Y^T Y that fails
  with probability at most ``delta(epsilon, N)``, where delta is an explicit
  sum of four exponential terms (one per concentration event);
* a certified radius on |w^T (theta_hat - theta)| for any unit direction w,
  failing with probability at most ``2 delta``;
* a decay-rate table along a horizon grid for the feasibility-ceiling choice
  of epsilon, under which log delta falls off linearly in sqrt(N).

No bound depends on the innovation variance s2 (all variance ratios cancel),
so each is computed per unit variance, with the same bits at every s2, which
scales only the sandwich matrices and the event threshold.  The radius and
the ceiling are closed forms in the spectrum mu of the whitened stationary
covariance (``StationaryStatistics.whitened_spectrum``), decomposed once per
process; a sweep over horizons builds no sandwich matrix.  One predicate
decides feasibility for the certificate, the radius, the sweep and the
campaign: mu_min - eps > 0 (:func:`_lower_gap`).  All functions are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCertificateError
from .process import ArProcess, _frozen, _integer, _positive
from .stationary import StationaryStatistics

#: Threshold on cond(G_blk) mu_max / (mu_min - eps), over the whitened
#: spectrum mu, above which the deviation radius warns: mu_max / (mu_min -
#: eps) bounds how the gap magnifies rounding in mu, and cond(G_blk) the
#: rounding of the whitening itself, which mu cannot show.
CONDITION_WARN_LIMIT = 1e12

#: Component concentration events (boundary, noise energy, cross term) over
#: which the radius budget eps s2 (N - n) is split evenly; together they force
#: the sandwich by subadditivity of the spectral radius on symmetric matrices.
COMPONENT_EVENTS = 3

#: Relative clustering tolerance when counting the multiplicity of the
#: smallest whitened eigenvalue (exact algebraic multiplicity is numerically
#: undecidable).
EIGENVALUE_CLUSTER_RTOL = 1e-8


def _check_same_process(process: ArProcess, stats: StationaryStatistics) -> None:
    """ValueError unless ``stats`` were solved for the coefficients of ``process``:
    V, G, E{y^2} and the peak gain are per unit variance, so any s2 will do."""
    if not np.array_equal(stats.coeffs, process.coeffs):
        raise ValueError("stats were solved for another process (other coefficients)")


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Everything a bound evaluation needs: process, its stationary statistics,
    the tightness parameter epsilon and the sample horizon N.

    The one rule for which epsilon has a certificate: a positive finite real
    whose regressor energy scale (about E{y^2} / epsilon) is finite, else a
    ValueError naming epsilon.  As epsilon -> 0, delta tends to 8.83.
    """

    process: ArProcess
    stats: StationaryStatistics
    epsilon: float
    horizon: int

    def __post_init__(self):
        eps = _positive(self.epsilon, "epsilon")
        horizon = _integer(self.horizon, "horizon")
        if horizon <= self.process.order:
            raise ValueError("horizon must exceed the process order")
        _check_same_process(self.process, self.stats)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "horizon", horizon)
        if not math.isfinite(regressor_energy_scale(self)):
            raise ValueError(f"epsilon {eps!r} is so small that the regressor energy scale "
                             "E{y^2} / epsilon overflows")

    @property
    def effective_samples(self) -> int:
        """N - n, the number of regression rows."""
        return self.horizon - self.process.order


def event_threshold(inputs: BoundInputs) -> float:
    """Per-event spectral-radius budget eps s2 (N - n) / COMPONENT_EVENTS,
    the threshold each component event's failure term bounds."""
    return (inputs.epsilon * inputs.process.noise_variance * inputs.effective_samples
            / COMPONENT_EVENTS)


def regressor_energy_scale(inputs: BoundInputs) -> float:
    """High-probability scale for the normalised regressor energy.

    beta = (n+1) N / (N-n) * [ E{y^2} / (eps s2) + 2 G (1 + eps^{-1/2}) / N^{1/4} ]
    with G the peak transfer gain; eps * beta bounds
    sum_i ||Y_i||^2 / (s2 (N-n)) except with probability exp(-eps sqrt(N)).
    Decreasing in eps, and finite for every epsilon :class:`BoundInputs` accepts.
    """
    eps = inputs.epsilon
    n, big_n = inputs.process.order, inputs.horizon
    lead = (n + 1) * big_n / (big_n - n)
    return lead * (
        inputs.stats.output_variance / eps
        + 2.0 * inputs.stats.peak_gain * (1.0 + eps ** -0.5) / big_n ** 0.25
    )


def _boundary_exponent(inputs: BoundInputs) -> float:
    """Exponent of the initial/final-state event's failure term.

    With K = COMPONENT_EVENTS, bounds
    P( rho[A (x_first x_first^T - x_last x_last^T) A^T] > eps s2 (N-n)/K )
    by 2 sqrt(2) exp(- (N-n) s2 eps / (8 K n E{y^2})).
    """
    return (inputs.effective_samples * inputs.epsilon
            / (8.0 * COMPONENT_EVENTS * inputs.process.order * inputs.stats.output_variance))


def _noise_energy_exponent(inputs: BoundInputs) -> float:
    """Exponent of the innovation second-moment event's failure term.

    With a = eps / COMPONENT_EVENTS, bounds P( |sum e^2 / (N-n) - s2| > s2 a )
    by 2 exp(- (N-n)/2 * (1 + a - sqrt(1 + 2a))).  The bracket equals
    a^2 / (1 + a + sqrt(1 + 2a)), which is evaluated instead: the difference
    form cancels (about two digits at eps = 0.5, nearly all of them at
    eps = 1e-6), the quotient of positive terms does not.
    """
    a = inputs.epsilon / COMPONENT_EVENTS
    return 0.5 * inputs.effective_samples * (a * a / (1.0 + a + math.sqrt(1.0 + 2.0 * a)))


def _cross_term_exponents(inputs: BoundInputs, energy_scale: float) -> tuple[float, float]:
    """Exponents of the state-innovation cross-term event's two failure terms.

    Two-term bound: a martingale term 2 exp(-(N-n) eps / (8 K^2 (||c||+1)^2 beta))
    plus a regressor-energy term 2 exp(-eps sqrt(N)), with K = COMPONENT_EVENTS
    and beta the regressor energy scale.
    """
    theta_gain = (np.linalg.norm(inputs.process.coeffs) + 1.0) ** 2
    first = (inputs.effective_samples * inputs.epsilon
             / (8.0 * COMPONENT_EVENTS ** 2 * theta_gain * energy_scale))
    second = inputs.epsilon * math.sqrt(inputs.horizon)
    return first, second


def _failure_bound(inputs: BoundInputs) -> tuple[float, tuple[float, ...], float, float]:
    """(energy scale, failure terms, delta, log delta) of the sandwich.

    delta(epsilon, N) is the sum of the four per-event failure terms
    c exp(-a), with c = 2 sqrt(2) for the boundary event and 2 otherwise; its
    logarithm is summed in log space, so it stays finite long after delta
    underflows.  The one evaluation of delta: the certificate, the radius and
    the sweep all read it from here.
    """
    scale = regressor_energy_scale(inputs)
    exponents = (_boundary_exponent(inputs), _noise_energy_exponent(inputs),
                 *_cross_term_exponents(inputs, scale))
    leads = (2.0 * math.sqrt(2.0), 2.0, 2.0, 2.0)
    terms = tuple(c * math.exp(-a) for c, a in zip(leads, exponents))
    log_delta = float(np.logaddexp.reduce([math.log(c) - a for c, a in zip(leads, exponents)]))
    # A left fold: builtin sum of floats is compensated from Python 3.12.
    return scale, terms, ((terms[0] + terms[1]) + terms[2]) + terms[3], log_delta


@dataclass(frozen=True, eq=False)
class CovarianceCertificate:
    """Two-sided PSD sandwich on the normal matrix Y^T Y.

    lower/upper are (N-n) s2 [I 0] (V -/+ eps G) [I 0]^T built from the
    state covariance V per unit variance and the Gramian G; the sandwich
    lower <= Y^T Y <= upper holds with probability at least 1 - delta.
    ``feasible`` records whether lower is strictly positive definite, by the
    one predicate of :func:`_lower_gap`.

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
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))


def _lower_gap(inputs: BoundInputs) -> np.ndarray | None:
    """The whitened gap mu - eps if lower = (N - n) s2 W U diag(gap) U^T W^T
    is positive definite (gap[0] > 0), else None: the one feasibility test."""
    gap = inputs.stats.whitened_spectrum[0] - inputs.epsilon
    return gap if gap[0] > 0.0 else None


def covariance_certificate(inputs: BoundInputs) -> CovarianceCertificate:
    """Evaluate the sandwich matrices, the failure bound and the feasibility flag.

    An infeasible epsilon (lower not positive definite) is reported through
    the flag, not an error, so callers can chart where certificates become
    informative.  Sandwich matrices beyond double range are a ValueError
    naming noise_variance and epsilon, never an infinite matrix.
    """
    units = inputs.effective_samples * inputs.process.noise_variance
    spread = inputs.epsilon * inputs.stats.gramian_block
    v_block = inputs.stats.state_covariance_block
    with np.errstate(over="ignore"):  # raised below, naming the inputs
        lower, upper = units * (v_block - spread), units * (v_block + spread)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError(f"noise_variance {inputs.process.noise_variance!r} and epsilon "
                         f"{inputs.epsilon!r}: the sandwich matrices (N - n) s2 (V -/+ eps G) "
                         "overflow")
    scale, terms, delta, log_delta = _failure_bound(inputs)
    return CovarianceCertificate(
        lower=lower,
        upper=upper,
        delta=delta,
        failure_terms=terms,
        energy_scale=scale,
        log_delta=log_delta,
        feasible=_lower_gap(inputs) is not None,
        epsilon=inputs.epsilon,
        horizon=inputs.horizon,
    )


def max_feasible_epsilon(process: ArProcess, stats: StationaryStatistics) -> float:
    """Feasibility ceiling mu_min, the smallest eigenvalue of the pencil
    (V_blk, G_blk): lower is positive definite iff eps < mu_min
    (:func:`_lower_gap`).  It is also the sqrt(N) decay rate of delta."""
    _check_same_process(process, stats)
    return float(stats.whitened_spectrum[0][0])


def ceiling_rule_epsilon(ceiling: float, horizon: int) -> float:
    """eps_N = ceiling - N^{-1/2}, under which delta decays like exp(-ceiling sqrt(N))."""
    return ceiling - horizon ** -0.5


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
        object.__setattr__(self, "direction", _frozen(self.direction))


def _unit_direction(direction, order: int) -> np.ndarray:
    w = np.atleast_1d(np.asarray(direction, dtype=float))
    if w.shape != (order,):
        raise ValueError(f"direction must have length {order}, got shape {w.shape}")
    if not abs(np.linalg.norm(w) - 1.0) <= 1e-12:  # also rejects NaN
        raise ValueError("direction must have unit 2-norm")
    return w


def _radius(inputs: BoundInputs, gap: np.ndarray, coords: np.ndarray,
            log_delta: float) -> float | None:
    """The deviation radius
    2 sigma ||w^T lower^{-1/2}|| sqrt(log(det(upper lower^{-1} + I)^{1/2} / delta)),
    or None when the log argument is <= 0 (the radius is vacuous).

    With (mu, U, W) the whitened spectrum, gap from :func:`_lower_gap`,
    coords = U^T W^{-1} w and m = (N - n) s2, lower = m W U diag(gap) U^T W^T
    and upper + lower = 2 m W U diag(mu) U^T W^T, so s2 w^T lower^{-1} w
    = sum_i coords_i^2 / ((N - n) gap_i), free of the leading sigma, and the
    log-det term is 1/2 sum_i log(2 mu_i / gap_i).  No matrix of the sandwich
    is formed or factored.
    """
    mu = inputs.stats.whitened_spectrum[0]
    ratio = inputs.stats.gramian_condition * mu[-1] / gap[0]
    if ratio > CONDITION_WARN_LIMIT:
        warnings.warn(f"cond(G_blk) mu_max / (mu_min - eps) = {ratio:.3e} exceeds "
                      f"{CONDITION_WARN_LIMIT:.0e}; the radius may be inaccurate", RuntimeWarning)
    weighted_norm_sq = float(np.sum(coords ** 2 / gap)) / inputs.effective_samples
    log_argument = 0.5 * float(np.sum(np.log(2.0 * mu / gap))) - log_delta
    if log_argument <= 0.0:
        return None
    return 2.0 * math.sqrt(weighted_norm_sq) * math.sqrt(log_argument)


def deviation_radius(inputs: BoundInputs, direction) -> DeviationCertificate:
    """Certified radius on |w^T (theta_hat - theta)| for the sandwich of
    ``inputs`` (see :func:`_radius`), failing with probability at most 2 delta.

    Requires a feasible certificate (:func:`_lower_gap`).  When the log
    argument is <= 0 the certificate is returned with the vacuous flag instead
    of a fake radius.
    """
    w = _unit_direction(direction, inputs.process.order)
    gap = _lower_gap(inputs)
    if gap is None:
        raise InfeasibleCertificateError(
            "deviation radius requires a feasible certificate (epsilon below the ceiling)")
    _, u, w_factor = inputs.stats.whitened_spectrum
    _, _, delta, log_delta = _failure_bound(inputs)
    radius = _radius(inputs, gap, u.T @ np.linalg.solve(w_factor, w), log_delta)
    return DeviationCertificate(direction=w, radius=radius, total_failure=2.0 * delta,
                                vacuous=radius is None)


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
        object.__setattr__(self, "slow_directions", _frozen(self.slow_directions))


def rate_analysis(process: ArProcess, stats: StationaryStatistics,
                  horizon_grid, direction) -> RateAnalysis:
    """Sweep horizons with epsilon_N = ceiling - N^{-1/2} and fit the decay rate.

    Horizons too small for a positive epsilon are marked infeasible, and so
    is an epsilon that rounds to the ceiling (:func:`_lower_gap`).  Each point
    evaluates delta and the closed-form radius from the one whitened spectrum
    of ``stats``.  The slope is fitted on log(2 delta) computed in log space,
    so it stays exact far past the underflow point of delta itself.
    """
    grid = [_integer(h, "horizon_grid") for h in horizon_grid]
    if not grid:
        raise ValueError("horizon_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("horizon_grid must be strictly increasing")
    if grid[0] <= process.order:
        raise ValueError("every horizon must exceed the process order")
    w = _unit_direction(direction, process.order)

    mu, u, w_factor = stats.whitened_spectrum
    coords = u.T @ np.linalg.solve(w_factor, w)  # free of epsilon and N: once per sweep
    ceiling = max_feasible_epsilon(process, stats)
    cluster = mu <= mu[0] * (1.0 + EIGENVALUE_CLUSTER_RTOL)
    multiplicity = int(np.count_nonzero(cluster))
    raw_basis = np.linalg.solve(w_factor.T, u[:, cluster])
    basis, _ = np.linalg.qr(raw_basis)

    points = []
    for horizon in grid:
        eps = ceiling_rule_epsilon(ceiling, horizon)
        if eps <= 0.0:
            points.append(RatePoint(horizon=horizon, epsilon=eps, delta=None,
                                    log_delta=None, radius=None, feasible=False))
            continue
        inputs = BoundInputs(process=process, stats=stats, epsilon=eps, horizon=horizon)
        _, _, delta, log_delta = _failure_bound(inputs)
        gap = _lower_gap(inputs)
        radius = None if gap is None else _radius(inputs, gap, coords, log_delta)
        points.append(RatePoint(horizon=horizon, epsilon=eps, delta=delta,
                                log_delta=log_delta, radius=radius, feasible=gap is not None))

    usable = [(math.sqrt(p.horizon), math.log(2.0) + p.log_delta)
              for p in points if p.feasible]
    slope = None
    if len(usable) >= 2:
        xs, ys = np.array(usable).T
        slope = float(np.polyfit(xs, ys, 1)[0])

    return RateAnalysis(epsilon_ceiling=ceiling, multiplicity=multiplicity,
                        slow_directions=basis, points=tuple(points), slope=slope)
