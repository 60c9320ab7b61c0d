"""Stationary second-order structure of a stable AR(n) process.

Computes the stationary state covariance, the reachability-style Gramian
sum_i A^i (A^T)^i and the peak squared gain of the AR transfer function on
the unit circle.  These are the deterministic ingredients of every
certificate.  The autocovariance sequence and the Toeplitz autocovariance
matrices, which only the tests need, live in the test suite's ``reference``
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import StabilityError
from .linalg import solve_discrete_lyapunov
from .process import check_schur_stable, stationary_state_covariance


def _char_poly_sq_modulus(coeffs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|p(e^{j w})|^2 evaluated as (1 - sum c_k cos kw)^2 + (sum c_k sin kw)^2."""
    k = np.arange(1, coeffs.size + 1)
    kw = np.multiply.outer(omega, k)
    re = 1.0 - np.cos(kw) @ coeffs
    im = np.sin(kw) @ coeffs
    return re * re + im * im


def peak_transfer_gain(coeffs) -> float:
    """Peak squared magnitude of the AR transfer function 1/p(e^{j w}).

    Equals 1 / min_w |p(e^{j w})|^2, taken over its exact critical points (the
    scalar case of the Boyd-Balakrishnan / Bruinsma-Steinbuch H-infinity norm
    computation).  With r the autocorrelation of (1, -c_1, ..., -c_n),
    |p(e^{j w})|^2 = r_0 + 2 sum_m r_m cos(m w) = h(cos w) for a Chebyshev
    series h, so the critical points are w = 0, w = pi and the arccosines of
    the roots of h'.  Root-finding error enters only to second order at a
    critical point.  Scaled by the innovation variance the result bounds every
    eigenvalue of the Toeplitz autocovariance matrices.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if not check_schur_stable(c):
        raise StabilityError("peak gain is unbounded or meaningless for unstable coefficients")
    a = np.concatenate(([1.0], -c))
    dh = chebyshev.chebder(np.correlate(a, a, mode="full")[c.size:])
    # Leading coefficients at rounding level (a near-zero c_n) would put huge
    # roots into the colleague matrix and spoil the accuracy of the others.
    dh = chebyshev.chebtrim(dh, np.finfo(float).eps * np.abs(dh).max())
    x = chebyshev.chebroots(dh)
    omega = np.concatenate(([0.0, math.pi], np.arccos(np.clip(x.real, -1.0, 1.0))))
    return 1.0 / float(np.min(_char_poly_sq_modulus(c, omega)))


@dataclass(frozen=True, eq=False)
class StationaryStatistics:
    """Deterministic stationary quantities of one process.

    state_covariance: (n+1) x (n+1) stationary covariance of the companion
        state, solving V = A V A^T + noise_variance * e1 e1^T.
    gramian: (n+1) x (n+1) solution of G = A G A^T + I (so G >= I); measures
        how system memory inflates the concentration bounds.
    output_variance: stationary variance of the scalar output, the (1,1)
        entry of state_covariance.
    peak_gain: peak squared transfer gain (see peak_transfer_gain).
    """

    state_covariance: np.ndarray
    gramian: np.ndarray
    output_variance: float
    peak_gain: float

    def __post_init__(self):
        v = np.asarray(self.state_covariance, dtype=float).copy()
        g = np.asarray(self.gramian, dtype=float).copy()
        v.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "state_covariance", v)
        object.__setattr__(self, "gramian", g)

    @property
    def order(self) -> int:
        return int(self.state_covariance.shape[0] - 1)

    @property
    def state_covariance_block(self) -> np.ndarray:
        """Top-left n x n block: stationary covariance of n consecutive outputs."""
        return self.state_covariance[: self.order, : self.order]

    @property
    def gramian_block(self) -> np.ndarray:
        return self.gramian[: self.order, : self.order]


def stationary_stats(a: np.ndarray, sigma2: float) -> StationaryStatistics:
    """Solve the two Lyapunov equations for the companion matrix A (see
    :func:`arcert.process.build_companion`) and evaluate the peak gain of the
    coefficients in its first row."""
    sigma2 = float(sigma2)
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
    state_cov = stationary_state_covariance(a, sigma2)
    gramian = solve_discrete_lyapunov(a, np.eye(a.shape[0]))
    y_var = float(state_cov[0, 0])
    if y_var <= 0.0:
        raise ValueError("stationary output variance must be positive")
    return StationaryStatistics(
        state_covariance=state_cov,
        gramian=gramian,
        output_variance=y_var,
        peak_gain=peak_transfer_gain(a[0, :-1]),
    )
