"""Stationary second-order structure of a stable AR(n) process.

The n x n blocks of the stationary state covariance V per unit innovation
variance and of the Gramian G = sum_i A^i (A^T)^i, the peak squared gain of
the AR transfer function on the unit circle and, on first use, the spectrum
of V whitened by G: the deterministic inputs of every certificate.  V and G
are Toeplitz up to a known diagonal, so one Yule-Walker solve gives both
(:func:`arcert.linalg.solve_companion_lyapunov`).  The autocovariances, which
only the tests need, live in the test suite's ``reference`` module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .linalg import _companion, _require_square, solve_companion_lyapunov
from .process import ArProcess, _frozen


def _char_poly_sq_modulus(coeffs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|p(e^{j w})|^2 evaluated as (1 - sum c_k cos kw)^2 + (sum c_k sin kw)^2."""
    k = np.arange(1, coeffs.size + 1)
    kw = np.multiply.outer(omega, k)
    re = 1.0 - np.cos(kw) @ coeffs
    im = np.sin(kw) @ coeffs
    return re * re + im * im


def peak_transfer_gain(process: ArProcess) -> float:
    """Peak squared magnitude of the AR transfer function 1/p(e^{j w}).

    Equals 1 / min_w |p(e^{j w})|^2, taken over its exact critical points (the
    scalar case of the Boyd-Balakrishnan / Bruinsma-Steinbuch H-infinity norm
    computation).  With r the autocorrelation of (1, -c_1, ..., -c_n),
    |p(e^{j w})|^2 = r_0 + 2 sum_m r_m cos(m w) = h(cos w) for a Chebyshev
    series h, so the critical points are w = 0, w = pi and the arccosines of
    the roots of h'.  Root-finding error enters only to second order at a
    critical point.  Scaled by the innovation variance the result bounds every
    eigenvalue of the Toeplitz autocovariance matrices (finite: an ArProcess
    is stable).
    """
    c = process.coeffs
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
    """Deterministic stationary quantities of one coefficient vector.

    coeffs: read-only copy of the AR coefficients they were solved for.
    state_covariance_block, gramian_block: leading n x n blocks of the
        solutions of V = A V A^T + e1 e1^T (the stationary covariance of the
        state per unit innovation variance) and G = A G A^T + I (so G >= I;
        it measures how system memory inflates the concentration bounds).
    output_variance: E{y^2} / s2, the corner entry V[0, 0].
    peak_gain: peak squared transfer gain (see peak_transfer_gain).
    """

    coeffs: np.ndarray
    state_covariance_block: np.ndarray
    gramian_block: np.ndarray
    output_variance: float
    peak_gain: float

    def __post_init__(self):
        for name in ("coeffs", "state_covariance_block", "gramian_block"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @functools.cached_property
    def whitened_spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, U, W): W is the Cholesky factor of the Gramian block and
        U diag(mu) U^T, mu ascending, the eigendecomposition of
        W^{-1} V_blk W^{-T}.  mu is the spectrum of the pencil
        (V_blk, G_blk), and mu[0] the feasibility ceiling on epsilon.
        Computed on first use and kept, read-only, so a process is
        decomposed once whatever number of bounds is evaluated for it."""
        w_factor = np.linalg.cholesky(self.gramian_block)
        half = np.linalg.solve(w_factor, self.state_covariance_block)
        whitened = np.linalg.solve(w_factor, half.T).T
        mu, u = np.linalg.eigh(0.5 * (whitened + whitened.T))
        return _frozen(mu), _frozen(u), _frozen(w_factor)

    @functools.cached_property
    def gramian_condition(self) -> float:
        """cond(G_blk) in the 2-norm, computed on first use and kept."""
        return float(np.linalg.cond(self.gramian_block))


def stationary_stats(a: np.ndarray, sigma2: float) -> StationaryStatistics:
    """Statistics of the process with companion matrix A (see
    :func:`arcert.process.build_companion`), which must equal the companion
    matrix of its first row ``a[0, :-1]`` (else a ValueError).  Their ArProcess
    checks them and sigma2, which is stored nowhere (ROADMAP item 5 drops it
    once item 1 moves the benchmark); one solve gives V and G at unit variance."""
    a = np.asarray(a, dtype=float)
    _require_square(a, "a")
    if a.shape[0] < 2 or not np.array_equal(a, _companion(a[0, :-1]), equal_nan=True):
        raise ValueError("a must be an AR companion matrix: coefficients in the first "
                         "row, an identity shift below it and a zero last column")
    process = ArProcess(coeffs=a[0, :-1], noise_variance=sigma2)
    state_cov, gramian = solve_companion_lyapunov(process.coeffs)
    if not state_cov[0, 0] > 0.0:
        raise ValueError("stationary output variance must be positive")
    n = process.order
    return StationaryStatistics(
        coeffs=process.coeffs,
        state_covariance_block=state_cov[:n, :n],
        gramian_block=gramian[:n, :n],
        output_variance=float(state_cov[0, 0]),
        peak_gain=peak_transfer_gain(process),
    )
