"""Auxiliary tail inequalities with Monte Carlo falsification helpers.

The thresholds here are exact closed forms; the sampling helpers exist to
*attack* them empirically (a bound is accepted only if observed exceedance
frequencies never beat it by more than sampling noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_radius

#: Default falsification sample count; resolves exp(-x) down to x ~ 10 with
#: usable binomial standard errors.
DEFAULT_FALSIFICATION_SAMPLES = 1_000_000


def chi2_upper_threshold(dof: int, x: float) -> float:
    """Upper-tail threshold for a chi-square variable U with ``dof`` degrees of
    freedom: P(U >= dof + 2 sqrt(dof x) + 2 x) <= exp(-x)."""
    dof = int(dof)
    x = float(x)
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return dof + 2.0 * math.sqrt(dof * x) + 2.0 * x


def chi2_lower_threshold(dof: int, x: float) -> float:
    """Lower-tail threshold: P(U <= dof - 2 sqrt(dof x)) <= exp(-x)."""
    dof = int(dof)
    x = float(x)
    if dof < 1:
        raise ValueError("dof must be a positive integer")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return dof - 2.0 * math.sqrt(dof * x)


def weighted_chi2_upper_threshold(weights, x: float) -> float:
    """Deviation threshold for Z = sum a_i (V_i^2 - 1) with nonnegative weights:
    P(Z >= 2 ||a||_2 sqrt(x) + 2 ||a||_inf x) <= exp(-x).

    With all-ones weights this reduces exactly to the unweighted chi-square
    threshold minus its mean.
    """
    a = np.atleast_1d(np.asarray(weights, dtype=float))
    x = float(x)
    if a.size == 0 or np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("weights must be finite and nonnegative")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return 2.0 * float(np.linalg.norm(a)) * math.sqrt(x) + 2.0 * float(a.max()) * x


def weierstrass_lower_bound(lambdas) -> float:
    """Lower bound 1 - sum(l_k) for the product prod(1 - l_k), l_k in [0, 1]."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if np.any(lam < 0.0) or np.any(lam > 1.0):
        raise ValueError("all entries must lie in [0, 1]")
    return float(1.0 - lam.sum())


def spectral_radius_subadditive_check(a, b) -> bool:
    """True iff rho(a + b) <= rho(a) + rho(b) + 1e-10 for symmetric a, b.

    Subadditivity holds for all Hermitian pairs; this checker backs the step
    that combines the three per-event spectral-radius bounds into one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("a and b must have identical shapes")
    for name, m in (("a", a), ("b", b)):
        if not np.allclose(m, m.T, atol=1e-10 * max(1.0, float(np.abs(m).max(initial=0.0)))):
            raise ValueError(f"{name} must be symmetric")
    return spectral_radius(a + b) <= spectral_radius(a) + spectral_radius(b) + 1e-10


@dataclass(frozen=True)
class ExceedanceResult:
    """Observed tail frequency against its theoretical ceiling."""

    frequency: float
    stderr: float
    bound: float
    samples: int

    @property
    def respected(self) -> bool:
        """True unless the observation beats the bound by more than 3 sigma."""
        return self.frequency - 3.0 * self.stderr <= self.bound


def _result(hits: int, samples: int, x: float) -> ExceedanceResult:
    freq = hits / samples
    stderr = math.sqrt(freq * (1.0 - freq) / samples)
    return ExceedanceResult(frequency=freq, stderr=stderr,
                            bound=math.exp(-x), samples=samples)


def chi2_tail_frequencies(dof: int, x: float, samples: int = DEFAULT_FALSIFICATION_SAMPLES,
                          seed=0) -> tuple[ExceedanceResult, ExceedanceResult]:
    """Empirical (upper, lower) tail frequencies of chi-square draws against the
    closed-form thresholds."""
    rng = np.random.default_rng(seed)
    draws = rng.chisquare(dof, size=int(samples))
    upper_hits = int(np.count_nonzero(draws >= chi2_upper_threshold(dof, x)))
    lower_hits = int(np.count_nonzero(draws <= chi2_lower_threshold(dof, x)))
    return _result(upper_hits, draws.size, x), _result(lower_hits, draws.size, x)


def weighted_chi2_tail_frequency(weights, x: float,
                                 samples: int = DEFAULT_FALSIFICATION_SAMPLES,
                                 seed=0) -> ExceedanceResult:
    """Empirical upper-tail frequency of Z = sum a_i (V_i^2 - 1).

    Draws are processed in chunks of 100 000 rows to keep the
    (samples x len(weights)) normal matrix out of memory.
    """
    a = np.atleast_1d(np.asarray(weights, dtype=float))
    threshold = weighted_chi2_upper_threshold(a, x)
    rng = np.random.default_rng(seed)
    total = int(samples)
    hits = 0
    done = 0
    while done < total:
        size = min(100_000, total - done)
        z = rng.standard_normal((size, a.size))
        stat = (z * z) @ a - a.sum()
        hits += int(np.count_nonzero(stat >= threshold))
        done += size
    return _result(hits, total, x)
