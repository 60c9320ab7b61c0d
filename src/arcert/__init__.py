"""Finite-sample confidence certificates for least-squares AR(n) identification.

The package evaluates closed-form, non-asymptotic guarantees for ordinary
least squares on stationary Gaussian autoregressive processes -- a PSD
sandwich on the regression normal matrix, deviation radii for arbitrary
linear parameter combinations, and the sqrt(N) decay rate of the failure
bounds -- and validates every probabilistic claim by Monte Carlo simulation
of exactly stationary trajectories.
"""

__version__ = "0.1.0"

from .certificates import (
    BoundInputs,
    CovarianceCertificate,
    DeviationCertificate,
    RateAnalysis,
    RatePoint,
    covariance_certificate,
    deviation_radius,
    max_feasible_epsilon,
    rate_analysis,
)
from .errors import (
    ArcertError,
    ConfigError,
    ConvergenceError,
    InfeasibleCertificateError,
    NumericalFailureError,
    StabilityError,
)
from .montecarlo import (
    CampaignConfig,
    CoverageReport,
    EventCoverage,
    run_campaign,
)
from .process import (
    ArProcess,
    Trajectory,
    ar_recursion,
    build_companion,
    characteristic_roots,
    simulate_batch,
    simulate_chunks,
    simulate_stationary,
    substream,
)
from .stationary import StationaryStatistics, peak_transfer_gain, stationary_stats
