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
    regressor_energy_scale,
)
from .errors import (
    ArcertError,
    ConfigError,
    ConvergenceError,
    EventImplicationError,
    InfeasibleCertificateError,
    NumericalFailureError,
    StabilityError,
)
from .estimation import RegressorSet, build_regressors, ols_fit
from .linalg import psd_order_holds, solve_discrete_lyapunov, spectral_radius, symmetric_sqrt
from .montecarlo import (
    CampaignConfig,
    CoverageReport,
    EventCoverage,
    TrialOutcome,
    check_boundary_event,
    check_cross_term_event,
    check_noise_energy_event,
    check_sandwich_event,
    check_self_normalized_event,
    evaluate_trial,
    event_noise_window,
    event_threshold,
    residual_noise_window,
    resolve_direction,
    run_campaign,
)
from .process import (
    ArProcess,
    CompanionStateSpace,
    Trajectory,
    ar_recursion,
    build_companion,
    characteristic_roots,
    check_schur_stable,
    simulate_batch,
    simulate_chunks,
    simulate_stationary,
    substream,
)
from .stationary import (
    StationaryStatistics,
    autocovariance_sequence,
    peak_transfer_gain,
    stationary_stats,
    toeplitz_covariance,
)
from .tailbounds import (
    ExceedanceResult,
    chi2_lower_threshold,
    chi2_tail_frequencies,
    chi2_upper_threshold,
    spectral_radius_subadditive_check,
    weierstrass_lower_bound,
    weighted_chi2_tail_frequency,
    weighted_chi2_upper_threshold,
)
