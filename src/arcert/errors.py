"""Exception types shared across the package.

A broken event implication is not an exception: campaigns count violations in
their report, and the test suite's ``reference`` module asserts them trial by
trial.
"""


class ArcertError(Exception):
    """Base class for package-specific failures."""


class StabilityError(ArcertError):
    """Coefficients lie outside the Schur-stable region required by an operation."""


class ConvergenceError(ArcertError):
    """A Lyapunov solution, solved directly, failed its residual check."""


class InfeasibleCertificateError(ArcertError):
    """Operation requires a strictly positive definite lower sandwich matrix."""


class NumericalFailureError(ArcertError):
    """Too many Monte Carlo trials failed numerically for the campaign to stand."""


class ConfigError(ArcertError):
    """An experiment configuration failed validation."""
