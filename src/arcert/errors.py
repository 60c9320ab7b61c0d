"""Exception types shared across the package."""


class ArcertError(Exception):
    """Base class for package-specific failures."""


class StabilityError(ArcertError):
    """Coefficients lie outside the Schur-stable region required by an operation."""


class ConvergenceError(ArcertError):
    """An iterative solver stopped without reaching its residual tolerance."""


class InfeasibleCertificateError(ArcertError):
    """Operation requires a strictly positive definite lower sandwich matrix."""


class NumericalFailureError(ArcertError):
    """Too many Monte Carlo trials failed numerically for the campaign to stand."""


class ConfigError(ArcertError):
    """An experiment configuration failed validation."""


class EventImplicationError(ArcertError):
    """A deterministic implication between trial events failed.

    The event implications checked per trial hold by construction for exact
    arithmetic, so a violation indicates an implementation bug rather than
    statistical bad luck.
    """
