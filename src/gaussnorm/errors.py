"""Exception hierarchy shared by all gaussnorm modules."""


class GaussNormError(Exception):
    """Base class for all gaussnorm errors."""


# --- matrix-analysis kernel errors ---------------------------------------

class NonDiagonalizableError(GaussNormError):
    """Eigenvector matrix too ill-conditioned to trust the eigendecomposition."""


class SpectralPoleError(GaussNormError):
    """A scalar function was evaluated at (or too close to) one of its poles."""


class ImagResidualError(GaussNormError):
    """Result of a matrix function has a non-negligible imaginary part."""


class SpectrumNotImaginaryError(GaussNormError):
    """Spectrum expected to be purely imaginary (+-i d) is not."""


class NotHermitianError(GaussNormError):
    """Matrix handed to a Hermitian routine is not Hermitian within tolerance."""


class DomainError(GaussNormError, ValueError):
    """Argument outside its admissible domain: d < 1/2, p < 1, NaN or inf entries.

    Also a ValueError, so callers that catch ValueError for a bad argument keep working.
    """


# --- state / channel validation errors -----------------------------------

class DimensionMismatchError(GaussNormError):
    """Array shapes inconsistent with the mode count of the symplectic space."""


class NotSymmetricError(GaussNormError):
    """Matrix expected to be real symmetric is not, within tolerance."""


class UncertaintyViolatedError(GaussNormError):
    """Covariance fails alpha + (i/2) Delta >= 0."""

    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min


class NotCPError(GaussNormError):
    """Channel triple fails the complete-positivity matrix inequality."""

    def __init__(self, message, lambda_min=None, sign=None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.sign = sign


class SingularKError(GaussNormError):
    """The norm theorem requires invertible K; refuse on singular K."""


class SingularEpsilonError(GaussNormError):
    """Gibbs Hamiltonian matrix must be positive definite."""


class NumericalOverflowError(GaussNormError):
    """A value left the double range, or symplectic eigenvalues exceeded the overflow cap."""


class QNotLessThanPError(GaussNormError):
    """Divergence estimator requires 1 <= q < p."""


# --- Fock oracle errors ----------------------------------------------------

class TruncationInsufficientError(GaussNormError):
    """Doubling the Fock cutoff moved the result by more than the tail bound."""

    def __init__(self, message, suggested_n_max=None):
        super().__init__(message)
        self.suggested_n_max = suggested_n_max


class TailTooLargeError(GaussNormError):
    """Thermal occupation above the cutoff exceeds the tail bound."""


class NotDensityOperatorError(GaussNormError):
    """Truncated matrix fails the density-operator invariants."""


# --- CLI / config errors -----------------------------------------------------

class ConfigError(GaussNormError):
    """Config file unreadable, malformed, or dimensionally inconsistent."""
