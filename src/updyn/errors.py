"""Exception types shared across the package."""


class UpdynError(Exception):
    """Base class for package-specific errors."""


class DomainError(UpdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GridMismatchError(DomainError):
    """Two series do not share one axis."""


class WindowExhaustedError(UpdynError, IndexError):
    """A requested index range leaves the recorded window."""


class SingularMatrixError(UpdynError, ValueError):
    """A matrix required to be invertible is numerically rank deficient."""


class StabilityError(UpdynError, ValueError):
    """The linear part is not exponentially stable (spectral abscissa >= 0)."""


class AssumptionError(UpdynError, ValueError):
    """A contraction margin is non-positive, so derived constants are undefined."""


class ResolutionError(UpdynError, ValueError):
    """The sampling grid is too coarse for the requested check."""


class NonFiniteStateError(UpdynError, RuntimeError):
    """A simulated state stopped being finite."""


class ConfigError(UpdynError, ValueError):
    """An experiment configuration failed validation."""
