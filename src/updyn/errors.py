"""Exception types shared across the package."""


class UpdynError(Exception):
    """Base class for package-specific errors."""


class DomainError(UpdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ArgumentError(DomainError):
    """A routine refuses an argument: ``args`` are the parameter's name, or a tuple
    of names with the most to blame first, and the reason."""

    @property
    def names(self) -> tuple:
        return (self.args[0],) if isinstance(self.args[0], str) else tuple(self.args[0])

    def __str__(self) -> str:
        return f"{', '.join(self.names)}: {self.args[1]}"


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


class ResolutionError(ArgumentError):
    """The sampling grid is too coarse for the requested check."""


class NonFiniteStateError(UpdynError, RuntimeError):
    """A simulated state stopped being finite."""


class ConfigError(UpdynError, ValueError):
    """An experiment configuration failed validation."""
