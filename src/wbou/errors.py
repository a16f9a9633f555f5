"""Exception types raised across the package."""


class WbouError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidLambda(WbouError):
    """The mean-reversion rate must be positive and finite."""


class GridError(WbouError):
    """Simulation grid is inconsistent (dt and horizon do not align)."""


class NotASubordinator(WbouError):
    """Operation requires a nonnegative (nondecreasing) driver."""


class DomainError(WbouError):
    """Argument outside the mathematical domain of the operation."""


class DimensionMismatch(WbouError):
    """Array arguments have incompatible lengths."""


class NegativeLag(DomainError):
    """Lags must be nonnegative."""


class BadLag(DomainError):
    """Increment lags are indexed from 1."""


class DegenerateSeries(WbouError):
    """Series has zero variance; autocorrelation is undefined."""


class LagTooLarge(WbouError):
    """Requested lag exceeds what the series can support."""


class EmptyRange(WbouError):
    """Fit window contains no usable lags."""


class SkipTooLarge(WbouError):
    """Subsampling skip leaves too few points."""


class MissingComponents(WbouError):
    """Path object lacks the component arrays this operation needs."""


class GridMismatch(WbouError):
    """Increment array does not match the grid it is replayed on."""
