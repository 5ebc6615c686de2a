"""Exception types shared across the package."""


class SizeLimitError(RuntimeError):
    """A construction would exceed a configured size cap (points, segments, cells)."""


class GeometryError(ValueError):
    """A geometric precondition failed (self-intersection, non-simple region, ...)."""


class ResolutionError(ValueError):
    """A requested scale cannot be resolved at the current discretization."""


class SampleRangeError(ValueError):
    """A sampled function was asked for values outside its sampled range."""


class DivergenceDomainError(ValueError):
    """A transform was requested at a point where its defining integral diverges."""


class PoleProximityError(ArithmeticError):
    """Evaluation too close to a pole."""


class MultiplePoleError(ArithmeticError):
    """A simple-pole formula was applied where the pole is not simple."""


class ContourError(RuntimeError):
    """A contour-integration step failed to produce a consistent result."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FitError(ValueError):
    """A regression/fit step was degenerate."""
