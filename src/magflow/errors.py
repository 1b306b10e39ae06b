"""Exception types shared across the package."""


class MagflowError(Exception):
    """Base class for all package errors."""


class NearZeroVector(MagflowError):
    """Vector too close to the origin to project onto the sphere."""


class StepExplosion(MagflowError):
    """Trajectory state grew beyond the allowed bound during integration."""


class ValleyCollapse(MagflowError):
    """Descent entered the short-loop valley: the seed collapses to a point."""


class MaxIterations(MagflowError):
    """Iteration budget exhausted, or line search stalled, before reaching
    the requested tolerance."""


class NonFiniteAction(MagflowError):
    """The lifted action or its gradient norm is not finite: the system's
    values overflow on the loop, and no descent from it can converge."""


class EndpointNotMinimal(MagflowError):
    """A minimax endpoint is not a converged local minimizer."""


class NotSymmetric(MagflowError):
    """System lacks the rotational symmetry required by the latitude oracle."""


class ParseError(MagflowError):
    """Config file could not be parsed; reports the offending line."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class ValidationError(MagflowError):
    """Config value failed validation; reports the offending key."""

    def __init__(self, key, message=""):
        super().__init__(f"{key}: {message}" if message else key)
        self.key = key
