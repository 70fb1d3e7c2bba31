"""Exception types shared across the package."""


class LpregError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(LpregError, ValueError):
    """Vector/matrix dimensions do not agree with the problem instance."""


class ValidationError(LpregError, ValueError):
    """Invalid field value (lambda, p, stepsize, budget, ...)."""


class ProblemFormatError(LpregError, ValueError):
    """Malformed problem or trace file.

    ``line`` carries the 1-based line number when known, else None.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class StepsizeError(ValidationError):
    """Stepsize schedule violates the admissible open interval."""


class ProxConvergenceError(LpregError, RuntimeError):
    """The prox stationarity solve failed to reach its tolerance."""


class PolishError(LpregError, RuntimeError):
    """Newton on a point's support and signs found no strict local minimum."""
