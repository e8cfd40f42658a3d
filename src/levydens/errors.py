"""Exception hierarchy shared across the toolkit."""


class LevyDensError(Exception):
    """Base class for all toolkit errors."""


class ModelFormatError(LevyDensError):
    """Model file or builtin specification is malformed.

    Carries enough context (field path, line) to point at the offending entry.
    """

    def __init__(self, message, field=None, line=None):
        loc = []
        if field is not None:
            loc.append(f"field '{field}'")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.field = field
        self.line = line


class DimensionMismatchError(LevyDensError):
    """Frequency / state vector has the wrong length for the model."""


class QuadratureError(LevyDensError):
    """A quadrature did not reach the requested tolerance.

    ``achieved`` reports the best error estimate obtained; ``field`` names
    the input that would have to change for the tolerance to be met.
    """

    def __init__(self, message, achieved=None, field=None):
        if achieved is not None:
            message = f"{message} (achieved tolerance {achieved:.3e})"
        if field is not None:
            message = f"{message} (field '{field}')"
        super().__init__(message)
        self.achieved = achieved
        self.field = field


class IntegrabilityRefusal(LevyDensError):
    """e^{-t Re psi} is not integrable (or not demonstrably so) at this t.

    This is a meaningful verdict, not a crash: the CLI maps it to exit code 2.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RangeError(LevyDensError):
    """Requested abscissa lies outside a table's computed range."""


class NotMonotoneError(LevyDensError):
    """A generalized inverse was requested for a non-monotone profile."""


class UnsupportedModelError(LevyDensError):
    """Operation not defined for this measure variant / dimension."""
