"""Exception taxonomy shared across the package.

Configuration-type errors (bad static inputs) derive from ConfigurationError;
runtime numerical failures derive from NumericalError.  The CLI maps the former
to exit code 2 and the latter to exit code 3.
"""


class ConfigurationError(ValueError):
    """Invalid static configuration: unknown tags, out-of-range parameters."""


class DomainTooSmallError(ConfigurationError):
    """Truncation domain fails the confinement margin U(+-L) - min U >= 10."""


class WeightUnderflowError(ConfigurationError):
    """Gibbs weights underflow to zero on the requested domain."""


class PreconditionError(ValueError):
    """An operation was called on a state violating its preconditions."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, eigensolve, iteration)."""


class DegenerateGapError(NumericalError):
    """The second eigenvalue of -L_o is numerically zero."""


class DegenerateTraceError(NumericalError):
    """A decay trace has too few samples above the roundoff floor to fit a rate."""


class InsufficientSignalError(NumericalError):
    """Observable bias is below the noise floor from the start."""


class DivergenceError(NumericalError):
    """An SDE trajectory produced a non-finite state."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate
