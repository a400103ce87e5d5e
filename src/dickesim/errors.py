"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary precondition violations (bad
excitation number, mismatched spaces, out-of-range Fock index).  The classes
here mark conditions that callers may want to catch programmatically, e.g.
to map them to CLI exit codes.
"""


class ConfigError(ValueError):
    """A configuration file or resolved parameter set is invalid."""


class ResourceGuardError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


class NumericsError(RuntimeError):
    """Base class for numerical-guard failures during a computation."""


class StepSizeError(NumericsError):
    """Integration step too coarse for the fastest frequency present."""


class TruncationLeakError(NumericsError):
    """Population reached the Fock-space truncation boundary."""


class ContinuityError(NumericsError):
    """Eigenvector branches could not be tracked across the time grid."""


class DegeneracyError(NumericsError):
    """Exactly degenerate eigenvalues leave the branches ambiguous."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time
