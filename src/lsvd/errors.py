"""Exception types shared across the package.

Everything raised on purpose by this package derives from :class:`LsvdError`
so callers (notably the CLI) can distinguish numeric failures from plain
usage errors.
"""


class LsvdError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(LsvdError):
    """A square matrix was required."""


class ToleranceUnachievableError(LsvdError):
    """The matrix exponential could not meet the requested tolerance.

    Carries the estimated achievable relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ConvergenceFailureError(LsvdError):
    """A decomposition failed to converge or missed its accuracy contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class LengthMismatchError(LsvdError):
    """A vector had the wrong length for the requested reshape."""


class SigmaOutOfRangeError(LsvdError):
    """A singular value fell outside [0, 1] beyond the allowed slack."""


class BlockIdentityViolationError(LsvdError):
    """The assembled circuit does not reproduce U.diag(sigma).V† on the
    ancilla-0 block (internal consistency failure)."""


class DimensionMismatchError(LsvdError):
    """A state vector did not match the register dimension."""


class AllZeroDiagonalError(LsvdError):
    """No counts were observed on any population (diagonal) index."""


class WrongModelError(LsvdError):
    """A result was produced by a model the operation does not apply to."""
