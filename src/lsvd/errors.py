"""Exception types shared across the package.

Numeric failures raised by this package derive from :class:`LsvdError`, so
callers (notably the CLI) can tell them from usage errors such as a wrong
shape, length or model, which are plain ``ValueError``s.
"""


class LsvdError(Exception):
    """Base class for all errors raised by this package."""


class ToleranceUnachievableError(LsvdError):
    """The matrix exponential would need more squarings than its hard cap."""


class ConvergenceFailureError(LsvdError):
    """A decomposition failed to converge or missed its accuracy contract."""


class BlockIdentityViolationError(LsvdError):
    """The assembled circuit does not reproduce U.diag(sigma).V† on the
    ancilla-0 block (internal consistency failure)."""


class AllZeroDiagonalError(LsvdError):
    """No counts were observed on any population (diagonal) index."""
