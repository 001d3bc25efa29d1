"""The package's one exception type for numeric failures.

Every numeric failure (an ``expm`` past its squaring cap, an SVD that does
not converge or misses its accuracy contract, a circuit whose probe states
miss the propagator, sampled counts with no population entry, a generator
that breaks Hermiticity, a state that loses its trace) raises
:class:`LsvdError`, and its message names the check that failed.  Usage
errors such as a wrong shape, length or model are plain ``ValueError``s,
so callers (notably the CLI) can tell the two apart.
"""


class LsvdError(Exception):
    """A numeric failure of this package; the message names the check."""
