"""From propagator to circuit-ready pieces.

A Liouville-space propagator is generally non-unitary, so it cannot be a
gate by itself.  ``circuit.build_svd_circuit`` prepares it in three steps,
two of which live here:

1. ``padded_dimension`` sets the register size: the r² x r² matrix acts
   on the system register as a direct sum with an identity block, in the
   nearest power-of-two dimension n = 2^k (at least 2, so the system
   register always has a qubit).  Identity (not zero) padding keeps the
   padded directions invariant and decoupled and pins their singular
   values at exactly one, so the scale factor below is always set by the
   physics, never by the embedding.  Since m ⊕ I = (U ⊕ I)(Σ ⊕ I)(V† ⊕ I)
   whenever m = U Σ V†, the padding is applied to the factors of the
   unpadded matrix and the n x n matrix itself is never formed.
2. The SVD of the unpadded matrix, with the singular values divided by
   s = max(1, sigma_max) so all of them land in [0, 1].  Propagators of
   non-unital dynamics routinely have sigma_max > 1; the division is
   exactly invertible (recorded in ``SVDCircuit.scale``) and drops out of
   any normalized measurement distribution.  This step runs inside
   ``build_svd_circuit``.
3. ``dilate`` lifts the scaled singular values into the block-diagonal
   unitary diag(Sigma_+, Sigma_-) with Sigma_± = sigma ± i sqrt(1 - sigma²).
   Each entry lies on the unit circle and the two branches average back to
   diag(sigma) exactly — the algebraic fact the circuit's postselection
   relies on.  This form of the dilated entries is the continuous limit of
   the ratio form sigma ± i sigma sqrt((1 - sigma²)/sigma²) and stays
   defined at sigma = 0, where Sigma_± = ±i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SigmaOutOfRangeError

#: Allowed numerical dust outside [0, 1] before a singular value is rejected.
SIGMA_SLACK = 1e-12


@dataclass(frozen=True)
class DilatedUnitary:
    """Block-diagonal unitary diag(Sigma_+, Sigma_-), stored as the two
    diagonal branches."""

    sigma_plus: np.ndarray
    sigma_minus: np.ndarray

    @property
    def n(self) -> int:
        return self.sigma_plus.size

    @property
    def diagonal(self) -> np.ndarray:
        """The 2n diagonal entries, success branch first."""
        return np.concatenate([self.sigma_plus, self.sigma_minus])


def padded_dimension(dim: int) -> int:
    """n = max(2, smallest power of two >= dim): the register size for a
    dim x dim propagator."""
    return max(2, 1 << (dim - 1).bit_length())


def dilate(sigma) -> DilatedUnitary:
    """Dilate the scaled singular values ``sigma`` into a unitary.

    Values within ``SIGMA_SLACK`` of [0, 1] are clamped; anything further
    out raises ``SigmaOutOfRangeError``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < -SIGMA_SLACK) or np.any(sigma > 1.0 + SIGMA_SLACK):
        worst = sigma[np.argmax(np.maximum(sigma - 1.0, -sigma))]
        raise SigmaOutOfRangeError(
            f"singular value {worst!r} lies outside [0, 1] beyond slack {SIGMA_SLACK}"
        )
    clamped = np.clip(sigma, 0.0, 1.0)
    complement = np.sqrt(1.0 - clamped**2)
    return DilatedUnitary(
        sigma_plus=clamped + 1j * complement,
        sigma_minus=clamped - 1j * complement,
    )
