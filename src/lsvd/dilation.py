"""From propagator to circuit-ready pieces.

A Liouville-space propagator is generally non-unitary, so it cannot be a
gate by itself.  ``circuit.build_svd_circuit`` prepares it in two steps,
the first of which lives here:

1. ``padded_dimension`` sets the register size: the r² x r² matrix acts
   on the system register as a direct sum with an identity block, in the
   nearest power-of-two dimension n = 2^k (at least 2, so the system
   register always has a qubit).  Identity (not zero) padding keeps the
   padded directions invariant and decoupled and pins their singular
   values at exactly one, so the scale factor below is always set by the
   physics, never by the embedding.  Since m ⊕ I = (U ⊕ I)(Σ ⊕ I)(V† ⊕ I)
   whenever m = U Σ V†, the padding belongs to the factors of the
   unpadded matrix.  The same holds block by block: for a block-diagonal
   m = m_1 ⊕ m_2 ⊕ …, the direct sum of the blocks' SVDs is an SVD of m,
   with the padding identity as the last block.  The circuit keeps only
   the blocks' factors and lets the padding rows pass through, so neither
   the n x n matrix nor its n x n factors are formed.
2. The SVD of the unpadded matrix, run by run: each run of consecutive
   equal-size blocks is decomposed in one stacked call, with the singular
   values (each on its block's row, in no global order) divided by
   s = max(1, sigma_max) so all of them land in [0, 1].  Propagators of
   non-unital dynamics routinely have sigma_max > 1; the division is
   exactly invertible (recorded in ``SVDCircuit.scale``) and drops out of
   any normalized measurement distribution.  This step runs inside
   ``build_svd_circuit``, for one propagator or a stack of them.

The circuit dilates the scaled singular values where it applies them
(``circuit._dilate``).
"""

from __future__ import annotations


def padded_dimension(dim: int) -> int:
    """n = max(2, smallest power of two >= dim): the register size for a
    dim x dim propagator."""
    return max(2, 1 << (dim - 1).bit_length())
