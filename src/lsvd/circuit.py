"""Register program applying a scaled propagator through its SVD factors.

The register holds d = k + 1 qubits: k system qubits spanning the padded
Liouville space (n = 2^k) plus one ancilla.  The ancilla is the most
significant qubit, so basis index = ancilla * 2^k + system index and the
ancilla-0 amplitudes are the first half of the statevector.

The program is the fixed five-op sequence

    V† on system, H on ancilla, diag(Sigma_+, Sigma_-) on the register,
    H on ancilla, U on system.

Starting from ancilla |0>, the Hadamards route the state through both
branches of the dilated diagonal and recombine them, leaving

    ancilla-0 block: U (Sigma_+ + Sigma_-)/2 V† = U diag(sigma) V†
    ancilla-1 block: U (Sigma_+ - Sigma_-)/2 V† = i U diag(sqrt(1-sigma²)) V†

so measuring the ancilla in |0> applies the scaled propagator to the
system register; the |1> outcome is the discarded branch.
:func:`apply_circuit` applies the five ops as exact products on the two
ancilla blocks of the statevector.  :func:`run_exact` starts from ancilla
|0> and keeps only the ancilla-0 block, so it runs that half alone: V†
gives y, the Hadamards and the dilated diagonal leave ((y h) Sigma_+ +
(y h) Sigma_-) h with h = 1/sqrt(2), the elementwise ops of the full
program, and U follows.  Elementary gate synthesis is out of scope and
resource needs are reported by the closed-form counts in
:func:`estimate_resources` instead.

The propagator is block diagonal (one block for a general matrix), and so
are U and V†: the direct sums of the blocks' SVD factors, with an identity
block for the padding rows up to n = 2^k.  The circuit keeps the block
factors and applies them run by run, one product per run of consecutive
equal-size blocks, with the padding rows passing straight through; the
dense n x n U and V† are never formed on the run path.  Every array of a
circuit may carry leading axes: a stack of propagators, one per output
time, is decomposed, checked and run in one call per step, and a single
2-D propagator is the stack with no leading axes.

:func:`build_svd_circuit` does the whole per-point job: it stacks each
run of consecutive equal-size diagonal blocks of the square propagator
once, all runs in one field, and decomposes each run in one
``numerics.svd`` call (which checks reconstruction and the unitarity of
both factors of every block).  It keeps each singular value on the row of
its block factors, with a one for each padding row, divides them by
max(1, sigma_max) and checks once more, on the assembled circuit, what no
SVD can vouch for: that :func:`run_exact` sends two probe states, drawn
once per n, where the scaled input propagator does, a reference built
from the input blocks alone and not from the factors it checks.
:func:`run_exact` alone writes the register layout: it zero-pads a system
state of at most n entries, ancilla in |0>, and returns the n ancilla-0
amplitudes; :func:`apply_circuit`, on all 2n amplitudes, is its
reference and is not on the run path.
The circuit stores sigma; each use derives Sigma_+ from it through
``_dilate`` and Sigma_- as the conjugate.  A real propagator
gives real orthogonal factors, which are applied to the real and
imaginary parts of the register in one real product.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .dilation import padded_dimension
from .errors import LsvdError
from .numerics import as_matrix, svd

_SQRT_HALF = 1.0 / np.sqrt(2.0)

_BLOCK_TOL = 1e-10
_PROBE_SEED = 0x5BD5EED
_NUM_PROBES = 2


def _uniform(rng: random.Random, shape) -> np.ndarray:
    """The next ``prod(shape)`` values of ``rng.random()`` mapped to [-1, 1):
    fixed for an integer seed, and exact runs need no ``numpy.random``."""
    return np.fromiter(iter(rng.random, None), float, math.prod(shape)).reshape(shape) * 2 - 1


@dataclass(frozen=True)
class SVDCircuit:
    """The five-op program for a propagator ``m_1 ⊕ m_2 ⊕ …``, or for a
    stack of them: every array carries the stack's leading axes ``...``.

    ``u_blocks`` and ``vdag_blocks`` hold the blocks' factors, each run
    stacked: one array ``(..., count, s, s)`` per run of consecutive blocks
    ``m_i`` of one size ``s``, in order, as ``numerics.svd`` returns them
    for the stacked run, so that the run is applied in one product.  They
    are real unless a block is complex.  ``sigma``, shape ``(..., n)``,
    lies in [0, 1] and is in block-row order: each block's own singular
    values (descending) divided by ``scale``, blocks in order, then one
    entry ``1/scale`` per padding row, so ``sigma[..., i]`` belongs to row
    ``i`` of the block factors.  ``scale`` has shape
    ``...``.  ``u @ diag(sigma * scale) @ vdag`` is the propagator padded
    with an identity block to n = 2^k, where ``u`` and ``vdag`` are the
    direct sums of the block factors, padded with ``I``.

    Both invariants (sigma in [0, 1], unitary factors) are the ones
    :func:`build_svd_circuit` establishes; a hand-built circuit is checked
    for neither.
    """

    u_blocks: tuple[np.ndarray, ...]
    sigma: np.ndarray
    vdag_blocks: tuple[np.ndarray, ...]
    scale: np.ndarray | float

    @property
    def n(self) -> int:
        """System register dimension 2^k."""
        return self.sigma.shape[-1]


def _runs(blocks) -> tuple[np.ndarray, ...]:
    """Stack each run of consecutive equal-size blocks: (..., count, s, s),
    all in one field (complex if any block is), for ``svd`` to validate."""
    parts = [np.asarray(block) for block in blocks]
    for part in parts:
        if part.ndim < 2:
            as_matrix(part)  # raises: a block must be 2-D
    dtype = np.result_type(np.float64, *parts)
    return tuple(
        np.stack(list(run), axis=-3, dtype=dtype)
        for _, run in itertools.groupby(parts, key=lambda part: part.shape[-2:])
    )


def _on_system(runs: tuple[np.ndarray, ...], blocks: np.ndarray) -> np.ndarray:
    """``(direct sum of the blocks of runs ⊕ I) @ blocks`` for complex
    ``blocks`` of shape (..., n, m) whose last axis is contiguous, one
    product per run of equal-size blocks.

    The padding rows after the last block are copied unchanged.  Real runs
    multiply the real and imaginary parts together, as one real product on
    the float64 view of ``blocks``, instead of being upcast to complex.
    """
    real = not np.iscomplexobj(runs[0])
    rows = blocks.view(np.float64) if real else blocks
    width = rows.shape[-1]
    batch = np.broadcast_shapes(runs[0].shape[:-3], rows.shape[:-2])
    out = np.empty(batch + rows.shape[-2:], dtype=rows.dtype)
    offset = 0
    for run in runs:
        count, size = run.shape[-3], run.shape[-1]
        end = offset + count * size
        part = rows[..., offset:end, :].reshape(rows.shape[:-2] + (count, size, width))
        out[..., offset:end, :] = (run @ part).reshape(batch + (count * size, width))
        offset = end
    out[..., offset:, :] = rows[..., offset:, :]
    return out.view(np.complex128) if real else out


def _dilate(sigma: np.ndarray) -> np.ndarray:
    """Sigma_+ = sigma + i sqrt(1 - sigma²) for scaled singular values in
    [0, 1]; Sigma_- is its conjugate.  Both lie on the unit circle, average
    back to sigma exactly, and are ±i at sigma = 0."""
    return sigma + 1j * np.sqrt(1 - sigma**2)


def apply_circuit(circuit: SVDCircuit, state) -> np.ndarray:
    """Apply the five ops in order to 2^d statevectors, shape (..., 2^d).

    The state's leading axes broadcast against the circuit's.  System ops
    act on both ancilla blocks, the ancilla Hadamard mixes the blocks, and
    the dilated diagonal, ``_dilate(sigma)`` and its conjugate, scales them
    elementwise; this is the blockwise form of the full 2^d x 2^d products.
    """
    amps = np.asarray(state, dtype=np.complex128)
    n = circuit.n
    if amps.shape[-1] != 2 * n:
        raise ValueError(f"state has length {amps.shape[-1]}, expected {2 * n}")
    sigma_plus = _dilate(circuit.sigma)
    halves = np.stack([amps[..., :n], amps[..., n:]], axis=-1)
    blocks = _on_system(circuit.vdag_blocks, halves)
    _ancilla_hadamard(blocks)
    blocks[..., 0] *= sigma_plus
    blocks[..., 1] *= sigma_plus.conj()
    _ancilla_hadamard(blocks)
    out = _on_system(circuit.u_blocks, blocks)
    return np.concatenate([out[..., 0], out[..., 1]], axis=-1)


def _ancilla_hadamard(blocks: np.ndarray) -> None:
    """H on the ancilla, in place on the ancilla blocks (..., n, 2)."""
    b0, b1 = blocks[..., 0], blocks[..., 1]
    total = b0 + b1
    np.subtract(b0, b1, out=b1)
    b0[...] = total
    blocks *= _SQRT_HALF


@functools.cache
def _probes(n: int) -> np.ndarray:
    """The ``_NUM_PROBES`` unit probe states of an n-row register, read-only:
    drawn once per n from the stdlib ``random`` seeded with ``_PROBE_SEED``,
    so the same in every run."""
    draws = _uniform(random.Random(_PROBE_SEED), (_NUM_PROBES, 2, n))
    probes = draws[:, 0] + 1j * draws[:, 1]
    probes /= np.linalg.norm(probes, axis=-1, keepdims=True)
    probes.flags.writeable = False
    return probes


def _check_block_identity(circuit: SVDCircuit, runs: tuple[np.ndarray, ...]) -> None:
    """Verify the ancilla-0 block reproduces the scaled propagator at every
    point.

    ``runs`` are the stacked input blocks the circuit was built from, so
    the reference ``(propagator ⊕ I) / scale`` shares no factor with what
    it checks: the ``_probes``, sent together through the circuits of
    every point in one ``run_exact`` call, exercise the SVD factors, their
    scaling and the path every run takes, dilation included.  Cost stays
    O(n²) per point.  A NaN deviation fails.
    """
    n = circuit.n
    # probes on a leading axis of their own, broadcast against the points
    probes = _probes(n).reshape((_NUM_PROBES,) + (1,) * (circuit.sigma.ndim - 1) + (n,))
    got = run_exact(circuit, probes)[0]
    want = _on_system(runs, probes[..., None])[..., 0] / np.expand_dims(circuit.scale, -1)
    deviation = float(np.max(np.linalg.norm(got - want, axis=-1)))
    if not deviation <= _BLOCK_TOL:
        raise LsvdError(
            f"ancilla-0 block deviates from the scaled propagator by {deviation:.3e}"
        )


def build_svd_circuit(*blocks) -> SVDCircuit:
    """Assemble the program for the propagator ``blocks[0] ⊕ blocks[1] ⊕ …``.

    A single square propagator is the one-block call.  Each block may be a
    stack ``(..., s_i, s_i)``, all with the same leading axes, which the
    circuit then carries; a 2-D block is the stack with none.  Each run of
    consecutive equal-size blocks is stacked, each run in one field
    (complex if any block is), with one ``numerics.svd`` call per run
    (reconstruction, against each matrix's own norm, and unitarity of
    both factors checked to 1e-12); the direct sum of the block SVDs is an
    SVD of the direct sum, with the padding identity as the last block, up
    to n = 2^k.  The singular values keep that block-row order, with a one for each padding
    row, and are divided by ``scale = max(1, sigma_max)``.  ``svd`` returns
    sigma >= 0 and every quotient x / scale has 0 <= x <= scale, so each
    scaled value lies in [0, 1] exactly and its dilation needs no guard.
    The block identity (ancilla-0 block equals the scaled input propagator
    padded with I, on two probe states) is verified to 1e-10 at every
    point of the assembled circuit before it is returned.
    """
    if not blocks:
        raise ValueError("build_svd_circuit needs at least one block")
    runs = _runs(blocks)
    u_runs, sigmas, vdag_runs = zip(*(svd(run) for run in runs))
    raw = np.concatenate([s.reshape(s.shape[:-2] + (-1,)) for s in sigmas], axis=-1)
    batch, dim = raw.shape[:-1], raw.shape[-1]
    n = padded_dimension(dim)
    scale = np.maximum(1.0, raw.max(axis=-1))
    circuit = SVDCircuit(
        u_blocks=u_runs,
        sigma=np.concatenate([raw, np.ones(batch + (n - dim,))], axis=-1) / scale[..., None],
        vdag_blocks=vdag_runs,
        scale=scale,
    )
    _check_block_identity(circuit, runs)
    return circuit


def run_exact(circuit: SVDCircuit, system_state) -> tuple[np.ndarray, np.ndarray | float]:
    """Run the program on a system state, ancilla in |0>, and postselect.

    ``system_state``, shape (..., m) with m <= n, broadcasting against the
    circuit's leading axes, is zero-padded to n.  Returns ``(conditioned,
    success_prob)``: the n unnormalized ancilla-0 amplitudes ``M_scaled @
    system_state`` (exact readout rescales them by the dilation scale,
    sampled readout draws shots from them) and their squared norm, per
    point.  A state longer than n, not finite, or not normalized to 1e-10
    raises ``ValueError``.

    Only the ancilla-0 half is run (see the module docstring): the same
    elementwise ops as :func:`apply_circuit`'s, but V† and U act on one
    column instead of two, so BLAS may round their products differently,
    by a few ulps.
    """
    amps = np.asarray(system_state, dtype=np.complex128)
    n = circuit.n
    if amps.shape[-1] > n:
        raise ValueError(f"system state has length {amps.shape[-1]}, more than the register's {n}")
    if not np.isfinite(amps).all():  # before any reduction, which would warn on inf
        raise ValueError("input state must be finite")
    norm = np.linalg.norm(amps, axis=-1)
    defect = np.abs(norm - 1.0)
    if (defect > 1e-10).any():
        worst = float(np.ravel(norm)[np.argmax(defect)])
        raise ValueError(f"input state must be normalized, got norm {worst!r}")
    # the ancilla-1 input is zero: y = V† x, ((y h) Sigma_+ + (y h) Sigma_-) h, U
    padded = np.zeros(amps.shape[:-1] + (n, 1), dtype=np.complex128)
    padded[..., : amps.shape[-1], 0] = amps
    y = _on_system(circuit.vdag_blocks, padded)
    y *= _SQRT_HALF
    sigma_plus = _dilate(circuit.sigma)[..., None]
    mixed = y * sigma_plus
    y *= sigma_plus.conj()
    mixed += y
    mixed *= _SQRT_HALF
    conditioned = _on_system(circuit.u_blocks, mixed)[..., 0]
    success = np.square(conditioned.view(np.float64)).sum(axis=-1)
    return conditioned, success


def estimate_resources(d: int) -> dict[str, int]:
    """Closed-form gate counts for a d-qubit register, keyed in the order
    ``qubits, diagonal_gates, unitary_gates_each, total``.

    diagonal_gates = 2^(d+1); unitary_gates_each = (d-1)² 2^(2d-2) for each
    of U and V†; total = d² 2^(2d-1).  These are asymptotic expressions
    evaluated literally and should be read as order-of-magnitude counts.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return {
        "qubits": d,
        "diagonal_gates": 2 ** (d + 1),
        "unitary_gates_each": (d - 1) ** 2 * 2 ** (2 * d - 2),
        "total": d**2 * 2 ** (2 * d - 1),
    }
