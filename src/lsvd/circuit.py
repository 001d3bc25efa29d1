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
system register; the |1> outcome is the discarded branch.  Emulation
applies the five ops as exact matrix-vector products at full register
dimension (one freshly decomposed circuit per output time), and
:func:`run_exact` returns the ancilla-0 amplitudes that both readout modes
start from; elementary gate synthesis is out of scope and resource needs
are reported by the closed-form counts in :func:`estimate_resources`
instead.

:func:`build_svd_circuit` does the whole per-point job: it takes the SVD
of each diagonal block of the square propagator once, in the block's own
field (``numerics.svd`` checks reconstruction and the unitarity of both
factors), places the factors on the diagonal of the register's U and V†
with the padding identity as the last block, divides the singular values
by max(1, sigma_max) and checks once more, on the assembled circuit, only
what no SVD can vouch for: the dilated branches and the op application
path.
The circuit stores sigma; each use derives Sigma_+ from it through
``dilation.dilate`` and Sigma_- as the conjugate.  A real propagator
gives real orthogonal factors, which are applied to the real and
imaginary parts of the register in one real product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import dilate, padded_dimension
from .errors import BlockIdentityViolationError
from .numerics import svd

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_SQRT_HALF = 1.0 / np.sqrt(2.0)

_BLOCK_TOL = 1e-10
_PROBE_SEED = 0x5BD5EED
_NUM_PROBES = 2


@dataclass(frozen=True)
class SVDCircuit:
    """The five-op program for one propagator: ``u @ diag(sigma * scale) @
    vdag`` is the propagator padded with an identity block to n = 2^k.

    ``sigma`` lies in [0, 1]: the propagator's own singular values divided
    by ``scale``, descending, then one entry ``1/scale`` per padding row;
    the dilated diagonal is derived from it.  ``u`` and ``vdag`` are the
    direct sums of the propagator blocks' SVD factors and an identity
    block, with columns of ``u`` and rows of ``vdag`` ordered as ``sigma``,
    real for a real propagator."""

    u: np.ndarray
    sigma: np.ndarray
    vdag: np.ndarray
    scale: float

    @property
    def n(self) -> int:
        """System register dimension 2^k."""
        return self.u.shape[0]

    @property
    def k(self) -> int:
        """System qubits."""
        return self.n.bit_length() - 1

    @property
    def d(self) -> int:
        """Register qubits: the system plus one ancilla."""
        return self.k + 1


def apply_circuit(circuit: SVDCircuit, state) -> np.ndarray:
    """Apply the five ops in order to a 2^d statevector.

    System ops act on both ancilla blocks, the ancilla Hadamard mixes the
    blocks, and the dilated diagonal scales them elementwise; this is the
    blockwise form of the full 2^d x 2^d products.
    """
    amps = np.asarray(state, dtype=np.complex128).ravel()
    n = circuit.n
    if amps.size != 2 * n:
        raise ValueError(
            f"state has length {amps.size}, expected {2 * n} for d={circuit.d} qubits"
        )
    sigma_plus = dilate(circuit.sigma)
    blocks = _on_system(circuit.vdag, np.column_stack([amps[:n], amps[n:]]))
    b0, b1 = blocks[:, 0], blocks[:, 1]
    b0, b1 = (b0 + b1) * _SQRT_HALF, (b0 - b1) * _SQRT_HALF
    b0 = sigma_plus * b0
    b1 = sigma_plus.conj() * b1
    b0, b1 = (b0 + b1) * _SQRT_HALF, (b0 - b1) * _SQRT_HALF
    return _on_system(circuit.u, np.column_stack([b0, b1])).T.ravel()


def _on_system(op: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``op @ blocks`` for C-contiguous complex ``blocks`` of shape (n, m).

    A real ``op`` multiplies the real and imaginary parts together, as one
    real product on the float64 view of ``blocks``, instead of being
    upcast to complex on every call.
    """
    if np.iscomplexobj(op):
        return op @ blocks
    return (op @ blocks.view(np.float64)).view(np.complex128)


def as_unitary(circuit: SVDCircuit) -> np.ndarray:
    """Compose the full 2^d x 2^d operator (intended for small registers)."""
    n = circuit.n
    eye_n = np.eye(n, dtype=np.complex128)
    composite = np.kron(np.eye(2, dtype=np.complex128), circuit.vdag)
    composite = np.kron(_HADAMARD, eye_n) @ composite
    sigma_plus = dilate(circuit.sigma)
    diagonal = np.concatenate([sigma_plus, sigma_plus.conj()])
    composite = diagonal[:, None] * composite
    composite = np.kron(_HADAMARD, eye_n) @ composite
    composite = np.kron(np.eye(2, dtype=np.complex128), circuit.u) @ composite
    return composite


def _check_block_identity(circuit: SVDCircuit) -> None:
    """Verify the ancilla-0 block reproduces U diag(sigma) V†.

    The unitarity of U and V† is the SVD's own contract; this adds the two
    checks it cannot make.  The branch-average identity covers the diagonal
    algebra, and two deterministic pseudo-random probe states exercise the
    actual op application path.  Cost stays O(n²).
    """
    sigma = circuit.sigma
    sigma_plus = dilate(sigma)
    branch_avg = 0.5 * (sigma_plus + sigma_plus.conj())
    if np.max(np.abs(branch_avg - sigma)) > _BLOCK_TOL:
        raise BlockIdentityViolationError(
            "branch average of the dilated diagonal does not reproduce diag(sigma)"
        )
    n = circuit.n
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(_NUM_PROBES):
        probe = rng.normal(size=n) + 1j * rng.normal(size=n)
        probe /= np.linalg.norm(probe)
        state = np.zeros(2 * n, dtype=np.complex128)
        state[:n] = probe
        got = apply_circuit(circuit, state)[:n]
        column = sigma[:, None] * _on_system(circuit.vdag, probe[:, None])
        want = _on_system(circuit.u, column)[:, 0]
        if np.linalg.norm(got - want) > _BLOCK_TOL:
            raise BlockIdentityViolationError(
                f"ancilla-0 block deviates from U diag(sigma) V† by "
                f"{np.linalg.norm(got - want):.3e}"
            )


def build_svd_circuit(*blocks) -> SVDCircuit:
    """Assemble the program for the propagator ``blocks[0] ⊕ blocks[1] ⊕ …``.

    A single square propagator is the one-block call.  Each block is
    decomposed by ``numerics.svd`` in its own field (reconstruction, against
    the block's own norm, and unitarity of both factors checked to 1e-12);
    the direct sum of the block SVDs is an SVD of the direct sum.  The
    factors are placed on the diagonals of ``U`` and ``V†`` with the padding
    identity as the last block, up to n = 2^k, the columns of ``U`` and
    rows of ``V†`` are permuted so the blocks' singular values come out
    descending ahead of the padding ones, and sigma is divided by ``scale =
    max(1, sigma_max)``.  The dilation of sigma (which rejects values
    outside [0, 1]) and the block identity (ancilla-0 block equals the
    diag-sigma sandwich) are verified to 1e-10 on the assembled circuit
    before it is returned.
    """
    if not blocks:
        raise ValueError("build_svd_circuit needs at least one block")
    factors = [svd(block) for block in blocks]
    raw = np.concatenate([s for _, s, _ in factors])
    dim = raw.size
    n = padded_dimension(dim)
    order = np.concatenate([np.argsort(-raw, kind="stable"), np.arange(dim, n)])
    scale = float(max(1.0, raw.max()))
    sigma = np.concatenate([raw, np.ones(n - dim)])[order] / scale
    circuit = SVDCircuit(
        u=_direct_sum_with_identity([u for u, _, _ in factors], n)[:, order],
        sigma=sigma,
        vdag=_direct_sum_with_identity([v for _, _, v in factors], n)[order],
        scale=scale,
    )
    _check_block_identity(circuit)
    return circuit


def _direct_sum_with_identity(parts: list[np.ndarray], n: int) -> np.ndarray:
    """``parts[0] ⊕ parts[1] ⊕ … ⊕ I`` in dimension n, real if every part is."""
    out = np.eye(n, dtype=np.result_type(*parts))
    offset = 0
    for part in parts:
        end = offset + part.shape[0]
        out[offset:end, offset:end] = part
        offset = end
    return out


def run_exact(circuit: SVDCircuit, input_state) -> tuple[np.ndarray, float]:
    """Run the program on a normalized input and postselect the ancilla.

    Returns ``(conditioned, success_prob)`` where ``conditioned`` holds the
    unnormalized ancilla-0 amplitudes (exact readout rescales them by the
    dilation scale, sampled readout draws shots from them) and
    ``success_prob`` is their squared norm.  For an input with the ancilla
    in |0>, ``success_prob = ||M_scaled @ input_system||²``.
    """
    amps = np.asarray(input_state, dtype=np.complex128).ravel()
    if amps.size != 2 * circuit.n:
        raise ValueError(f"input has length {amps.size}, expected {2 * circuit.n}")
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"input state must be normalized, got norm {norm!r}")
    final = apply_circuit(circuit, amps)
    conditioned = final[: circuit.n].copy()
    success = float(np.real(np.vdot(conditioned, conditioned)))
    return conditioned, success


@dataclass(frozen=True)
class ResourceEstimate:
    """Closed-form gate counts for a d-qubit register (order-of-magnitude)."""

    qubits: int
    diagonal_gates: int
    unitary_gates_each: int
    total: int


def estimate_resources(d: int) -> ResourceEstimate:
    """Evaluate the gate-count expressions for a d-qubit register.

    diagonal_gates = 2^(d+1); unitary_gates_each = (d-1)² 2^(2d-2) for each
    of U and V†; total = d² 2^(2d-1).  These are asymptotic expressions
    evaluated literally and should be read as order-of-magnitude counts.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return ResourceEstimate(
        qubits=d,
        diagonal_gates=2 ** (d + 1),
        unitary_gates_each=(d - 1) ** 2 * 2 ** (2 * d - 2),
        total=d**2 * 2 ** (2 * d - 1),
    )
