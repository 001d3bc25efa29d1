"""Shared generators for randomized tests (all seeded, never time-based),
and the dense reference forms of a circuit's factors and program."""

import numpy as np
import pytest

from lsvd.dilation import dilate
from lsvd.lindblad import Channel, LindbladModel

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return a + a.conj().T


def random_density(rng, n):
    a = random_complex(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_model(rng, r, n_channels=2, time_unit="1"):
    channels = tuple(
        Channel(random_complex(rng, r), float(rng.uniform(0.1, 1.0)), f"ch{i}")
        for i in range(n_channels)
    )
    return LindbladModel(
        hamiltonian=random_hermitian(rng, r),
        channels=channels,
        time_unit=time_unit,
    )


def direct_sum_with_identity(runs, n):
    """The direct sum of every block of ``runs`` (stacked as ``(..., count,
    s, s)``), then ``I``, in dimension n; real if every block is."""
    eye = np.eye(n, dtype=np.result_type(*runs))
    out = np.broadcast_to(eye, runs[0].shape[:-3] + (n, n)).copy()
    offset = 0
    for run in runs:
        for j in range(run.shape[-3]):
            end = offset + run.shape[-1]
            out[..., offset:end, offset:end] = run[..., j, :, :]
            offset = end
    return out


def dense_u(circuit):
    """Dense ``u_1 ⊕ u_2 ⊕ … ⊕ I`` of a circuit."""
    return direct_sum_with_identity(circuit.u_blocks, circuit.n)


def dense_vdag(circuit):
    """Dense ``vdag_1 ⊕ vdag_2 ⊕ … ⊕ I`` of a circuit."""
    return direct_sum_with_identity(circuit.vdag_blocks, circuit.n)


def as_unitary(circuit):
    """The full 2^d x 2^d operator of a single circuit's five ops, composed
    densely (small registers only)."""
    n = circuit.n
    eye_n = np.eye(n, dtype=np.complex128)
    composite = np.kron(np.eye(2, dtype=np.complex128), dense_vdag(circuit))
    composite = np.kron(_HADAMARD, eye_n) @ composite
    sigma_plus = dilate(circuit.sigma)
    diagonal = np.concatenate([sigma_plus, sigma_plus.conj()])
    composite = diagonal[:, None] * composite
    composite = np.kron(_HADAMARD, eye_n) @ composite
    composite = np.kron(np.eye(2, dtype=np.complex128), dense_u(circuit)) @ composite
    return composite


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
