"""Shared generators for randomized tests (all seeded, never time-based),
the paths of the bundled model files, the dense reference forms of a
circuit's factors and program, and the scipy and 40-digit mpmath
references for propagated states."""

from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.sparse.csgraph import connected_components

import lsvd
import lsvd.lindblad
import lsvd.numerics
import lsvd.pipeline
from lsvd.lindblad import Channel, LindbladModel, build_superoperator, lindblad_rhs

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def bundled_model_path(name):
    """The model file shipped with the package for the built-in ``name``."""
    return Path(lsvd.__file__).parent / "data" / f"{name}.json"


def force_chunk_width(monkeypatch, width):
    """Make every run of the pipeline take ``width`` points per chunk: the
    cap of the chunk rule, with a work budget that never binds first."""
    monkeypatch.setattr(lsvd.pipeline, "_MAX_CHUNK", width)
    monkeypatch.setattr(lsvd.pipeline, "_CHUNK_WORK", 2**62)


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


def dilated(sigma):
    """Sigma_+ = sigma + i sqrt(1 - sigma²), written out here so that the
    dense reference shares no code with the circuit it checks."""
    return sigma + 1j * np.sqrt(1.0 - sigma**2)


def as_unitary(circuit):
    """The full 2^d x 2^d operator of a circuit's five ops, composed densely
    point by point, shape ``(..., 2^d, 2^d)`` with the circuit's leading
    axes (small registers only)."""
    n = circuit.n
    hadamard = np.kron(_HADAMARD, np.eye(n, dtype=np.complex128))
    u, vdag = dense_u(circuit), dense_vdag(circuit)
    batch = circuit.sigma.shape[:-1]
    out = np.empty(batch + (2 * n, 2 * n), dtype=np.complex128)
    for point in np.ndindex(batch):
        composite = np.kron(np.eye(2, dtype=np.complex128), vdag[point])
        composite = hadamard @ composite
        sigma_plus = dilated(circuit.sigma[point])
        diagonal = np.concatenate([sigma_plus, sigma_plus.conj()])
        composite = diagonal[:, None] * composite
        composite = hadamard @ composite
        out[point] = np.kron(np.eye(2, dtype=np.complex128), u[point]) @ composite
    return out


def _forbidden(*args, **kwargs):
    raise AssertionError("the reference called the package's expm or propagator")


def _vec(rho):
    return np.asarray(rho, dtype=np.complex128).flatten(order="F")


def reference_states(model, rho0, times):
    """Density matrices rho(t) at each time of the ascending ``times``,
    shape ``(len(times), r, r)``, from scipy alone.

    ``build_superoperator(model)`` is first checked against the matrix-form
    ``lindblad_rhs`` on random states, to 1e-10 relative to the terms L is
    summed from (L itself can be pure rounding, as for a 1-level model
    with a channel).  It is then split into the connected components of
    its nonzero pattern, and each component's part of vec(rho0) is chained
    along the grid with one ``scipy.linalg.expm`` per distinct gap.  The
    package's ``expm`` and ``propagator`` raise while this runs, so the
    reference shares no propagation code with what it checks.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lsvd.numerics, "expm", _forbidden)
        patch.setattr(lsvd.lindblad, "expm", _forbidden)
        patch.setattr(lsvd.pipeline, "propagator", _forbidden)
        superop = build_superoperator(model)
        r = model.dim
        terms = np.linalg.norm(model.hamiltonian) + sum(
            ch.rate * np.linalg.norm(ch.operator) ** 2 for ch in model.channels
        )
        rng = np.random.default_rng(1729)
        for _ in range(3):
            rho = random_density(rng, r)
            defect = np.linalg.norm(superop @ _vec(rho) - _vec(lindblad_rhs(model, rho)))
            scale = terms * np.linalg.norm(rho)
            assert defect <= 1e-10 * scale, f"L off lindblad_rhs by {defect / scale:.3e}"
        count, labels = connected_components(superop != 0, connection="weak")
        grid = np.asarray(times, dtype=float)
        v0 = _vec(rho0)
        states = np.empty((grid.size, r * r), dtype=np.complex128)
        for component in range(count):
            index = np.flatnonzero(labels == component)
            block = superop[np.ix_(index, index)]
            steps = {}
            state, previous = v0[index], 0.0
            for k, t in enumerate(grid):
                gap = t - previous
                if gap not in steps:
                    steps[gap] = scipy.linalg.expm(block * gap)
                state = steps[gap] @ state
                states[k, index] = state
                previous = t
    return states.reshape(grid.size, r, r).transpose(0, 2, 1)


def reference_populations(model, rho0, times):
    """The real diagonals of :func:`reference_states`, shape ``(len(times), r)``."""
    return np.diagonal(reference_states(model, rho0, times), axis1=1, axis2=2).real


def mpmath_populations(model, rho0, times):
    """Populations at each of ``times``, shape ``(len(times), r)``, from
    ``mpmath.expm(L t)`` at 40 digits applied to vec(rho0) directly
    (no chaining), on each connected component of the nonzero pattern of
    ``L = build_superoperator(model)`` that vec(rho0) touches.  Beyond
    ``build_superoperator`` it shares no code with the package, and it is
    far more accurate than ``scipy.linalg.expm``."""
    superop = build_superoperator(model)
    r = model.dim
    v0 = _vec(rho0)
    count, labels = connected_components(superop != 0, connection="weak")
    populations = np.zeros((len(times), r))
    with mpmath.workdps(40):
        for component in range(count):
            index = np.flatnonzero(labels == component)
            if not v0[index].any():
                continue
            block = mpmath.matrix(superop[np.ix_(index, index)].tolist())
            state = mpmath.matrix(v0[index].tolist())
            # vec(rho)[i (r + 1)] is the population of level i
            levels = [(k, i // (r + 1)) for k, i in enumerate(index) if i % (r + 1) == 0]
            for row, t in enumerate(times):
                evolved = mpmath.expm(block * t) * state
                for k, level in levels:
                    populations[row, level] = float(mpmath.re(evolved[k]))
    return populations


def ode_populations(model, rho0, times):
    """Populations at each of the ascending ``times``, shape ``(len(times),
    r)``, from integrating the matrix-form ``lindblad_rhs`` from ``rho0``
    with ``scipy.integrate.solve_ivp`` (DOP853, rtol 1e-12, atol 1e-14).
    It uses neither ``build_superoperator`` nor any matrix exponential."""
    r = model.dim

    def rhs(_, y):
        return lindblad_rhs(model, y.reshape(r, r)).ravel()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lsvd.numerics, "expm", _forbidden)
        patch.setattr(lsvd.lindblad, "expm", _forbidden)
        solution = scipy.integrate.solve_ivp(
            rhs, (0.0, times[-1]), np.asarray(rho0, dtype=np.complex128).ravel(),
            method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14,
        )
    assert solution.success, solution.message
    states = solution.y.T.reshape(len(times), r, r)
    return np.diagonal(states, axis1=1, axis2=2).real


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
