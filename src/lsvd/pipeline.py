"""End-to-end driver tying generator, propagator, dilation, circuit and
readout together.

A Lindblad generator preserves Hermiticity, so in an orthonormal basis of
Hermitian operators its matrix, and every propagator, is real.  The basis
used here is E_ii, (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2) for
i < j, each placed at the column-stacked index of (i, j) or (j, i)
respectively.  The change of basis T from column-stacked vec is then the
identity on population indices and a 2 x 2 unitary rotation on each
off-diagonal pair, applied by index arithmetic.  The generator is rotated
once per model, G = T† L T (its imaginary part must be rounding), and all
propagator and SVD work is real and unpadded r² x r².

The real propagators are chained along the ascending grid:
exp(G t_k) = exp(G (t_k - t_{k-1})) exp(G t_{k-1}), with one ``expm`` per
distinct time gap.  Each output time still gets its own freshly decomposed
circuit implementing the full exp(G t_k), so postselection statistics are
never compounded.  The input state enters as T† vec(rho0) and T is applied
to the first r² ancilla-0 amplitudes of the output, so they are those of
the circuit for exp(L t_k) with U = (T U_R) ⊕ I and V† = (V_Rᵀ T†) ⊕ I.
Both readout modes start from those r² amplitudes, as ``run_exact`` returns
them: exact mode rescales them, sampled mode draws shots from them with
the discarded ancilla-1 outcome as one extra bucket.  Each time point is
folded into its table row as soon as its circuit has run, so only one
circuit is held at a time.  Points run serially in time order; sampling
substreams are keyed by seed and point index.
"""

from __future__ import annotations

import numpy as np

from .circuit import build_svd_circuit, run_exact
from .dilation import padded_dimension
from .errors import LsvdError
from .lindblad import (
    LindbladModel,
    PopulationTrace,
    _validated_times,
    build_superoperator,
    devectorize,
    propagator,
    vectorize,
)
from .numerics import as_matrix
from .sampler import DEFAULT_SHOTS, estimate_populations, sample, substream_seed

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Largest imaginary part of T† L T, relative to ||H||_F + sum_i gamma_i
# ||C_i||_F², that is taken for rounding (random models reach 0.5 eps).
_REAL_TOL = 1e-13


def qubit_counts(dim: int) -> tuple[int, int]:
    """(system qubits k, total qubits d) for an r-level model: n = 2^k >= r²."""
    k = padded_dimension(dim * dim).bit_length() - 1
    return k, k + 1


def _hermitian_pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Column-stacked indices of (i, j) and (j, i) for every i < j."""
    i, j = np.triu_indices(r, 1)
    return j * r + i, i * r + j


def _to_hermitian_basis(x: np.ndarray, r: int) -> np.ndarray:
    """T† x along axis 0: Hermitian-basis coordinates of column-stacked vecs."""
    p, q = _hermitian_pairs(r)
    out = np.array(x, dtype=np.complex128)
    out[p], out[q] = (x[p] + x[q]) * _SQRT_HALF, (x[q] - x[p]) * (1j * _SQRT_HALF)
    return out


def _from_hermitian_basis(c: np.ndarray, r: int) -> np.ndarray:
    """T c along axis 0: the inverse of :func:`_to_hermitian_basis`."""
    p, q = _hermitian_pairs(r)
    out = np.array(c, dtype=np.complex128)
    out[p], out[q] = (c[p] + 1j * c[q]) * _SQRT_HALF, (c[p] - 1j * c[q]) * _SQRT_HALF
    return out


def _real_generator(model: LindbladModel) -> np.ndarray:
    """G = T† L T as float64; raises if its imaginary part exceeds rounding.

    Rounding is measured against the size of the terms L is summed from,
    not against L itself, whose entries can cancel to rounding (a 1-level
    model's L is nothing else).
    """
    r = model.dim
    rows = _to_hermitian_basis(build_superoperator(model), r)  # T† L
    g = _to_hermitian_basis(rows.conj().T, r).conj().T  # (T† (T† L)†)† = T† L T
    terms = np.linalg.norm(model.hamiltonian) + sum(
        ch.rate * np.linalg.norm(ch.operator) ** 2 for ch in model.channels
    )
    imag = float(np.max(np.abs(g.imag)))
    if imag > _REAL_TOL * terms:
        raise LsvdError(
            f"generator does not preserve Hermiticity: T† L T has an imaginary "
            f"part of {imag:.3e} against terms of size {terms:.3e}"
        )
    return np.ascontiguousarray(g.real)


def _propagators(superop: np.ndarray, grid: np.ndarray):
    """Yield exp(L t) for each time of the ascending ``grid``, in order.

    The first is evaluated fresh; every later one is ``step @ previous``
    with ``step = exp(L gap)`` for the float gap to the previous time (exact
    whenever neighbours lie within a factor of two), so the chain telescopes
    to each t.  A step is kept only until the last use of its gap, so a grid
    whose gaps all differ caches nothing.
    """
    gaps = np.diff(grid).tolist()
    last_use = {gap: index for index, gap in enumerate(gaps)}
    steps: dict[float, np.ndarray] = {}
    current = propagator(superop, grid[0])
    yield current
    for index, gap in enumerate(gaps):
        step = steps.pop(gap, None)
        if step is None:
            step = propagator(superop, gap)
        if last_use[gap] > index:
            steps[gap] = step
        current = step @ current
        yield current


def quantum_evolve(
    model: LindbladModel,
    rho0,
    times,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> PopulationTrace:
    """Propagate through the circuit pipeline and read out populations.

    One circuit per output time.  The system register is initialized to
    vec(rho0)/||vec(rho0)|| zero-padded to the 2^k system dimension, with
    the ancilla in |0>.  ``mode="exact"`` reads the conditioned amplitudes
    directly and rescales by the dilation scale, reproducing the classical
    result to rounding.  ``mode="sampled"`` measures ``shots`` times per
    point (substream seed = ``substream_seed(seed, point_index)``) from the
    same amplitudes, postselects on the ancilla and estimates populations
    from the surviving counts.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and shots < 1:
        raise ValueError("shots must be >= 1")
    grid = _validated_times(times)
    rho_init = as_matrix(rho0, name="rho0")
    r = model.dim
    if rho_init.shape != (r, r):
        raise ValueError(f"rho0 has shape {rho_init.shape}, expected ({r}, {r})")
    generator = _real_generator(model)
    v0 = vectorize(rho_init)
    input_norm = float(np.linalg.norm(v0))
    if input_norm == 0.0:
        raise ValueError("rho0 must be non-zero")
    system_input = _to_hermitian_basis(v0, r) / input_norm

    def one(index: int, prop: np.ndarray) -> tuple[np.ndarray, float, float]:
        circ = build_svd_circuit(prop)
        state = np.zeros(2 * circ.n, dtype=np.complex128)
        state[: r * r] = system_input
        conditioned, success = run_exact(circ, state)
        vec_t = _from_hermitian_basis(conditioned[: r * r], r)
        if mode == "exact":
            vec_t *= circ.scale * input_norm
            return np.real(np.diag(devectorize(vec_t, r))), success, circ.scale
        result = sample(vec_t, shots, substream_seed(seed, index))
        populations = estimate_populations(result, r)
        return populations, result.postselected_shots / result.shots, circ.scale

    populations, success, scales = zip(
        *map(one, range(grid.size), _propagators(generator, grid))
    )
    return PopulationTrace(
        times=grid,
        populations=np.array(populations, dtype=float),
        success_prob=np.array(success, dtype=float),
        mode=mode,
        labels=model.labels,
        scales=np.array(scales, dtype=float),
    )
