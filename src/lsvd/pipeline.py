"""End-to-end driver tying generator, propagator, dilation, circuit and
readout together.

The classical propagator matrices are chained along the ascending grid:
exp(L t_k) = exp(L (t_k - t_{k-1})) exp(L t_{k-1}), with one ``expm`` per
distinct time gap.  Each output time still gets its own freshly decomposed
circuit implementing the full exp(L t_k), so postselection statistics are
never compounded.  Each time point is folded into its table row as soon as
its circuit has run, so only one circuit is held at a time.  Points run
serially in time order; sampling substreams are keyed by seed and point
index.
"""

from __future__ import annotations

import numpy as np

from .circuit import apply_circuit, build_svd_circuit, run_exact
from .dilation import padded_dimension
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

def qubit_counts(dim: int) -> tuple[int, int]:
    """(system qubits k, total qubits d) for an r-level model: n = 2^k >= r²."""
    k = padded_dimension(dim * dim).bit_length() - 1
    return k, k + 1


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
    point (substream seed = ``substream_seed(seed, point_index)``),
    postselects on the ancilla and estimates populations from the surviving
    counts.
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
    superop = build_superoperator(model)
    v0 = vectorize(rho_init)
    input_norm = float(np.linalg.norm(v0))
    if input_norm == 0.0:
        raise ValueError("rho0 must be non-zero")

    def one(index: int, prop: np.ndarray) -> tuple[np.ndarray, float, float]:
        circ = build_svd_circuit(prop)
        state = np.zeros(2 * circ.n, dtype=np.complex128)
        state[: r * r] = v0 / input_norm
        if mode == "exact":
            conditioned, success = run_exact(circ, state)
            vec_t = conditioned[: r * r] * (circ.scale * input_norm)
            return np.real(np.diag(devectorize(vec_t, r))), success, circ.scale
        result = sample(apply_circuit(circ, state), shots, substream_seed(seed, index))
        populations = estimate_populations(result, r, circ.k)
        return populations, result.postselected_shots / result.shots, circ.scale

    populations, success, scales = zip(
        *map(one, range(grid.size), _propagators(superop, grid))
    )
    return PopulationTrace(
        times=grid,
        populations=np.array(populations, dtype=float),
        success_prob=np.array(success, dtype=float),
        mode=mode,
        labels=model.labels,
        scales=np.array(scales, dtype=float),
    )
