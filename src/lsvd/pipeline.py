"""End-to-end driver tying generator, propagator, dilation, circuit and
readout together.

Every output time gets its own freshly decomposed circuit (the propagator
exp(L t) is never split into repeated steps, so postselection statistics
are never compounded).  Each time point is folded into its table row as
soon as its circuit has run, so only the points in flight hold a circuit.
Time points are independent work items; set the ``LSVD_THREADS``
environment variable to fan them out across a thread pool.  Results are
merged in time order and sampling substreams are keyed by point index, so
output is identical at any parallelism level.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .circuit import apply_circuit, build_svd_circuit, run_exact
from .dilation import decompose, pad_to_power_of_two
from .lindblad import (
    LindbladModel,
    PopulationTrace,
    _validated_times,
    build_superoperator,
    devectorize,
    propagator,
    vectorize,
)
from .numerics import DEFAULT_TOL, as_matrix
from .sampler import DEFAULT_SHOTS, estimate_populations, sample, substream_seed

THREADS_ENV_VAR = "LSVD_THREADS"


def worker_count() -> int:
    """Worker cap from the LSVD_THREADS environment variable (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_ordered(fn, items):
    """Map ``fn`` over ``items`` preserving order, threaded if configured."""
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def qubit_counts(dim: int) -> tuple[int, int]:
    """(system qubits k, total qubits d) for an r-level model: n = 2^k >= r²."""
    liouville = dim * dim
    k = max(1, (liouville - 1).bit_length())
    return k, k + 1


def quantum_evolve(
    model: LindbladModel,
    rho0,
    times,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> PopulationTrace:
    """Propagate through the circuit pipeline and read out populations.

    One circuit per output time.  The system register is initialized to
    vec(rho0)/||vec(rho0)|| zero-padded to the 2^k system dimension, with
    the ancilla in |0>.  ``mode="exact"`` reads the conditioned amplitudes
    directly and rescales by the dilation scale, reproducing the classical
    result to rounding.  ``mode="sampled"`` measures ``shots`` times per
    point (substream seed = ``seed XOR point_index``), postselects on the
    ancilla and estimates populations from the surviving counts.
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

    def one(item) -> tuple[np.ndarray, float, float]:
        index, t = item
        factors = decompose(pad_to_power_of_two(propagator(superop, t, tol)), tol)
        circ = build_svd_circuit(factors)
        state = np.zeros(2 * circ.n, dtype=np.complex128)
        state[: r * r] = v0 / input_norm
        if mode == "exact":
            conditioned, success = run_exact(circ, state)
            vec_t = conditioned[: r * r] * (circ.scale * input_norm)
            return np.real(np.diag(devectorize(vec_t, r))), success, circ.scale
        result = sample(apply_circuit(circ, state), shots, substream_seed(seed, index))
        populations = estimate_populations(result, r, circ.k)
        return populations, result.postselected_shots / result.shots, circ.scale

    populations, success, scales = zip(*map_ordered(one, enumerate(grid)))
    return PopulationTrace(
        times=grid,
        populations=np.array(populations, dtype=float),
        success_prob=np.array(success, dtype=float),
        mode=mode,
        labels=model.labels,
        scales=np.array(scales, dtype=float),
    )
