"""End-to-end driver tying generator, propagator, dilation, circuit and
readout together.

A Lindblad generator preserves Hermiticity, so in an orthonormal basis of
Hermitian operators its matrix, and every propagator, is real.  The basis
used here is E_ii, (E_ij + E_ji)/sqrt(2) and i (E_ij - E_ji)/sqrt(2) for
i < j, each placed at the column-stacked index of (i, j) or (j, i)
respectively.  The change of basis T from column-stacked vec is then the
identity on population indices and a 2 x 2 unitary rotation on each
off-diagonal pair, applied by index arithmetic.  The generator is rotated
once per model, G = T† L T (its imaginary part must be rounding).

The bundled models' G is sparse: its exact-nonzero pattern splits into
decoupled components (rpm's 100 indices into 34, 32, 8, 8, 8, 8, 1 and
1), and a permutation P makes each contiguous.  An orthogonal Q, found
once per model, splits each component further along its generator's
symmetries (``_symmetry_split``), unless that would drop more than
rounding off the new blocks; rpm's working blocks are then one of 12,
36 of 2 and 16 of 1.  The working basis is T P Q, so Q^T P† G P Q =
G_1 ⊕ G_2 ⊕ … and all propagator and SVD work is real, unpadded and
block by block.  A family of generators keeps its components unsplit.

The real propagator is chained along the ascending grid component by
component, each run of equal-size components stacked: exp(G_i t_k) =
exp(G_i (t_k - t_{k-1})) exp(G_i t_{k-1}), with one ``expm`` per distinct
time gap per run.  Q^T exp(G t) Q is taken per point, with its off-block
rounding dropped and checked, rather than the exponential of the rotated
generator, whose rounding exp(G t) would amplify by ||G t||.  Each output
time still gets its own freshly decomposed circuit implementing the full
exp(G t_k), so postselection statistics are never compounded.  The
circuits are built and run a chunk of consecutive times at once (32 for
rpm, 8 for fmo7; ``_chunk_width``): the chain writes their propagator
blocks straight into stacks along a leading point axis, one
``build_svd_circuit`` call decomposes and checks every point of the stack
and one ``run_exact`` call runs them.  A point's row does not depend on
the chunk it falls in.  A family of generators at one time, sum_i w_ji G_i
per member j (a compass sweep's orientations), runs the same way: one
partition from the union of the anchors' patterns, and one stacked
``expm`` per run of components per chunk of members.

``run_exact`` is given the r² coordinates Q^T P† T† vec(rho0)/||vec(rho0)||;
T P Q maps the first r² ancilla-0 amplitudes it returns to those of the
circuit for exp(L t_k) with U = (T P Q U_R) ⊕ I and V† = (V_Rᵀ Q^T P† T†) ⊕ I.
T is the identity on population indices, so exact mode maps only the r
population rows of P Q and rescales them by scale * ||vec(rho0)||; sampled
mode maps all r² and draws shots from them, the discarded ancilla-1 outcome
as one extra bucket.  Each chunk is folded into its table rows as soon as
its circuits have run and is released before the next one is stacked, so
memory holds one chunk at a time however long the grid.  Chunks run
serially, in the order of the grid or of the family; sampling substreams
are keyed by seed and point index.

``classical_evolve`` runs the same chain on the plain column-stacked L, as
one block, with no Hermitian basis and no circuit.  It shares the
generator and the chain with ``quantum_evolve``, so it is a cheap
classical trace, not an independent reference for it.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .circuit import _uniform, build_svd_circuit, run_exact
from .dilation import padded_dimension
from .errors import LsvdError
from .lindblad import (
    LindbladModel,
    PopulationTrace,
    build_superoperator,
    propagator,
    vectorize,
)
from .numerics import DEFAULT_TOL, as_matrix
from .sampler import DEFAULT_SHOTS, _check_shots, estimate_populations, sample, substream_seed

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# Points (times or family members) decomposed, checked and run per stacked
# circuit call: as many as carry ``_CHUNK_WORK`` of SVD work, the sum of s³
# over a point's working blocks, so that small blocks spread their per-call
# overhead and large ones keep a chunk's memory small; at most ``_MAX_CHUNK``.
_MAX_CHUNK, _CHUNK_WORK = 32, 2**20

# Largest imaginary part of T† L T, relative to ||H||_F + sum_i gamma_i
# ||C_i||_F², that is taken for rounding (random models reach 0.5 eps).
_REAL_TOL = 1e-13

# Symmetry detection (``_symmetry_split``): the seed of its draws; the
# relative gap between eigenvalue clusters; the relative size of a zero
# normal-matrix eigenvalue; the most unknowns of one normal matrix (8 bytes
# times their square), above which a component is kept whole; and the
# ridge of the Sylvester pass, whose null directions need no correction.
_SPLIT_SEED = 0x5117
_CLUSTER_TOL = 1e-8
_NULL_TOL = 1e-9
_MAX_UNKNOWNS = 360
_RIDGE = 1e-10

# Largest entry a split may drop off a component of G, relative to the
# terms L is summed from: a few ulps, the rounding G itself carries
# (the bundled models drop at most 4.7e-16).  exp(G t) amplifies what is
# dropped by up to ||G t||, as it does G's own rounding.
_SPLIT_TOL = 1e-15


def qubit_counts(dim: int) -> tuple[int, int]:
    """(system qubits k, total qubits d) for an r-level model: n = 2^k >= r²."""
    k = padded_dimension(dim * dim).bit_length() - 1
    return k, k + 1


def _chunk_width(block_runs) -> int:
    """Points per chunk for working blocks listed as ``[size, count]`` runs."""
    work = sum(count * size**3 for size, count in block_runs)
    return min(_MAX_CHUNK, -(-_CHUNK_WORK // work))


def _validated_times(times) -> np.ndarray:
    arr = np.array(times, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("times must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    if arr[0] < 0:
        raise ValueError("times must be non-negative")
    if np.any(np.diff(arr) < 0):
        raise ValueError("times must be sorted ascending")
    return arr


def _vec_rho0(rho0, r: int) -> np.ndarray:
    """vec(rho0) for a finite, non-zero r x r ``rho0``."""
    rho_init = as_matrix(rho0, name="rho0")
    if rho_init.shape != (r, r):
        raise ValueError(f"rho0 has shape {rho_init.shape}, expected ({r}, {r})")
    v0 = vectorize(rho_init)
    if np.linalg.norm(v0) == 0.0:
        raise ValueError("rho0 must be non-zero")
    return v0


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


def _terms(model: LindbladModel) -> float:
    """||H||_F + sum_i gamma_i ||C_i||_F², the size of the terms L is summed from."""
    return np.linalg.norm(model.hamiltonian) + sum(
        ch.rate * np.linalg.norm(ch.operator) ** 2 for ch in model.channels
    )


def _real_generator(model: LindbladModel) -> np.ndarray:
    """G = T† L T as float64; raises if its imaginary part exceeds rounding.

    Rounding is measured against ``_terms``, not against L itself, whose
    entries can cancel to rounding (a 1-level model's L is nothing else).
    """
    r = model.dim
    rows = _to_hermitian_basis(build_superoperator(model), r)  # T† L
    g = _to_hermitian_basis(rows.conj().T, r).conj().T  # (T† (T† L)†)† = T† L T
    terms = _terms(model)
    imag = float(np.max(np.abs(g.imag)))
    if imag > _REAL_TOL * terms:
        raise LsvdError(
            f"generator does not preserve Hermiticity: T† L T has an imaginary "
            f"part of {imag:.3e} against terms of size {terms:.3e}"
        )
    return np.ascontiguousarray(g.real)


def _decoupled_blocks(*generators: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the generators' joint
    exact-nonzero pattern.

    Indices i and j are coupled when G[i, j] or G[j, i] is non-zero in any
    generator G.  Each component lists its indices ascending, the largest
    components first; reordered by their concatenation, every linear
    combination of the generators is block diagonal with exact zeros off
    the blocks.  Every index starts labelled with itself and takes the
    lowest label among its neighbours until nothing changes, so each
    component ends up labelled with its lowest index.
    """
    nonzero = np.logical_or.reduce([generator != 0 for generator in generators])
    coupled = nonzero | nonzero.T | np.eye(nonzero.shape[0], dtype=bool)
    labels = np.arange(nonzero.shape[0])
    while True:
        lowest = np.where(coupled, labels, labels.size).min(axis=1)
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    roots = np.flatnonzero(labels == np.arange(labels.size))
    components = [np.flatnonzero(labels == root) for root in roots]
    components.sort(key=len, reverse=True)
    return components


def _cluster_labels(values: np.ndarray) -> np.ndarray:
    """Cluster number of each of the ascending ``values``: a cluster ends
    where the next gap exceeds ``_CLUSTER_TOL`` times the largest value."""
    return np.cumsum(np.diff(values, prepend=values[0]) > _CLUSTER_TOL * np.abs(values).max())


def _normal_matrix(words: np.ndarray, a, b, c, d) -> np.ndarray:
    """K_ab^T K_cd summed over the ``words`` M, for K_ab the map from the
    unknowns X[a_p, b_p] to X M - M X, without forming K; the index arrays
    may carry leading axes, one system per index."""
    a, b, c, d = a[..., :, None], b[..., :, None], c[..., None, :], d[..., None, :]
    transposed = np.swapaxes(words, -1, -2)
    left, right = np.add.reduce(words @ transposed), np.add.reduce(transposed @ words)
    total = (a == c) * left[b, d] + (b == d) * right[a, c]
    for m in words:
        total -= m[b, d] * m[a, c] + m[c, a] * m[d, b]
    return total


def _symmetry_split(block: np.ndarray):
    """An orthogonal Q and descending block sizes for which Q^T B Q is block
    diagonal, up to rounding, for the square ``block`` B; None when nothing
    splits.

    The words are B's symmetric and antisymmetric parts, of unit Frobenius
    norm.  Their commutant commutes with a random symmetric combination of
    the words and their products, so it is block diagonal in that
    combination's eigenbasis W, and it is the null space of the
    commutator's normal matrix on those unknowns (Murota, Kanno, Kojima &
    Kojima, Japan J. Indust. Appl. Math. 27, 125 (2010)).  The eigenspaces
    V of a random symmetric null element reduce both words.  One
    least-squares Sylvester pass per pair of blocks, applied as a Cayley
    transform, cuts the off-block part of (W V)^T B (W V) to rounding.
    The draws come from the stdlib ``random`` seeded with ``_SPLIT_SEED``,
    so a model always gets the same basis.
    """
    words = np.array([
        part / np.linalg.norm(part) for part in (block + block.T, block - block.T) if part.any()
    ])
    rng = random.Random(_SPLIT_SEED)
    coeffs = _uniform(rng, (len(words) + 1, len(words)))
    mix = np.tensordot(coeffs[0], words, 1)
    for c, word in zip(coeffs[1:], words):
        mix += np.tensordot(c, words, 1) @ word
    values, w = np.linalg.eigh(mix + mix.T)
    # symmetric unknowns X[a, b] = X[b, a], a <= b, within each cluster
    label = _cluster_labels(values)
    a, b = np.nonzero(np.triu(label[:, None] == label))
    if a.size > _MAX_UNKNOWNS:
        return None
    words = w.T @ words @ w
    sides = ((a, b), (b, a))
    normal = sum(_normal_matrix(words, *row, *col) for row in sides for col in sides)
    values, vectors = np.linalg.eigh(normal)
    null = vectors[:, values <= _NULL_TOL * values[-1]]
    element = np.zeros_like(mix)
    element[a, b] = null @ _uniform(rng, (null.shape[1],))
    values, v = np.linalg.eigh(element + element.T)
    label = _cluster_labels(values)
    counts = np.bincount(label)
    sizes = sorted(counts.tolist(), reverse=True)
    if len(sizes) == 1 or sizes[0] * sizes[1] > _MAX_UNKNOWNS:
        return None
    order = np.argsort(-counts[label], kind="stable")  # largest clusters first
    v, label = v[:, order], label[order]

    # Z of X M - M X = M_off, the words' off-block part, on each pair's
    # unknowns; Z is skew and exp(Z) ~ cayley(Z) zeroes M_off to first order
    words = v.T @ words @ v
    off = np.where(label[:, None] != label, words, 0.0)
    target = sum(o @ m.T - m.T @ o for o, m in zip(off, words))
    starts, size = np.cumsum([0, *sizes]), np.array(sizes)
    first, second = np.triu_indices(len(sizes), 1)
    z = np.zeros_like(mix)
    for si, sj in sorted(set(zip(size[first], size[second]))):
        pick = (size[first] == si) & (size[second] == sj)
        rows = starts[first[pick], None] + np.repeat(np.arange(si), sj)
        cols = starts[second[pick], None] + np.tile(np.arange(sj), si)
        normal = _normal_matrix(words, rows, cols, rows, cols) + _RIDGE * np.eye(si * sj)
        z[rows, cols] = np.linalg.solve(normal, target[rows, cols][..., None])[..., 0]
    z -= z.T
    eye = np.eye(len(z))
    return w @ v @ np.linalg.solve(eye - z / 2, eye + z / 2), sizes


def _working_basis(generators: list[np.ndarray], terms: float | None = None):
    """The working basis T P Q of one model's real generator, or of a
    family's anchors', as ``(runs, (basis, rotate, record))``.

    P makes each of ``_decoupled_blocks``' components contiguous.  Given
    ``terms``, the ``_terms`` of a single model, Q splits each component
    along ``_symmetry_split`` unless an entry it drops off the new blocks
    exceeds ``_SPLIT_TOL`` times ``terms``; elsewhere, and without
    ``terms``, Q is the identity.  ``basis`` is the dense P Q, blocks
    ordered by size, largest first.  ``runs[i]`` stacks generator i's
    equal-size components ``(count, m, m)`` for ``propagator``; ``rotate``
    maps such runs of propagators to the blocks of Q^T exp(G t) Q.  The
    propagator is rotated, not the generator: exp(G t) would amplify the
    rounding of a rotated G by ||G t||.  It amplifies what the split drops
    all the same, so ``rotate`` raises if an entry it drops off a
    propagator exceeds ``DEFAULT_TOL``, the accuracy ``expm`` promises
    relative to the whole propagator, whose norm is at least one (it keeps
    the trace).  ``record`` lists the runs of blocks as ``[size, count]``
    and the largest entry dropped off the generator over its terms.
    """
    components = _decoupled_blocks(*generators)
    rotations, spans, worst = {}, [], 0.0  # rotations: index -> (Q, off-block mask)
    for index, c in enumerate(components):
        sizes, block = [c.size], generators[0][np.ix_(c, c)]
        found = terms is not None and c.size > 1 and _symmetry_split(block)
        if found:
            label = np.repeat(np.arange(len(found[1])), found[1])
            off = label[:, None] != label
            dropped = np.abs((found[0].T @ block @ found[0])[off]).max()
            if dropped <= _SPLIT_TOL * terms:
                rotations[index], sizes = (found[0], off), found[1]
                worst = max(worst, dropped / terms)
        ends = itertools.accumulate(sizes)
        spans += [(index, slice(end - size, end)) for end, size in zip(ends, sizes)]
    spans.sort(key=lambda span: span[1].start - span[1].stop)  # stable: largest first
    runs = [
        [np.array([g[np.ix_(c, c)] for c in run]) for _, run in itertools.groupby(components, len)]
        for g in generators
    ]

    def rotate(props: list[np.ndarray]) -> list[np.ndarray]:
        each = [run[..., j, :, :] for run in props for j in range(run.shape[-3])]
        for index, (q, off) in rotations.items():
            each[index] = q.T @ each[index] @ q
            dropped = np.abs(each[index][..., off]).max()
            if dropped > DEFAULT_TOL:
                raise LsvdError(
                    f"symmetry split drops {dropped:.3e} of a propagator, more than "
                    f"{DEFAULT_TOL:.0e}: the generator is only nearly symmetric"
                )
        # copies, so that neither the chunk nor its rotation outlives this
        return [each[index][..., span, span].copy() for index, span in spans]

    widths = [span.stop - span.start for _, span in spans]
    basis = np.zeros((generators[0].shape[0],) * 2)
    for (index, span), end, width in zip(spans, itertools.accumulate(widths), widths):
        q = rotations[index][0] if index in rotations else np.eye(components[index].size)
        basis[components[index], end - width : end] = q[:, span]
    record = {
        "block_runs": [[size, len(list(run))] for size, run in itertools.groupby(widths)],
        "max_dropped_over_terms": float(worst),
    }
    return runs, (basis, rotate, record)


def _chain(blocks: list[np.ndarray], grid: np.ndarray, width: int):
    """Yield the blocks of exp(G t) for the ascending ``grid``, ``width``
    points at a time (the last chunk may be shorter), each block stacked
    along a new leading axis.

    ``blocks`` are the diagonal blocks of a block-diagonal generator, whose
    propagator is the direct sum of the blocks' own; each may be a run of
    equal-size blocks stacked ``(count, s, s)``.  The first time is
    evaluated fresh; every later one is ``step @ previous`` block by block,
    with ``step = exp(G_i gap)`` for the float gap to the previous time
    (exact whenever neighbours lie within a factor of two), so the chain
    telescopes to each t.  A step is kept only until the last use of its
    gap, so a grid whose gaps all differ caches nothing.  Each point is
    written straight into its chunk, and the chain keeps only a copy of
    the last point of a chunk it has handed out.
    """
    gaps = np.diff(grid).tolist()
    last_use = {gap: index for index, gap in enumerate(gaps)}
    steps: dict[float, list[np.ndarray]] = {}
    for start in range(0, grid.size, width):
        chunk = [np.empty((min(width, grid.size - start),) + b.shape, b.dtype) for b in blocks]
        for k in range(chunk[0].shape[0]):
            index = start + k - 1  # of the gap from the previous point
            if index < 0:
                for stack, block in zip(chunk, blocks):
                    stack[0] = propagator(block, grid[0])
            else:
                step = steps.pop(gaps[index], None)
                if step is None:
                    step = [propagator(block, gaps[index]) for block in blocks]
                if last_use[gaps[index]] > index:
                    steps[gaps[index]] = step
                for s, p, stack in zip(step, previous, chunk):
                    np.matmul(s, p, out=stack[k])
            previous = [stack[k] for stack in chunk]
        previous = [p.copy() for p in previous]
        yield [chunk.pop(0) for _ in blocks]  # emptied: the chain keeps none of it


def _run_chunks(chunks, working, rho0, times, labels, mode, shots, seeds):
    """Decompose, run and read out each chunk of stacked propagator runs
    ``(points, count, m, m)`` in order, one row per entry of ``times``, in
    the working basis ``working`` from ``_working_basis``, whose record the
    trace keeps; sampled points take their substreams from ``seeds`` in
    order.  ``chunks`` is consumed only once ``mode``, ``shots`` and
    ``rho0`` pass."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled":
        _check_shots(shots)
    r = len(labels)
    v0 = _vec_rho0(rho0, r)
    input_norm = float(np.linalg.norm(v0))
    basis, rotate, record = working
    state = basis.T @ _to_hermitian_basis(v0, r) / input_norm

    def run_chunk(blocks: list[np.ndarray]):
        circ = build_svd_circuit(*blocks)
        conditioned, success = run_exact(circ, state)
        # point by point, so that a row does not depend on its chunk
        if mode == "exact":  # T is the identity on the population rows
            rows = (basis[:: r + 1] @ conditioned[:, : r * r, None])[..., 0]
            return rows.real * (circ.scale * input_norm)[:, None], success, circ.scale
        coords = (basis @ conditioned[:, : r * r, None])[..., 0].T
        vecs = _from_hermitian_basis(coords, r).T  # one row vec(rho) per point
        results = [sample(vec_t, shots, next(seeds)) for vec_t in vecs]
        populations = [estimate_populations(result, r) for result in results]
        postselected = [result.postselected_shots / result.shots for result in results]
        return populations, postselected, circ.scale

    # each chunk is freed once rotated, before its circuit is built
    columns = zip(*map(run_chunk, map(rotate, chunks)))
    populations, success, scales = (np.concatenate(column, dtype=float) for column in columns)
    return PopulationTrace(times, populations, success, labels, scales, record)


def classical_evolve(model: LindbladModel, rho0, times) -> PopulationTrace:
    """Propagate ``rho0`` through Liouville space and record populations.

    The propagators exp(L t) of the column-stacked generator are chained
    along the ascending grid by ``_chain``, as ``quantum_evolve``
    chains its blocks, with no Hermitian basis, no blocks and no circuit;
    populations are the real diagonal of exp(L t) vec(rho0).  The trace
    of every output state is checked to stay within 1e-8 of one.
    """
    grid = _validated_times(times)
    r = model.dim
    v0 = _vec_rho0(rho0, r)
    diagonal = np.arange(r) * (r + 1)
    populations = np.empty((grid.size, r), dtype=float)
    chain = _chain([build_superoperator(model)], grid, 1)
    for i, (t, ((prop,),)) in enumerate(zip(grid, chain)):
        diag_t = (prop @ v0)[diagonal]
        trace_defect = abs(diag_t.sum() - 1.0)
        if trace_defect > 1e-8:
            raise LsvdError(
                f"propagated state lost trace normalization at t={t} "
                f"(defect {trace_defect:.3e})"
            )
        populations[i] = diag_t.real
    return PopulationTrace(
        times=grid,
        populations=populations,
        success_prob=np.ones(grid.size),
        labels=model.labels,
    )


# The substream rule of quantum_evolve's draws, as run metadata states it.
TRACE_SUBSTREAMS = "SeedSequence([seed mod 2^64, point-index]).generate_state(1, uint64)[0]"


def quantum_evolve(
    model: LindbladModel,
    rho0,
    times,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> PopulationTrace:
    """Propagate through the circuit pipeline and read out populations.

    One circuit per output time, built and run a chunk of times at once.
    ``run_exact`` is given the working-basis coordinates Q^T P† T†
    vec(rho0)/||vec(rho0)||.  ``mode="exact"`` maps back the conditioned
    amplitudes of the population rows alone and rescales them by the
    dilation scale, reproducing the classical result to rounding.
    ``mode="sampled"`` measures ``shots`` times per point (substream seed =
    ``substream_seed(seed, point_index)``) from the same amplitudes,
    postselects on the ancilla and estimates populations from the
    surviving counts.  The run asks ``_working_basis`` for the symmetry
    split, and is repeated on whole components if it raises ``LsvdError``
    on split ones (a split may drop more than ``expm``'s accuracy).
    """
    grid = _validated_times(times)
    for terms in (_terms(model), None):
        (runs,), working = _working_basis([_real_generator(model)], terms)
        chunks = _chain(runs, grid, _chunk_width(working[2]["block_runs"]))
        seeds = (substream_seed(seed, i) for i in range(grid.size))
        try:
            return _run_chunks(chunks, working, rho0, grid, model.labels, mode, shots, seeds)
        except LsvdError:
            if working[2]["block_runs"] == [[run.shape[-1], run.shape[0]] for run in runs]:
                raise  # the run was on whole components already


# The substream rule of evolve_family's draws, as a sweep's metadata states it.
SWEEP_SUBSTREAMS = (
    "SeedSequence([s mod 2^64, 0]).generate_state(1, uint64)[0] for s = "
    "SeedSequence([seed mod 2^64, orientation-index]).generate_state(1, uint64)[0]"
)


def evolve_family(anchors, weights, rho0, t, mode="exact", shots=DEFAULT_SHOTS, seed=0):
    """Propagate ``rho0`` to the one time ``t`` under each member of a family
    of generators of one dimension: the trace's row ``j`` is member ``j`` at
    time ``t``, and its generator is ``sum_i weights[j, i] G_i``, with
    ``G_i`` that of ``anchors[i]``.  The block partition is taken once, from
    the union of the anchors' patterns, and members run a chunk at a time; a
    row depends neither on the other members nor on the chunk it falls in.
    Row ``j`` equals what ``quantum_evolve`` gives for member ``j`` at
    ``[t]`` with the run seed ``substream_seed(seed, j)`` up to the rounding
    of its amplitudes, drawn from the same substream: the shared partition
    can be coarser than the member's own, so a sampled row can differ where
    that rounding lands in a bucket exactly zero in the one-point run.  The
    anchors share one dimension, one set of labels and one time unit.
    """
    dims = sorted({anchor.dim for anchor in anchors})
    if len(dims) != 1:
        raise ValueError(f"a family needs anchors of one dimension, got dimensions {dims}")
    kinds = sorted({(anchor.labels, anchor.time_unit) for anchor in anchors})
    if len(kinds) != 1:
        raise ValueError(f"a family needs anchors of one labelling and time unit, got {kinds}")
    w = as_matrix(weights, name="weights")
    if w.shape[0] < 1 or w.shape[1] != len(anchors):
        raise ValueError(f"weights has shape {w.shape}, expected (>= 1, {len(anchors)})")
    grid = _validated_times(np.full(w.shape[0], t))
    # no split asked for: a row must round as its member's one-point run does
    anchor_runs, working = _working_basis([_real_generator(anchor) for anchor in anchors])

    def propagators(rows: np.ndarray) -> list[np.ndarray]:
        stacks = []
        for runs in zip(*anchor_runs):
            # term by term, so that a row's sum is the same in any chunk
            stack = rows[:, 0, None, None, None] * runs[0]
            for weight, run in zip(rows.T[1:], runs[1:]):
                stack += weight[:, None, None, None] * run
            stacks.append(propagator(stack, grid[0]))
        return stacks

    width = _chunk_width(working[2]["block_runs"])
    chunks = (propagators(w[first : first + width]) for first in range(0, grid.size, width))
    seeds = (substream_seed(substream_seed(seed, j), 0) for j in range(grid.size))
    return _run_chunks(chunks, working, rho0, grid, anchors[0].labels, mode, shots, seeds)
