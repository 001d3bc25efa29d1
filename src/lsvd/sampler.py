"""Finite-shot readout of a register state.

A "shot" is one projective measurement of the full (ancilla + system)
register in the computational basis.  This module draws seeded multinomial
samples from a final statevector, postselects on the ancilla being |0>
(ancilla is the most significant qubit, so ancilla-0 outcomes are the
first half of the basis indices), and reconstructs level populations from
the surviving counts.

Population estimator
--------------------
The conditioned register state is proportional to the column-stacked
density matrix, so the amplitude at flat index ``i*(r+1)`` is proportional
to the diagonal entry ``rho[i, i]``.  Those entries are real and
non-negative, which means the measured probability at that index is
proportional to ``rho[i, i]**2``:

    raw_i = sqrt(count[i*(r+1)] / postselected_shots)   ∝ rho[i, i]

and normalizing ``raw`` to unit sum fixes the unknown proportionality
constant because the populations of a physical state sum to one.  The
square root makes the estimator slightly biased at low counts (E[sqrt(x)]
< sqrt(E[x])); with the default 2**19 shots the bias is far below the
statistical error.  Off-diagonal (coherence) indices are sampled and kept
in ``ShotResult.counts`` for diagnostics but play no role in the
estimator.  Because the estimate is normalized, it is invariant under the
dilation scale factor.

The functions here take a bare statevector and its counts and know nothing
of models or time grids; the pipeline folds their estimates into a
population trace.

Reproducibility: sampling uses numpy's counter-based Philox bit generator
("philox4x64").  Independent points of a run draw from substreams whose
keys hash the pair (seed, point_index) through ``numpy.random.SeedSequence``
(see ``substream_seed``), so results do not depend on execution order and
runs with neighbouring seeds share no stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroDiagonalError

#: Shot count used by the bundled experiments.
DEFAULT_SHOTS = 2**19

#: Name of the bit-generator algorithm, recorded in run metadata.
RNG_ALGORITHM = "philox4x64"

_MASK64 = (1 << 64) - 1


def substream_seed(seed: int, index: int) -> int:
    """Derive the 64-bit per-point substream seed from ``(seed, index)``.

    The rule is ``SeedSequence([seed mod 2**64, index]).generate_state(1,
    uint64)[0]``: a hash of the pair, so seed ``s`` at point ``i`` and seed
    ``s'`` at point ``i'`` share a stream only if ``(s, i) == (s', i')``
    (up to a 64-bit hash collision).
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    entropy = [int(seed) & _MASK64, int(index)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ShotResult:
    """Counts from measuring one final register state.

    ``counts`` maps basis index -> count (indices with zero count are
    omitted); ``postselected_shots`` is the total over ancilla-0 indices,
    i.e. the first half of the register basis.
    """

    shots: int
    counts: dict[int, int]
    postselected_shots: int
    seed: int


def sample(final_state, shots: int, seed: int) -> ShotResult:
    """Draw ``shots`` independent basis-state outcomes from ``|amplitude|**2``.

    Deterministic for a fixed seed.  The probability vector is normalized
    before drawing to absorb rounding drift in the state norm.
    """
    amps = np.asarray(final_state, dtype=np.complex128).ravel()
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(amps) ** 2
    total = probs.sum()
    if total <= 0:
        raise ValueError("final state has zero norm")
    probs /= total

    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    drawn = rng.multinomial(shots, probs)
    half = len(probs) // 2
    counts = {int(i): int(c) for i, c in enumerate(drawn) if c}
    return ShotResult(
        shots=int(shots),
        counts=counts,
        postselected_shots=int(drawn[:half].sum()),
        seed=int(seed) & _MASK64,
    )


def estimate_populations(result: ShotResult, r: int, k: int) -> np.ndarray:
    """Estimate the ``r`` level populations from postselected counts.

    See the module docstring for the estimator and its justification.

    Raises:
        ValueError: if no shot survived postselection.
        AllZeroDiagonalError: if postselected shots exist but none landed
            on a diagonal (population) index.
    """
    if result.postselected_shots <= 0:
        raise ValueError("no shots survived ancilla postselection")
    if r * r > 2**k:
        raise ValueError(f"r**2 = {r * r} does not fit a {k}-qubit system register")
    raw = np.empty(r, dtype=float)
    for i in range(r):
        raw[i] = np.sqrt(result.counts.get(i * (r + 1), 0) / result.postselected_shots)
    total = raw.sum()
    if total == 0.0:
        raise AllZeroDiagonalError(
            "no counts were observed on any diagonal index; populations are undefined"
        )
    return raw / total
