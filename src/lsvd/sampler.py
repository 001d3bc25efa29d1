"""Finite-shot readout of a register state.

A "shot" is one projective measurement of the full (ancilla + system)
register in the computational basis.  This module takes the ancilla-0
amplitudes ``c`` of a final statevector, the only ones postselection
keeps, and draws seeded multinomial samples over ``|c_i|²`` plus one
discard bucket of weight ``1 - ||c||²`` that stands for every ancilla-1
outcome.  The ancilla-1 amplitudes themselves are never needed, so the
counts cannot depend on them.  Level populations are reconstructed from
the counts that survive postselection.

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
square root biases low counts low (E[sqrt(x)] < sqrt(E[x])), and a level
reads exactly 0 unless rho[i, i] exceeds about scale * ||vec rho0|| /
sqrt(shots), 1.38e-3 for fmo3 at 5 fs and 2**19 shots.  Coherence indices
are sampled and kept in ``ShotResult.counts`` as numpy draws them, but
play no role in the estimator.  Because the estimate is normalized, it is
invariant under the dilation scale factor.

The functions here take bare amplitudes and their counts and know nothing
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

from .errors import LsvdError

#: Shot count used by the bundled experiments.
DEFAULT_SHOTS = 2**19

#: Name of the bit-generator algorithm, recorded in run metadata.
RNG_ALGORITHM = "philox4x64"

# Allowed rounding above one in the squared norm of the sampled amplitudes.
_WEIGHT_SLACK = 1e-10

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


def _check_shots(shots) -> None:
    """Refuse shots outside [1, 2**63), numpy's int64 counts, or not whole."""
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be between 1 and 2**63 - 1, got {shots}")
    if shots % 1:
        raise ValueError(f"shots must be a whole number, got {shots}")


@dataclass(frozen=True)
class ShotResult:
    """Counts from measuring one final register state.

    ``counts`` holds one int64 count per kept (ancilla-0) amplitude, in
    amplitude order, zeros included; ``postselected_shots`` is their
    total, and the remaining ``shots - postselected_shots`` were discarded.
    """

    shots: int
    counts: np.ndarray
    postselected_shots: int


def sample(conditioned, shots: int, seed: int) -> ShotResult:
    """Draw ``shots`` measurements of a register whose ancilla-0 amplitudes
    are ``conditioned``, keeping the ancilla-0 outcomes.

    The outcomes are ``rng.multinomial(shots, [|c_0|², ..., |c_m|²,
    1 - ||c||²])``; the last bucket is the discarded ancilla-1 outcome.
    Deterministic for a fixed seed.  A weight ``||c||²`` up to 1 + 1e-10 is
    rounding and is scaled back to one; a larger one, an amplitude that is
    not finite or a shot count ``_check_shots`` refuses raises ``ValueError``.
    """
    _check_shots(shots)
    amps = np.asarray(conditioned, dtype=np.complex128).ravel()
    if not np.isfinite(amps).all():
        raise ValueError("ancilla-0 amplitudes must be finite")
    probs = np.abs(amps) ** 2
    weight = probs.sum()
    if weight > 1.0 + _WEIGHT_SLACK:
        raise ValueError(f"ancilla-0 weight {weight!r} exceeds 1 beyond slack {_WEIGHT_SLACK}")
    probs /= max(1.0, weight)

    rng = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    kept = rng.multinomial(shots, np.append(probs, max(0.0, 1.0 - weight)))[:-1]
    return ShotResult(shots=int(shots), counts=kept, postselected_shots=int(kept.sum()))


def estimate_populations(result: ShotResult, r: int) -> np.ndarray:
    """Estimate the ``r`` level populations from postselected counts.

    See the module docstring for the estimator and its justification.

    Raises:
        ValueError: if fewer than r² counts are given, or if no shot
            survived postselection.
        LsvdError: if postselected shots exist but none landed
            on a diagonal (population) index.
    """
    if len(result.counts) < r * r:
        raise ValueError(f"need {r * r} counts for {r} levels, got {len(result.counts)}")
    if result.postselected_shots <= 0:
        raise ValueError("no shots survived ancilla postselection")
    raw = np.sqrt(result.counts[: r * r : r + 1] / result.postselected_shots)
    total = raw.sum()
    if total == 0.0:
        raise LsvdError(
            "no counts were observed on any diagonal index; populations are undefined"
        )
    return raw / total
