import numpy as np
import pytest

from lsvd.circuit import build_svd_circuit, run_exact
from lsvd.errors import AllZeroDiagonalError
from lsvd.lindblad import build_superoperator, classical_evolve, propagator, vectorize
from lsvd.models import FMOParams, fmo_model
from lsvd.sampler import (
    ShotResult,
    estimate_populations,
    sample,
    substream_seed,
)


def conditioned_amplitudes(circuit, rho0):
    """The 25 ancilla-0 amplitudes of an fmo3 circuit run on vec(rho0)."""
    v0 = vectorize(rho0)
    state = np.zeros(2 * circuit.n, dtype=complex)
    state[:25] = v0 / np.linalg.norm(v0)
    conditioned, _ = run_exact(circuit, state)
    return conditioned[:25]


def fmo3_conditioned(t):
    model, rho0 = fmo_model(FMOParams.default(3))
    circuit = build_svd_circuit(propagator(build_superoperator(model), t))
    return model, rho0, circuit, conditioned_amplitudes(circuit, rho0)


class TestSample:
    def test_basis_state_all_counts_on_one_index(self):
        state = np.zeros(4)
        state[2] = 1.0
        result = sample(state, 1000, seed=3)
        assert result.counts == {2: 1000}
        assert result.shots == 1000
        assert result.postselected_shots == 1000
        # no ancilla-0 weight: every shot lands in the discard bucket
        discarded = sample(np.zeros(4), 1000, seed=3)
        assert discarded.counts == {}
        assert discarded.postselected_shots == 0

    def test_uniform_superposition_within_binomial_band(self):
        shots = 2**19
        state = np.full(4, 0.5)
        result = sample(state, shots, seed=11)
        sigma = np.sqrt(shots * 0.25 * 0.75)
        for index in range(4):
            assert abs(result.counts[index] - shots / 4) < 5 * sigma
        assert result.postselected_shots == shots

    def test_postselected_within_binomial_band_of_weight(self):
        shots = 2**19
        rng = np.random.default_rng(12)
        state = rng.normal(size=25) + 1j * rng.normal(size=25)
        state *= np.sqrt(0.3) / np.linalg.norm(state)
        result = sample(state, shots, seed=13)
        sigma = np.sqrt(shots * 0.3 * 0.7)
        assert abs(result.postselected_shots - 0.3 * shots) < 5 * sigma
        assert result.postselected_shots == sum(result.counts.values())
        assert max(result.counts) < 25

    def test_weight_above_one_rejected(self):
        state = np.full(4, 0.5)
        sample(state * np.sqrt(1.0 + 1e-11), 64, seed=0)  # rounding is accepted
        with pytest.raises(ValueError, match="ancilla-0 weight .* exceeds 1"):
            sample(state * np.sqrt(1.0 + 1e-9), 64, seed=0)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(5)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        first = sample(state, 4096, seed=99)
        second = sample(state, 4096, seed=99)
        assert first.counts == second.counts

    def test_different_seeds_differ(self):
        state = np.full(4, 0.5)
        assert sample(state, 4096, seed=1).counts != sample(state, 4096, seed=2).counts

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(6)
        state = rng.normal(size=32) + 1j * rng.normal(size=32)
        state /= np.linalg.norm(state)
        result = sample(state, 12345, seed=0)
        assert sum(result.counts.values()) == 12345

    def test_substream_seeds(self):
        expected = np.random.SeedSequence([7, 3]).generate_state(1, np.uint64)[0]
        assert substream_seed(7, 3) == int(expected)
        assert substream_seed(-1, 0) == substream_seed(2**64 - 1, 0)
        assert 0 <= substream_seed(-1, 5) < 2**64
        with pytest.raises(ValueError):
            substream_seed(7, -1)

    def test_neighbouring_seeds_share_no_substream(self):
        assert substream_seed(0, 1) != substream_seed(1, 0)
        pairs = [(seed, index) for seed in range(8) for index in range(64)]
        assert len({substream_seed(seed, index) for seed, index in pairs}) == len(pairs)


class TestEstimatePopulations:
    def test_all_mass_on_first_level(self):
        result = ShotResult(shots=100, counts={0: 100}, postselected_shots=100, seed=0)
        np.testing.assert_array_equal(estimate_populations(result, 3), [1.0, 0.0, 0.0])

    def test_maximally_mixed_two_level(self):
        # conditioned state proportional to vec(I/2) = (1/2, 0, 0, 1/2); the
        # missing half of the weight is the discarded branch
        state = np.array([0.5, 0.0, 0.0, 0.5], dtype=complex)
        result = sample(state, 2**17, seed=21)
        populations = estimate_populations(result, 2)
        np.testing.assert_allclose(populations, [0.5, 0.5], atol=0.01)

    def test_fmo3_estimates_track_oracle(self):
        model, rho0, circuit, conditioned = fmo3_conditioned(200.0)
        result = sample(conditioned, 2**19, seed=17)
        populations = estimate_populations(result, 5)
        oracle = classical_evolve(model, rho0, [200.0]).populations[0]
        assert np.max(np.abs(populations - oracle)) < 0.02

    def test_error_shrinks_with_shots(self):
        model, rho0, circuit, conditioned = fmo3_conditioned(500.0)
        oracle = classical_evolve(model, rho0, [500.0]).populations[0]
        errors = []
        for shots in (2**15, 2**17, 2**19):
            result = sample(conditioned, shots, seed=23)
            populations = estimate_populations(result, 5)
            errors.append(np.max(np.abs(populations - oracle)))
        assert errors[2] < errors[0]
        assert errors[2] < 0.02

    def test_estimates_invariant_under_dilation_scale(self):
        model, rho0, circuit, conditioned = fmo3_conditioned(800.0)
        # with sigma_max already above 1, a hand-scaled propagator changes only
        # the recorded scale, not the normalized circuit
        assert circuit.scale > 1.0
        m = propagator(build_superoperator(model), 800.0)
        inflated = conditioned_amplitudes(build_svd_circuit(3.0 * m), rho0)
        a = estimate_populations(sample(conditioned, 2**17, seed=29), 5)
        b = estimate_populations(sample(inflated, 2**17, seed=29), 5)
        # same seed and a distribution unchanged by the scale: identical counts
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_postselected_shots_rejected(self):
        result = ShotResult(shots=10, counts={}, postselected_shots=0, seed=0)
        with pytest.raises(ValueError, match="postselection"):
            estimate_populations(result, 2)

    def test_all_zero_diagonal(self):
        result = ShotResult(shots=10, counts={1: 10}, postselected_shots=10, seed=0)
        with pytest.raises(AllZeroDiagonalError):
            estimate_populations(result, 2)
