import numpy as np
import pytest

from lsvd.circuit import apply_circuit, build_svd_circuit
from lsvd.errors import AllZeroDiagonalError
from lsvd.lindblad import build_superoperator, classical_evolve, propagator, vectorize
from lsvd.models import FMOParams, fmo_model
from lsvd.sampler import (
    ShotResult,
    estimate_populations,
    sample,
    substream_seed,
)


def fmo3_final_state(t):
    model, rho0 = fmo_model(FMOParams.default(3))
    circuit = build_svd_circuit(propagator(build_superoperator(model), t))
    v0 = vectorize(rho0)
    state = np.zeros(64, dtype=complex)
    state[:25] = v0 / np.linalg.norm(v0)
    return model, rho0, circuit, apply_circuit(circuit, state)


class TestSample:
    def test_basis_state_all_counts_on_one_index(self):
        state = np.zeros(8)
        state[5] = 1.0
        result = sample(state, 1000, seed=3)
        assert result.counts == {5: 1000}
        assert result.shots == 1000
        assert result.postselected_shots == 0  # index 5 is an ancilla-1 outcome

    def test_uniform_superposition_within_binomial_band(self):
        shots = 2**19
        state = np.full(4, 0.5)
        result = sample(state, shots, seed=11)
        sigma = np.sqrt(shots * 0.25 * 0.75)
        for index in range(4):
            assert abs(result.counts[index] - shots / 4) < 5 * sigma
        assert result.postselected_shots == result.counts[0] + result.counts[1]

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
        np.testing.assert_array_equal(estimate_populations(result, 3, 4), [1.0, 0.0, 0.0])

    def test_maximally_mixed_two_level(self):
        # conditioned state proportional to vec(I/2) = (1/2, 0, 0, 1/2)
        state = np.zeros(8, dtype=complex)
        state[0] = 0.5
        state[3] = 0.5
        state[4] = np.sqrt(1 - 0.5)  # park the rest in the discarded branch
        result = sample(state, 2**17, seed=21)
        populations = estimate_populations(result, 2, 2)
        np.testing.assert_allclose(populations, [0.5, 0.5], atol=0.01)

    def test_fmo3_estimates_track_oracle(self):
        model, rho0, circuit, final = fmo3_final_state(200.0)
        result = sample(final, 2**19, seed=17)
        populations = estimate_populations(result, 5, circuit.k)
        oracle = classical_evolve(model, rho0, [200.0]).populations[0]
        assert np.max(np.abs(populations - oracle)) < 0.02

    def test_error_shrinks_with_shots(self):
        model, rho0, circuit, final = fmo3_final_state(500.0)
        oracle = classical_evolve(model, rho0, [500.0]).populations[0]
        errors = []
        for shots in (2**15, 2**17, 2**19):
            result = sample(final, shots, seed=23)
            populations = estimate_populations(result, 5, circuit.k)
            errors.append(np.max(np.abs(populations - oracle)))
        assert errors[2] < errors[0]
        assert errors[2] < 0.02

    def test_estimates_invariant_under_dilation_scale(self):
        model, rho0, circuit, final = fmo3_final_state(800.0)
        # with sigma_max already above 1, a hand-scaled propagator changes only
        # the recorded scale, not the normalized circuit
        assert circuit.scale > 1.0
        m = propagator(build_superoperator(model), 800.0)
        inflated = build_svd_circuit(3.0 * m)
        v0 = vectorize(rho0)
        state = np.zeros(64, dtype=complex)
        state[:25] = v0 / np.linalg.norm(v0)
        final_inflated = apply_circuit(inflated, state)
        a = estimate_populations(sample(final, 2**17, seed=29), 5, circuit.k)
        b = estimate_populations(sample(final_inflated, 2**17, seed=29), 5, inflated.k)
        # same seed and a distribution unchanged by the scale: identical counts
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_postselected_shots_rejected(self):
        result = ShotResult(shots=10, counts={9: 10}, postselected_shots=0, seed=0)
        with pytest.raises(ValueError, match="postselection"):
            estimate_populations(result, 2, 2)

    def test_all_zero_diagonal(self):
        result = ShotResult(shots=10, counts={1: 10}, postselected_shots=10, seed=0)
        with pytest.raises(AllZeroDiagonalError):
            estimate_populations(result, 2, 2)

    def test_register_too_small_rejected(self):
        result = ShotResult(shots=10, counts={0: 10}, postselected_shots=10, seed=0)
        with pytest.raises(ValueError, match="register"):
            estimate_populations(result, 3, 3)
