import numpy as np
import pytest
import scipy.stats

from lsvd.circuit import build_svd_circuit, run_exact
from lsvd.errors import LsvdError
from lsvd.lindblad import build_superoperator, propagator, vectorize
from lsvd.models import FMOParams, fmo_model
from lsvd.pipeline import quantum_evolve
from lsvd.sampler import (
    DEFAULT_SHOTS,
    ShotResult,
    estimate_populations,
    sample,
    substream_seed,
)

from conftest import reference_populations


def conditioned_amplitudes(circuit, rho0):
    """The 25 ancilla-0 amplitudes of an fmo3 circuit run on vec(rho0)."""
    v0 = vectorize(rho0)
    conditioned, _ = run_exact(circuit, v0 / np.linalg.norm(v0))
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
        assert result.counts.dtype == np.int64
        np.testing.assert_array_equal(result.counts, [0, 0, 1000, 0])
        assert result.shots == 1000
        assert result.postselected_shots == 1000
        # no ancilla-0 weight: every shot lands in the discard bucket
        discarded = sample(np.zeros(4), 1000, seed=3)
        np.testing.assert_array_equal(discarded.counts, np.zeros(4))
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
        assert result.postselected_shots == result.counts.sum()
        # one count per kept amplitude: the discard bucket is not among them
        assert result.counts.shape == (25,)

    def test_weight_above_one_rejected(self):
        state = np.full(4, 0.5)
        sample(state * np.sqrt(1.0 + 1e-11), 64, seed=0)  # rounding is accepted
        with pytest.raises(ValueError, match="ancilla-0 weight .* exceeds 1"):
            sample(state * np.sqrt(1.0 + 1e-9), 64, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_amplitude_rejected(self, bad):
        state = np.full(4, 0.5, dtype=complex)
        state[1] = bad
        with pytest.raises(ValueError, match="^ancilla-0 amplitudes must be finite$"):
            sample(state, 64, seed=0)

    @pytest.mark.parametrize(
        "shots, message",
        [
            (0, r"shots must be between 1 and 2\*\*63 - 1, got 0"),
            (-3, r"shots must be between 1 and 2\*\*63 - 1, got -3"),
            (0.5, r"shots must be between 1 and 2\*\*63 - 1, got 0.5"),
            (2**63, r"shots must be between 1 and 2\*\*63 - 1, got 9223372036854775808"),
            (
                np.float64(2**63),  # equal, as a float64, to 2**63 - 1
                r"shots must be between 1 and 2\*\*63 - 1, got 9.223372036854776e\+18",
            ),
            (1000.7, "shots must be a whole number, got 1000.7"),
            (1.5, "shots must be a whole number, got 1.5"),
            (np.float64(2.25), "shots must be a whole number, got 2.25"),
        ],
        ids=[
            "zero", "negative", "half", "above-int64", "numpy-above-int64",
            "fraction", "one-and-a-half", "numpy-fraction",
        ],
    )
    def test_bad_shot_count_rejected(self, shots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample(np.array([0.6, 0.8]), shots, seed=0)

    def test_whole_float_shots_draw_that_many(self):
        as_float, as_int = (sample(np.array([0.6, 0.8]), shots, seed=0) for shots in (1e5, 100_000))
        assert as_float.shots == 100_000 and as_float.counts.sum() == 100_000
        np.testing.assert_array_equal(as_float.counts, as_int.counts)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(5)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        first = sample(state, 4096, seed=99)
        second = sample(state, 4096, seed=99)
        np.testing.assert_array_equal(first.counts, second.counts)

    def test_different_seeds_differ(self):
        state = np.full(4, 0.5)
        first, second = sample(state, 4096, seed=1), sample(state, 4096, seed=2)
        assert not np.array_equal(first.counts, second.counts)

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(6)
        state = rng.normal(size=32) + 1j * rng.normal(size=32)
        state /= np.linalg.norm(state)
        result = sample(state, 12345, seed=0)
        assert result.counts.sum() == 12345

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
        counts = np.zeros(9, dtype=np.int64)
        counts[0] = 100
        result = ShotResult(shots=100, counts=counts, postselected_shots=100)
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
        oracle = reference_populations(model, rho0, [200.0])[0]
        assert np.max(np.abs(populations - oracle)) < 0.02
        # the per-level loop the diagonal slice replaced, in Python integers
        raw = [np.sqrt(int(result.counts[i * 6]) / result.postselected_shots) for i in range(5)]
        np.testing.assert_array_equal(populations, np.array(raw) / np.sum(raw))

    def test_error_shrinks_with_shots(self):
        model, rho0, circuit, conditioned = fmo3_conditioned(500.0)
        oracle = reference_populations(model, rho0, [500.0])[0]
        errors = []
        for shots in (2**15, 2**17, 2**19):
            result = sample(conditioned, shots, seed=23)
            populations = estimate_populations(result, 5)
            errors.append(np.max(np.abs(populations - oracle)))
        assert errors[2] < errors[0]
        assert errors[2] < 0.02

    def test_levels_below_the_floor_read_zero(self):
        # the documented floor scale * ||vec rho0|| / sqrt(shots): at 5 fs the
        # ground (5.0e-6), site3 (2.5e-5) and sink (4.0e-8) populations lie
        # far below it and read exactly 0 in every seed; site1 and site2 lie
        # above it and are observed
        model, rho0 = fmo_model(FMOParams.default(3))
        exact = quantum_evolve(model, rho0, [5.0])
        floor = exact.scales[0] * np.linalg.norm(vectorize(rho0)) / np.sqrt(DEFAULT_SHOTS)
        assert DEFAULT_SHOTS == 2**19 and floor == pytest.approx(1.38e-3, rel=1e-2)
        below = exact.populations[0] < floor / 10
        assert [label for label, low in zip(model.labels, below) if low] == ["ground", "site3", "sink"]
        assert np.all(exact.populations[0, ~below] > 5 * floor)
        for seed in range(5):
            sampled = quantum_evolve(model, rho0, [5.0], mode="sampled", seed=seed)
            assert np.all(sampled.populations[0, below] == 0.0)
            assert np.all(sampled.populations[0, ~below] > 0.0)

    @pytest.mark.parametrize("t", [5.0, 100.0, 500.0, 2000.0])
    def test_ensemble_of_seeds_is_calibrated(self, t):
        """K = 2000 seeds of fmo3 at 2**19 shots, against the estimator's own
        statistics.  Level i's count is Binomial(N, a_i²) for its ancilla-0
        amplitude a_i, and its population p_i = a_i / sum(a), whose ratio to
        the floor scale * ||vec rho0|| / sqrt(N) is sqrt(N) a_i.

        Above 5 floors, the K-seed mean must lie within 4 s / sqrt(K) (s the
        seeds' standard deviation) plus r / (N sum(a)²) of E[sqrt(c_i)] /
        sum_j E[sqrt(c_j)], the expectations summed exactly over the binomial:
        the square-root bias to first order in the normaliser's fluctuation,
        whose second order the last term bounds.  Below a tenth of the floor
        a level draws a count in a seed with probability 1 - (1 - a_i²)^N,
        and reads exactly 0 otherwise; the seeds in which such levels read
        non-zero, lambda expected, must number at most lambda + 4
        sqrt(lambda) + 4.  Between the two the bias is of the order of the
        level itself, as documented, and nothing is checked.
        """
        seeds, r, shots = 2000, 5, DEFAULT_SHOTS
        _, rho0, circuit, conditioned = fmo3_conditioned(t)
        amps = np.abs(conditioned[: r * r : r + 1])
        floor = circuit.scale * np.linalg.norm(vectorize(rho0)) / np.sqrt(shots)
        np.testing.assert_allclose(amps / amps.sum() / floor, np.sqrt(shots) * amps)
        above, below = np.sqrt(shots) * amps > 5, np.sqrt(shots) * amps < 0.1
        assert above.sum() >= 2
        runs = np.array([
            estimate_populations(sample(conditioned, shots, seed=k), r)
            for k in range(seeds)
        ])

        def mean_sqrt_count(q):  # over 12 standard deviations each side
            mean, sd = shots * q, np.sqrt(shots * q * (1 - q))
            k = np.arange(max(0, int(mean - 12 * sd) - 1), int(mean + 12 * sd) + 2)
            return np.sqrt(k) @ scipy.stats.binom.pmf(k, shots, q)

        expected = np.array([mean_sqrt_count(a * a) for a in amps])
        expected /= expected.sum()
        bound = 4 * runs.std(axis=0, ddof=1) / np.sqrt(seeds) + r / (shots * amps.sum() ** 2)
        np.testing.assert_array_less(np.abs(runs.mean(axis=0) - expected)[above], bound[above])
        lam = seeds * np.sum(1 - (1 - amps[below] ** 2) ** shots)
        assert np.count_nonzero(runs[:, below]) <= lam + 4 * np.sqrt(lam) + 4

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
        result = ShotResult(shots=10, counts=np.zeros(4, dtype=np.int64), postselected_shots=0)
        with pytest.raises(ValueError, match="postselection"):
            estimate_populations(result, 2)

    def test_all_zero_diagonal(self):
        counts = np.array([0, 10, 0, 0], dtype=np.int64)
        result = ShotResult(shots=10, counts=counts, postselected_shots=10)
        with pytest.raises(LsvdError, match="no counts were observed on any diagonal index"):
            estimate_populations(result, 2)

    def test_fewer_than_r_squared_counts_rejected(self):
        # a missing diagonal index must not read as a zero count
        counts = np.array([5, 0, 0, 5, 0, 0, 0, 0], dtype=np.int64)
        result = ShotResult(shots=10, counts=counts, postselected_shots=10)
        with pytest.raises(ValueError, match="need 9 counts for 3 levels, got 8"):
            estimate_populations(result, 3)
