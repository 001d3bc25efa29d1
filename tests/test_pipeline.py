import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsvd.circuit
import lsvd.pipeline
from lsvd.errors import LsvdError
from lsvd.lindblad import Channel, LindbladModel, build_superoperator, propagator
from lsvd.models import (
    RPM_DEFAULT_HYPERFINE_AZ,
    RPMParams,
    builtin_model,
    rpm_model,
    theta_sweep,
)
from lsvd.pipeline import classical_evolve, quantum_evolve, qubit_counts

from conftest import (
    force_chunk_width,
    mpmath_populations,
    ode_populations,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    reference_populations,
    reference_states,
)

# t0 > 0, a repeated time (a zero gap) and a 1e-9 gap
IRREGULAR_GRID = np.array([0.5, 0.5, 0.8, 0.81, 3.0, 3.0 + 1e-9, 7.0])
RPM_GRID = np.arange(572) * 1.75e-3
# sizes of the decoupled blocks of each bundled model's real generator
BLOCK_SIZES = {
    "fmo3": [11, 6, 6, 1, 1],
    "fmo7": [51, 14, 14, 1, 1],
    "rpm": [34, 32, 8, 8, 8, 8, 1, 1],
    "rpm-dissipative": [34, 32, 8, 8, 8, 8, 1, 1],
}


def _no_propagator(*args, **kwargs):
    raise AssertionError("input was not checked before the first propagator")


class TestInputChecks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "nonsense"}, "mode must be"),
            ({"mode": "sampled", "shots": 0}, "shots must be"),
            ({"mode": "sampled", "shots": 2**63}, r"shots must be between 1 and 2\*\*63 - 1"),
            ({"mode": "sampled", "shots": 1000.7}, "shots must be a whole number, got 1000.7"),
            ({"rho0": np.zeros((5, 5))}, "rho0 must be non-zero"),
            ({"rho0": np.eye(3) / 3}, r"rho0 has shape \(3, 3\), expected \(5, 5\)"),
        ],
        ids=["bad-mode", "no-shots", "shots-above-int64", "fractional-shots", "zero-rho0", "rho0-shape"],
    )
    def test_rejected_before_any_propagator(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        kwargs = {"rho0": rho0, **kwargs}
        with pytest.raises(ValueError, match=message):
            quantum_evolve(model, times=np.arange(401) * 5.0, **kwargs)
        with pytest.raises(ValueError, match=message):
            lsvd.pipeline.evolve_family([model], np.ones((3, 1)), t=5.0, **kwargs)
        if kwargs.keys() == {"rho0"}:  # classical_evolve has no mode or shots
            with pytest.raises(ValueError, match=message):
                classical_evolve(model, times=np.arange(401) * 5.0, **kwargs)

    @pytest.mark.parametrize("evolve", [quantum_evolve, classical_evolve])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected_before_any_propagator(
        self, monkeypatch, evolve, bad
    ):
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        with pytest.raises(ValueError, match="times must be finite"):
            evolve(model, rho0, [0.0, bad])

    @pytest.mark.parametrize("evolve", [quantum_evolve, classical_evolve])
    @pytest.mark.parametrize(
        "times, message",
        [([], "times must be non-empty"), ([-1.0, 0.0], "times must be non-negative")],
        ids=["empty", "negative"],
    )
    def test_bad_grid_rejected_before_any_propagator(self, monkeypatch, evolve, times, message):
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        with pytest.raises(ValueError, match=message):
            evolve(model, rho0, times)

    @pytest.mark.parametrize("names", [[], ["fmo3", "fmo7"]], ids=["no-anchors", "two-dimensions"])
    def test_family_of_no_one_dimension_rejected_before_any_generator(self, monkeypatch, names):
        monkeypatch.setattr(lsvd.pipeline, "build_superoperator", _no_propagator)
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        anchors = [builtin_model(name)[0] for name in names]
        dims = sorted({anchor.dim for anchor in anchors})
        _, rho0 = builtin_model("fmo3")
        message = f"a family needs anchors of one dimension, got dimensions {dims}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lsvd.pipeline.evolve_family(anchors, np.ones((2, len(anchors))), rho0, 1.0)

    @pytest.mark.parametrize(
        "labels, time_unit",
        [(("L0", "L1", "L2", "L3", "L4"), "fs"), (None, "ps"), (("L0", "L1", "L2", "L3", "L4"), "ps")],
        ids=["labels", "time-unit", "both"],
    )
    def test_family_of_mixed_labels_or_units_rejected_before_any_generator(
        self, monkeypatch, labels, time_unit
    ):
        monkeypatch.setattr(lsvd.pipeline, "build_superoperator", _no_propagator)
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        fmo3, rho0 = builtin_model("fmo3")
        other = LindbladModel(fmo3.hamiltonian, fmo3.channels, labels or fmo3.labels, time_unit)
        kinds = sorted({(fmo3.labels, "fs"), (other.labels, time_unit)})
        message = f"a family needs anchors of one labelling and time unit, got {kinds}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lsvd.pipeline.evolve_family([fmo3, other], np.eye(2), rho0, 5.0)

    def test_whole_float_shots_run_as_their_integer(self):
        model, rho0 = builtin_model("fmo3")

        def rows(shots):
            kwargs = {"rho0": rho0, "mode": "sampled", "shots": shots, "seed": 1}
            traces = (
                quantum_evolve(model, times=[0.0, 5.0], **kwargs),
                lsvd.pipeline.evolve_family([model], np.ones((2, 1)), t=5.0, **kwargs),
            )
            return [np.concatenate([t.populations.T, [t.success_prob]]).tobytes() for t in traces]

        assert rows(1e5) == rows(100_000)

class TestOneLevelModel:
    def test_exact_trace_matches_oracle(self):
        model = LindbladModel(hamiltonian=[[0.3]], channels=())
        assert qubit_counts(model.dim) == (1, 2)
        times = np.arange(5) * 0.5
        quantum = quantum_evolve(model, [[1.0]], times)
        reference = reference_populations(model, [[1.0]], times)
        np.testing.assert_allclose(quantum.populations, reference, atol=1e-12)
        np.testing.assert_allclose(quantum.success_prob, 1.0, atol=1e-12)


class TestPropagatorChain:
    def test_irregular_grid_matches_oracle_fmo3(self):
        model, rho0 = builtin_model("fmo3")
        times = IRREGULAR_GRID * 100.0  # fs
        reference = reference_populations(model, rho0, times)
        for evolve in (quantum_evolve, classical_evolve):
            trace = evolve(model, rho0, times)
            np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    def test_irregular_grid_matches_oracle_random_model(self, rng):
        model = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        reference = reference_populations(model, rho0, IRREGULAR_GRID)
        for evolve in (quantum_evolve, classical_evolve):
            trace = evolve(model, rho0, IRREGULAR_GRID)
            np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    def test_one_expm_per_distinct_gap(self, monkeypatch, rng):
        calls = []
        real = lsvd.pipeline.propagator

        def counting(superop, t):
            calls.append(t)
            return real(superop, t)

        monkeypatch.setattr(lsvd.pipeline, "propagator", counting)
        quantum_evolve(random_model(rng, 2), random_density(rng, 2), RPM_GRID)
        expected = 1 + len(set(np.diff(RPM_GRID).tolist()))
        assert expected == 12
        assert len(calls) == expected


def direct_sum_model(rng, r1, r2):
    """Two random sub-models placed as a direct sum on r1 + r2 levels, with
    the levels shuffled, so G has at least two decoupled blocks that are
    not contiguous in the Hermitian basis."""
    first, second = random_model(rng, r1), random_model(rng, r2, n_channels=1)
    perm = rng.permutation(r1 + r2)

    def embed(a, b):
        return scipy.linalg.block_diag(a, b)[np.ix_(perm, perm)]

    zero1, zero2 = np.zeros((r1, r1)), np.zeros((r2, r2))
    channels = [Channel(embed(ch.operator, zero2), ch.rate) for ch in first.channels]
    channels += [Channel(embed(zero1, ch.operator), ch.rate) for ch in second.channels]
    return LindbladModel(
        hamiltonian=embed(first.hamiltonian, second.hamiltonian), channels=tuple(channels)
    )


class TestDecoupledBlocks:
    @pytest.mark.parametrize("name", sorted(BLOCK_SIZES))
    def test_bundled_generators_are_exactly_block_diagonal(self, name):
        model, _ = builtin_model(name)
        generator = lsvd.pipeline._real_generator(model)
        components = lsvd.pipeline._decoupled_blocks(generator)
        sizes = [c.size for c in components]
        assert sizes == BLOCK_SIZES[name]
        order = np.concatenate(components)
        np.testing.assert_array_equal(np.sort(order), np.arange(generator.shape[0]))
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        off_blocks = block_of[:, None] != block_of[None, :]
        assert np.all(generator[np.ix_(order, order)][off_blocks] == 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(r=st.integers(2, 4), split=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(r=2, split=1, seed=0)  # two one-level models: components of 2, 1 and 1
    @example(r=4, split=3, seed=2**32 - 1)  # three levels and one: 9, 6 and 1
    def test_direct_sum_models_match_oracle(self, r, split, seed):
        rng = np.random.default_rng(seed)
        r1 = min(split, r - 1)
        model = direct_sum_model(rng, r1, r - r1)
        rho0 = random_density(rng, r)
        generator = lsvd.pipeline._real_generator(model)
        assert len(lsvd.pipeline._decoupled_blocks(generator)) >= 2
        quantum = quantum_evolve(model, rho0, IRREGULAR_GRID)
        reference = reference_populations(model, rho0, IRREGULAR_GRID)
        np.testing.assert_allclose(quantum.populations, reference, atol=1e-10, rtol=0)


class TestMemory:
    @staticmethod
    def peak_bytes(model, rho0, times):
        tracemalloc.start()
        try:
            quantum_evolve(model, rho0, times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_grid_length(self):
        model, rho0 = builtin_model("fmo7")  # n = 128
        short = self.peak_bytes(model, rho0, np.arange(16) * 5.0)
        long = self.peak_bytes(model, rho0, np.arange(64) * 5.0)
        assert long - short <= 2**20, f"peak grew from {short} to {long} bytes"

    def test_peak_does_not_grow_with_the_widest_chunk(self):
        model, rho0 = builtin_model("rpm")  # 32 points per chunk
        quantum_evolve(model, rho0, RPM_GRID[:1])  # one-time allocations
        short = self.peak_bytes(model, rho0, RPM_GRID[:64])
        long = self.peak_bytes(model, rho0, RPM_GRID[:256])
        assert long - short <= 2**20, f"peak grew from {short} to {long} bytes"

    def test_distinct_gaps_cache_no_steps(self):
        model, rho0 = builtin_model("fmo7")
        # geometric grids: every gap differs, so no step outlives its one use
        short = self.peak_bytes(model, rho0, np.geomspace(1.0, 2000.0, 16))
        long = self.peak_bytes(model, rho0, np.geomspace(1.0, 2000.0, 64))
        assert long - short <= 2**20, f"peak grew from {short} to {long} bytes"


class TestSampledSubstreams:
    def test_neighbouring_seeds_give_different_points(self):
        model, rho0 = builtin_model("fmo3")

        def run(seed):
            # two points at one time: equal estimates would mean one shared stream
            trace = quantum_evolve(
                model, rho0, [300.0, 300.0], mode="sampled", shots=4096, seed=seed
            )
            return trace.populations

        seed0, seed1 = run(0), run(1)
        assert not np.array_equal(seed0[1], seed1[0])
        assert not np.array_equal(seed0[0], seed1[1])

    def test_seeds_draw_independent_counts(self, monkeypatch):
        """Runs with different seeds draw uncorrelated counts.

        Each bucket's count with probability p = |c|² > 1e-6 is standardized
        as z = (count - shots p) / sqrt(shots p (1 - p)).  The amplitudes do
        not depend on the seed, so two runs give z over the same N buckets;
        if their draws are independent, mean(z_a z_b) has mean 0 and a
        standard deviation of about 1/sqrt(N), and each of the 15 pairs of
        six seeds must stay within 5/sqrt(N).  Population errors are not
        tested: the square-root estimator's bias is the same in every run.
        A substream rule that ignores the seed must fail the bound.
        """
        model, rho0 = builtin_model("fmo3")
        real_sample = lsvd.pipeline.sample

        def standardized_counts(seed):
            z = []

            def recording_sample(vec, shots, substream):
                result = real_sample(vec, shots, substream)
                p = np.abs(vec) ** 2
                kept = p > 1e-6
                spread = np.sqrt(shots * p[kept] * (1.0 - p[kept]))
                z.append((result.counts[kept] - shots * p[kept]) / spread)
                return result

            with monkeypatch.context() as patch:
                patch.setattr(lsvd.pipeline, "sample", recording_sample)
                times = np.arange(400) * 5.0
                quantum_evolve(model, rho0, times, mode="sampled", shots=4096, seed=seed)
            return np.concatenate(z)

        z = np.stack([standardized_counts(seed) for seed in range(6)])
        bound = 5.0 / np.sqrt(z.shape[1])
        products = [np.mean(a * b) for a, b in itertools.combinations(z, 2)]
        assert max(np.abs(products)) < bound

        real_substream_seed = lsvd.pipeline.substream_seed
        monkeypatch.setattr(
            lsvd.pipeline, "substream_seed", lambda seed, index: real_substream_seed(0, index)
        )
        shared = np.stack([standardized_counts(seed) for seed in (1, 2)])
        assert np.mean(shared[0] * shared[1]) > bound


def dense_hermitian_basis(r):
    """T with columns vec(F_b), straight from the basis definition: E_ii at
    the index of (i, i); for i < j, (E_ij + E_ji)/sqrt(2) at the index of
    (i, j) and i (E_ij - E_ji)/sqrt(2) at the index of (j, i)."""
    def vec(m):
        return m.flatten(order="F")

    def unit(i, j):
        e = np.zeros((r, r), dtype=complex)
        e[i, j] = 1.0
        return e

    t = np.zeros((r * r, r * r), dtype=complex)
    for i in range(r):
        t[:, i * r + i] = vec(unit(i, i))
        for j in range(i + 1, r):
            t[:, j * r + i] = vec(unit(i, j) + unit(j, i)) / np.sqrt(2.0)
            t[:, i * r + j] = vec(1j * (unit(i, j) - unit(j, i))) / np.sqrt(2.0)
    return t


class TestHermitianBasis:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_index_arithmetic_matches_dense_basis(self, r):
        t = dense_hermitian_basis(r)
        eye = np.eye(r * r)
        np.testing.assert_allclose(t.conj().T @ t, eye, atol=1e-15)
        populations = np.arange(r) * (r + 1)
        np.testing.assert_array_equal(t[:, populations], eye[:, populations])
        np.testing.assert_allclose(lsvd.pipeline._from_hermitian_basis(eye, r), t, atol=1e-16)
        np.testing.assert_allclose(
            lsvd.pipeline._to_hermitian_basis(eye, r), t.conj().T, atol=1e-16
        )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        r=st.integers(1, 4),
        n_channels=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        gaps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    # one level: L is pure rounding, 2.7e-15 real and 2.0e-16 imaginary
    @example(r=1, n_channels=3, seed=3, gaps=[1.0, 0.0])
    # no channel: unitary dynamics on the largest model, from a repeated t = 0
    @example(r=4, n_channels=0, seed=0, gaps=[0.0, 1.0])
    def test_random_models_real_generator_and_oracle(self, r, n_channels, seed, gaps):
        rng = np.random.default_rng(seed)
        model = random_model(rng, r, n_channels=n_channels)
        rho0 = random_density(rng, r)
        t = dense_hermitian_basis(r)
        rotated = t.conj().T @ build_superoperator(model) @ t
        terms = np.linalg.norm(model.hamiltonian) + sum(
            ch.rate * np.linalg.norm(ch.operator) ** 2 for ch in model.channels
        )
        assert np.max(np.abs(rotated.imag)) <= 1e-13 * terms
        generator = lsvd.pipeline._real_generator(model)
        assert generator.dtype == np.float64
        np.testing.assert_allclose(generator, rotated.real, atol=1e-13 * terms)
        # t = 0 first, then non-uniform gaps (zero gaps included)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        reference = reference_populations(model, rho0, times)
        for evolve in (quantum_evolve, classical_evolve):
            trace = evolve(model, rho0, times)
            np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    def test_imaginary_generator_rejected_before_any_propagator(self, monkeypatch):
        real_build = lsvd.pipeline.build_superoperator

        def not_hermiticity_preserving(model):
            superop = real_build(model)
            return superop + 1j * np.eye(superop.shape[0])

        monkeypatch.setattr(lsvd.pipeline, "build_superoperator", not_hermiticity_preserving)
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        with pytest.raises(LsvdError, match="does not preserve Hermiticity"):
            quantum_evolve(model, rho0, [0.0, 5.0])

    def test_sampled_register_holds_column_stacked_state(self, monkeypatch):
        # populations alone cannot see T on the output: check the coherences
        registers = []
        real_sample = lsvd.pipeline.sample

        def recording_sample(amps, shots, seed):
            registers.append(amps.copy())
            return real_sample(amps, shots, seed)

        monkeypatch.setattr(lsvd.pipeline, "sample", recording_sample)
        model, rho0 = builtin_model("fmo3")
        times = [0.0, 150.0, 700.0]
        trace = quantum_evolve(model, rho0, times, mode="sampled", shots=64)
        states = reference_states(model, rho0, times)
        norm = np.linalg.norm(rho0)
        for amps, scale, rho_t in zip(registers, trace.scales, states):
            np.testing.assert_allclose(
                amps[:25] * scale * norm, rho_t.flatten(order="F"), atol=1e-12
            )

    def test_sampled_readout_draws_from_the_ancilla_0_amplitudes(self, monkeypatch):
        # the sampler sees only the r² kept amplitudes, whose weight is the
        # exact-mode success probability; the discarded branch never reaches it
        shapes, weights = [], []
        real_sample = lsvd.pipeline.sample

        def recording_sample(amps, shots, seed):
            shapes.append(amps.shape)
            weights.append(float(np.vdot(amps, amps).real))
            return real_sample(amps, shots, seed)

        monkeypatch.setattr(lsvd.pipeline, "sample", recording_sample)
        model, rho0 = builtin_model("fmo3")
        times = [0.0, 150.0, 700.0, 2000.0]
        quantum_evolve(model, rho0, times, mode="sampled", shots=64)
        exact = quantum_evolve(model, rho0, times)
        assert shapes == [(25,)] * len(times)
        np.testing.assert_allclose(weights, exact.success_prob, atol=1e-12, rtol=0)

    def test_only_sampled_readout_maps_the_coherences(self, monkeypatch):
        # T is the identity on population indices, so exact readout maps the
        # r population rows alone and never calls the coherence map
        real_map = lsvd.pipeline._from_hermitian_basis

        def no_coherences(c, r):
            raise AssertionError("exact readout mapped the coherences")

        monkeypatch.setattr(lsvd.pipeline, "_from_hermitian_basis", no_coherences)
        model, rho0 = builtin_model("fmo3")
        times = [0.0, 150.0, 700.0]
        exact = quantum_evolve(model, rho0, times)
        reference = reference_populations(model, rho0, times)
        np.testing.assert_allclose(exact.populations, reference, atol=1e-10, rtol=0)
        theta_sweep(RPMParams(), [0.0, 0.5, 1.5])

        calls = []

        def counting(c, r):
            calls.append(r)
            return real_map(c, r)

        monkeypatch.setattr(lsvd.pipeline, "_from_hermitian_basis", counting)
        quantum_evolve(model, rho0, times, mode="sampled", shots=64)
        theta_sweep(RPMParams(), [0.0, 0.5, 1.5], mode="sampled", shots=64)
        assert sorted(set(calls)) == [5, 10]  # fmo3 and the compass both mapped

    def test_nearly_hermitian_hamiltonian_is_accepted(self, rng):
        # a Hermiticity defect of 1e-12 passes the model check (1e-10), so
        # the pipeline must not reject the generator built from it
        h = random_hermitian(rng, 3)
        h = h + 1e-12 * np.linalg.norm(h) * rng.normal(size=(3, 3))
        model = LindbladModel(hamiltonian=h, channels=random_model(rng, 3).channels)
        rho0 = random_density(rng, 3)
        quantum = quantum_evolve(model, rho0, IRREGULAR_GRID)
        reference = reference_populations(model, rho0, IRREGULAR_GRID)
        np.testing.assert_allclose(quantum.populations, reference, atol=1e-10, rtol=0)

    def test_rpm_grid_sends_real_unpadded_matrices_to_the_svd(self, monkeypatch):
        # one stacked float64 SVD per run of equal-size blocks of the split
        # working basis per chunk of at most 32 points, and one
        # propagator per distinct gap per run of equal-size components
        svd_inputs = []
        real_svd = lsvd.circuit.svd

        def recording_svd(a, *args, **kwargs):
            svd_inputs.append((a.dtype, a.shape))
            return real_svd(a, *args, **kwargs)

        propagator_calls = []
        real_propagator = lsvd.pipeline.propagator

        def counting_propagator(superop, t):
            propagator_calls.append(t)
            return real_propagator(superop, t)

        monkeypatch.setattr(lsvd.circuit, "svd", recording_svd)
        monkeypatch.setattr(lsvd.pipeline, "propagator", counting_propagator)
        model, rho0 = builtin_model("rpm")
        quantum_evolve(model, rho0, RPM_GRID)
        runs = [(1, 12), (36, 2), (16, 1)]  # (count, size) of rpm's working blocks
        assert len(svd_inputs) == 18 * len(runs)  # ceil(572 / 32) chunks
        chunks = [svd_inputs[i : i + len(runs)] for i in range(0, len(svd_inputs), len(runs))]
        for chunk in chunks:
            points = chunk[0][1][0]
            assert 1 <= points <= 32
            expected = [(np.dtype(np.float64), (points, count, s, s)) for count, s in runs]
            assert chunk == expected
        assert sum(chunk[0][1][0] for chunk in chunks) == 572
        assert sum(np.prod(shape[:-2]) for _, shape in svd_inputs) == 572 * 53
        assert len(propagator_calls) == 12 * 4  # components 34, 32, 4 x 8, 2 x 1


def _sweep_anchors():
    return [rpm_model(RPMParams(theta=theta))[0] for theta in (0.0, np.pi, np.pi / 2)]


class TestSymmetrySplit:
    """Each decoupled component is split along its generators' symmetries by
    an orthogonal Q, and kept whole when the entries Q drops exceed the
    rounding ``_real_generator`` allows."""

    # block sizes of each component of at least two indices, largest first
    SPLITS = {
        "rpm": [[12] + [2] * 8 + [1] * 6, [2] * 12 + [1] * 8] + [[2] * 4] * 4,
        "rpm-dissipative": [[12] + [2] * 8 + [1] * 6, [6, 6, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1]]
        + [[2] * 4] * 4,
    }

    @pytest.mark.parametrize("name", ["rpm", "rpm-dissipative"])
    def test_q_is_orthogonal_and_drops_only_rounding(self, name):
        model, _ = builtin_model(name)
        generator = lsvd.pipeline._real_generator(model)
        splits = []
        for c in lsvd.pipeline._decoupled_blocks(generator):
            if c.size < 2:
                continue
            block = generator[np.ix_(c, c)]
            q, sizes = lsvd.pipeline._symmetry_split(block)
            splits.append(sizes)
            np.testing.assert_allclose(q.T @ q, np.eye(c.size), rtol=0, atol=1e-14)
            label = np.repeat(np.arange(len(sizes)), sizes)
            dropped = (q.T @ block @ q)[label[:, None] != label]
            assert np.abs(dropped).max() <= lsvd.pipeline._SPLIT_TOL * lsvd.pipeline._terms(model)
        assert splits == self.SPLITS[name]

    def test_too_many_unknowns_keep_a_component_whole(self, monkeypatch, rng):
        # an exactly antisymmetric block with B² = -I: its one word mixes to
        # a multiple of the identity, so all 28 indices form one cluster of
        # 406 symmetric unknowns, past the 360 a normal matrix may hold
        def no_normal_matrix(*args):
            raise AssertionError("a normal matrix was formed")

        monkeypatch.setattr(lsvd.pipeline, "_normal_matrix", no_normal_matrix)
        j = np.kron(np.eye(14), [[0.0, 1.0], [-1.0, 0.0]])
        q, _ = np.linalg.qr(rng.normal(size=(28, 28)))
        x = q.T @ j @ q
        assert lsvd.pipeline._symmetry_split((x - x.T) / 2) is None

    def test_rpm_runs_and_record(self):
        model, _ = builtin_model("rpm")
        generator, terms = lsvd.pipeline._real_generator(model), lsvd.pipeline._terms(model)
        (runs,), (basis, _, record) = lsvd.pipeline._working_basis([generator], terms)
        np.testing.assert_allclose(basis.T @ basis, np.eye(100), rtol=0, atol=1e-14)
        assert [run.shape for run in runs] == [(1, 34, 34), (1, 32, 32), (4, 8, 8), (2, 1, 1)]
        assert record["block_runs"] == [[12, 1], [2, 36], [1, 16]]
        assert 0 < record["max_dropped_over_terms"] <= lsvd.pipeline._SPLIT_TOL

    def test_broken_symmetry_falls_back_to_whole_components(self):
        # one Hamiltonian element and its mirror, 1e-6 of the largest entry
        # off: the detection still finds a near split of the 32 component,
        # which the gate refuses
        model, rho0 = builtin_model("rpm")
        h = model.hamiltonian.copy()
        h[4, 6] += 1e-6 * np.abs(h).max()
        h[6, 4] = h[4, 6].conj()
        model = LindbladModel(h, model.channels, model.labels, model.time_unit)
        generator = lsvd.pipeline._real_generator(model)
        component = lsvd.pipeline._decoupled_blocks(generator)[1]
        block = generator[np.ix_(component, component)]
        q, sizes = lsvd.pipeline._symmetry_split(block)
        label = np.repeat(np.arange(len(sizes)), sizes)
        dropped = np.abs((q.T @ block @ q)[label[:, None] != label]).max()
        assert dropped > 1e3 * lsvd.pipeline._REAL_TOL * lsvd.pipeline._terms(model)
        grid = RPM_GRID[::40]
        trace = quantum_evolve(model, rho0, grid)
        assert [component.size, 1] in trace.working_blocks["block_runs"]  # kept whole
        reference = reference_populations(model, rho0, grid)
        np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    def test_near_symmetry_is_not_dropped_from_the_propagators(self, monkeypatch):
        # one Hamiltonian element and its mirror, 1e-12 of the largest entry
        # off: the split drops 6e-14 of the terms from G, and ||G t|| grows
        # that to 1.6e-11 of a propagator by the end of the grid
        model, rho0 = builtin_model("rpm")
        h = model.hamiltonian.copy()
        h[4, 6] += 1e-12 * np.abs(h).max()
        h[6, 4] = h[4, 6].conj()
        model = LindbladModel(h, model.channels, model.labels, model.time_unit)
        trace = quantum_evolve(model, rho0, RPM_GRID)
        assert trace.working_blocks["block_runs"][:2] == [[34, 1], [32, 1]]  # kept whole
        reference = reference_populations(model, rho0, RPM_GRID)
        np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)
        # a gate as loose as the Hermiticity check keeps the split, and the
        # propagators' own check refuses it, so the run is repeated on the
        # whole components
        monkeypatch.setattr(lsvd.pipeline, "_SPLIT_TOL", lsvd.pipeline._REAL_TOL)
        generator, terms = lsvd.pipeline._real_generator(model), lsvd.pipeline._terms(model)
        (runs,), (_, rotate, record) = lsvd.pipeline._working_basis([generator], terms)
        assert record["block_runs"][0] == [12, 1]
        message = "^symmetry split drops .* of a propagator, more than 1e-12"
        with pytest.raises(LsvdError, match=message):
            rotate([propagator(run, 0.5) for run in runs])
        whole = quantum_evolve(model, rho0, RPM_GRID)
        assert whole.working_blocks == {
            "block_runs": [[34, 1], [32, 1], [8, 4], [1, 2]],
            "max_dropped_over_terms": 0.0,
        }
        np.testing.assert_allclose(whole.populations, reference, atol=1e-10, rtol=0)

    def test_nan_propagator_fails_the_drop_check(self):
        # a NaN spreads over the rotated component, and must fail the check
        model, _ = builtin_model("rpm")
        generator, terms = lsvd.pipeline._real_generator(model), lsvd.pipeline._terms(model)
        (runs,), (basis, rotate, _) = lsvd.pipeline._working_basis([generator], terms)
        props = [propagator(run, 0.5) for run in runs]
        blocks = rotate([p.copy() for p in props])
        # the split blocks, against the whole propagator in the working basis
        dense = basis.T @ propagator(generator, 0.5) @ basis
        np.testing.assert_allclose(
            scipy.linalg.block_diag(*blocks), dense, rtol=0, atol=1e-12
        )
        props[0][0, 3, 5] = np.nan
        with pytest.raises(LsvdError, match="^symmetry split drops nan of a propagator"):
            rotate(props)

    def test_compass_whose_split_fails_its_propagator_check_still_runs(self):
        # a random symmetric hyperfine tensor: the split drops 2.9e-16 of the
        # terms from G, within the gate, but (numpy 2.4, OpenBLAS 0.3.31)
        # 1.3e-12 of the propagator at 1 ms, past its 1e-12 check
        tensor = np.random.default_rng(15693).normal(size=(3, 3)) * RPM_DEFAULT_HYPERFINE_AZ
        params = RPMParams(
            hyperfine=tensor + tensor.T, b0=np.nextafter(1e-4, 0.0), phi=1.0, theta=0.589149620091855
        )
        model, rho0 = rpm_model(params)
        trace = quantum_evolve(model, rho0, [1.0])
        reference = reference_populations(model, rho0, [1.0])
        np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(r=st.integers(3, 4), seed=st.integers(0, 2**32 - 1))
    @example(r=3, seed=0)  # splits 9 into 5 and 4
    @example(r=4, seed=2**32 - 1)  # splits 16 into 10 and 6
    def test_swap_symmetric_random_models_split_and_match_oracle(self, r, seed):
        # H and the channel set are invariant under swapping levels 1 and 2,
        # so vec(rho) splits into the swap-even and swap-odd subspaces
        rng = np.random.default_rng(seed)
        swap = np.eye(r)[[0, 2, 1, *range(3, r)]]
        h = random_hermitian(rng, r)
        channels = []
        for _ in range(2):
            operator, rate = random_complex(rng, r), float(rng.uniform(0.1, 1.0))
            channels += [Channel(operator, rate), Channel(swap @ operator @ swap, rate)]
        model = LindbladModel((h + swap @ h @ swap) / 2, tuple(channels))
        rho0 = random_density(rng, r)
        trace = quantum_evolve(model, rho0, IRREGULAR_GRID)
        even = (r - 2) ** 2 + 2 * r - 2  # pairs (i, j) the swap fixes, plus its 2-cycles
        assert trace.working_blocks["block_runs"] == [[even, 1], [r * r - even, 1]]
        reference = reference_populations(model, rho0, IRREGULAR_GRID)
        np.testing.assert_allclose(trace.populations, reference, atol=1e-10, rtol=0)

    def test_two_runs_are_bitwise_equal(self):
        model, rho0 = builtin_model("rpm")
        first, second = (quantum_evolve(model, rho0, RPM_GRID[:40]) for _ in range(2))
        assert first.populations.tobytes() == second.populations.tobytes()
        assert first.working_blocks == second.working_blocks

    def test_family_keeps_its_components(self):
        # a member's own split would round its row differently from the
        # one-point run of that member
        _, rho0 = rpm_model(RPMParams())
        weights = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        trace = lsvd.pipeline.evolve_family(_sweep_anchors(), weights, rho0, 1.0)
        assert trace.working_blocks == {
            "block_runs": [[34, 1], [32, 1], [8, 4], [1, 2]],
            "max_dropped_over_terms": 0.0,
        }


class TestFortyDigitReference:
    """Exact-mode populations against ``mpmath.expm`` at 40 digits, a
    reference finer than the code's 1e-12 ``expm`` contract, where
    ``scipy.linalg.expm`` is 1.3e-10 off on the sweep's 32x32 block."""

    @pytest.mark.parametrize(
        "name, times",
        # at the default end of the compass trace exp(G t) amplifies most
        # of what the symmetry split drops
        [("fmo3", [5.0, 500.0, 2000.0]), ("rpm", [1.0])],
    )
    def test_populations_match(self, name, times):
        model, rho0 = builtin_model(name)
        reference = mpmath_populations(model, rho0, times)
        got = quantum_evolve(model, rho0, times).populations
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-12)


class TestOdeReference:
    """Exact-mode populations against an ODE integration of the matrix-form
    master equation (``tests/conftest.py::ode_populations``), which shares
    neither the superoperator nor any exponential with the pipeline.
    ``rpm`` is left out: its shelving rates make the integration stiff
    (about 5e5 right-hand-side calls)."""

    @pytest.mark.parametrize("name", ["fmo3", "fmo7"])
    def test_populations_match(self, name):
        model, rho0 = builtin_model(name)
        times = [5.0, 500.0, 2000.0]
        reference = ode_populations(model, rho0, times)
        got = quantum_evolve(model, rho0, times).populations
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-11)


class TestChunks:
    """Points are decomposed and run a chunk at a time; a point's row must
    not depend on the chunk it falls in."""

    @pytest.mark.parametrize("name, width", [("rpm", 32), ("sweep", 15), ("fmo7", 8)])
    def test_width_carries_a_fixed_amount_of_svd_work(self, name, width):
        models = _sweep_anchors() if name == "sweep" else [builtin_model(name)[0]]
        generators = [lsvd.pipeline._real_generator(model) for model in models]
        terms = None if name == "sweep" else lsvd.pipeline._terms(models[0])  # a family is not split
        _, (_, _, record) = lsvd.pipeline._working_basis(generators, terms)
        assert lsvd.pipeline._chunk_width(record["block_runs"]) == width

    def test_a_block_past_the_work_budget_runs_alone(self):
        assert lsvd.pipeline._chunk_width([[144, 1]]) == 1

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("grid", ["chunks", "irregular"])
    def test_every_prefix_gives_the_full_runs_rows(self, monkeypatch, mode, grid):
        model, rho0 = builtin_model("fmo3")
        force_chunk_width(monkeypatch, 8)
        if grid == "chunks":
            times = np.arange(19) * 37.0
        else:
            times = IRREGULAR_GRID * 100.0

        def rows(trace):
            return [
                np.concatenate([trace.populations[i], [trace.success_prob[i], trace.scales[i]]]).tobytes()
                for i in range(trace.times.size)
            ]

        kwargs = {"mode": mode, "shots": 512, "seed": 3}
        full = rows(quantum_evolve(model, rho0, times, **kwargs))
        for length in range(1, times.size):
            assert rows(quantum_evolve(model, rho0, times[:length], **kwargs)) == full[:length]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_split_working_basis_rows_do_not_depend_on_the_chunk(self, monkeypatch, mode, chunk):
        # rpm's working basis is rotated, not permuted, on the way out
        model, rho0 = builtin_model("rpm")
        kwargs = {"mode": mode, "shots": 512, "seed": 3}

        def rows(trace):
            return np.concatenate([trace.populations.T, [trace.success_prob, trace.scales]]).tobytes()

        full = quantum_evolve(model, rho0, RPM_GRID[:11], **kwargs)
        force_chunk_width(monkeypatch, chunk)
        assert rows(quantum_evolve(model, rho0, RPM_GRID[:11], **kwargs)) == rows(full)

    def test_each_chunk_makes_one_circuit(self, monkeypatch):
        calls = []
        real_build = lsvd.pipeline.build_svd_circuit

        def counting_build(*blocks):
            calls.append(blocks[0].shape[0])
            return real_build(*blocks)

        monkeypatch.setattr(lsvd.pipeline, "build_svd_circuit", counting_build)
        model, rho0 = builtin_model("fmo3")
        force_chunk_width(monkeypatch, 8)
        quantum_evolve(model, rho0, np.arange(19) * 37.0)
        assert calls == [8, 8, 3]
