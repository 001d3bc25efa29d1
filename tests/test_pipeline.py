import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsvd.circuit
import lsvd.lindblad
import lsvd.pipeline
from lsvd.errors import LsvdError
from lsvd.lindblad import LindbladModel, build_superoperator, classical_evolve
from lsvd.models import builtin_model
from lsvd.pipeline import quantum_evolve, qubit_counts

from conftest import random_density, random_hermitian, random_model

# t0 > 0, a repeated time (a zero gap) and a 1e-9 gap
IRREGULAR_GRID = np.array([0.5, 0.5, 0.8, 0.81, 3.0, 3.0 + 1e-9, 7.0])
RPM_GRID = np.arange(572) * 1.75e-3


def _no_propagator(*args, **kwargs):
    raise AssertionError("input was not checked before the first propagator")


class TestInputChecks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mode": "nonsense"}, "mode must be"),
            ({"mode": "sampled", "shots": 0}, "shots must be"),
        ],
        ids=["bad-mode", "no-shots"],
    )
    def test_rejected_before_any_propagator(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        with pytest.raises(ValueError, match=message):
            quantum_evolve(model, rho0, np.arange(401) * 5.0, **kwargs)

    @pytest.mark.parametrize("evolve", [quantum_evolve, classical_evolve])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected_before_any_propagator(
        self, monkeypatch, evolve, bad
    ):
        monkeypatch.setattr(lsvd.pipeline, "propagator", _no_propagator)
        monkeypatch.setattr(lsvd.lindblad, "propagator", _no_propagator)
        model, rho0 = builtin_model("fmo3")
        with pytest.raises(ValueError, match="times must be finite"):
            evolve(model, rho0, [0.0, bad])


class TestOneLevelModel:
    def test_exact_trace_matches_oracle(self):
        model = LindbladModel(hamiltonian=[[0.3]], channels=())
        assert qubit_counts(model.dim) == (1, 2)
        times = np.arange(5) * 0.5
        quantum = quantum_evolve(model, [[1.0]], times)
        oracle = classical_evolve(model, [[1.0]], times)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-12)
        np.testing.assert_allclose(quantum.success_prob, 1.0, atol=1e-12)


class TestPropagatorChain:
    def test_irregular_grid_matches_oracle_fmo3(self):
        model, rho0 = builtin_model("fmo3")
        times = IRREGULAR_GRID * 100.0  # fs
        quantum = quantum_evolve(model, rho0, times)
        oracle = classical_evolve(model, rho0, times)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-10, rtol=0)

    def test_irregular_grid_matches_oracle_random_model(self, rng):
        model = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        quantum = quantum_evolve(model, rho0, IRREGULAR_GRID)
        oracle = classical_evolve(model, rho0, IRREGULAR_GRID)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-10, rtol=0)

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
        quantum = quantum_evolve(model, rho0, times)
        oracle = classical_evolve(model, rho0, times)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-10, rtol=0)

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
        states = classical_evolve(model, rho0, times, store_states=True).states
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

    def test_nearly_hermitian_hamiltonian_is_accepted(self, rng):
        # a Hermiticity defect of 1e-12 passes the model check (1e-10), so
        # the pipeline must not reject the generator built from it
        h = random_hermitian(rng, 3)
        h = h + 1e-12 * np.linalg.norm(h) * rng.normal(size=(3, 3))
        model = LindbladModel(hamiltonian=h, channels=random_model(rng, 3).channels)
        rho0 = random_density(rng, 3)
        quantum = quantum_evolve(model, rho0, IRREGULAR_GRID)
        oracle = classical_evolve(model, rho0, IRREGULAR_GRID)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-10, rtol=0)

    def test_rpm_grid_sends_real_unpadded_matrices_to_the_svd(self, monkeypatch):
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
        assert len(svd_inputs) == 572
        assert set(svd_inputs) == {(np.dtype(np.float64), (100, 100))}
        assert len(propagator_calls) == 12
