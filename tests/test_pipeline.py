import tracemalloc

import numpy as np
import pytest

import lsvd.lindblad
import lsvd.pipeline
from lsvd.lindblad import LindbladModel, classical_evolve
from lsvd.models import builtin_model
from lsvd.pipeline import quantum_evolve, qubit_counts

from conftest import random_density, random_model

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
