import tracemalloc

import numpy as np
import pytest

import lsvd.pipeline
from lsvd.lindblad import LindbladModel, classical_evolve
from lsvd.models import builtin_model
from lsvd.pipeline import quantum_evolve, qubit_counts


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


class TestOneLevelModel:
    def test_exact_trace_matches_oracle(self):
        model = LindbladModel(hamiltonian=[[0.3]], channels=())
        assert qubit_counts(model.dim) == (1, 2)
        times = np.arange(5) * 0.5
        quantum = quantum_evolve(model, [[1.0]], times)
        oracle = classical_evolve(model, [[1.0]], times)
        np.testing.assert_allclose(quantum.populations, oracle.populations, atol=1e-12)
        np.testing.assert_allclose(quantum.success_prob, 1.0, atol=1e-12)


class TestMemory:
    def test_peak_does_not_grow_with_grid_length(self):
        model, rho0 = builtin_model("fmo7")  # n = 128

        def peak_bytes(points):
            tracemalloc.start()
            try:
                quantum_evolve(model, rho0, np.arange(points) * 5.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(16), peak_bytes(64)
        assert long - short <= 2**20, f"peak grew from {short} to {long} bytes"
