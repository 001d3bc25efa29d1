import json

import numpy as np
import pytest

import lsvd.pipeline
from lsvd.errors import LsvdError
from lsvd.lindblad import (
    Channel,
    LindbladModel,
    build_superoperator,
    lindblad_rhs,
    load_model,
    model_from_dict,
    model_to_dict,
    propagator,
    save_model,
    trace_preservation_defect,
    vectorize,
    wavenumber_to_angular_frequency,
)
from lsvd.models import FMOParams, fmo_model
from lsvd.pipeline import classical_evolve

from conftest import random_complex, random_density, random_model, reference_states

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def amplitude_damping(gamma):
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return LindbladModel(
        hamiltonian=np.zeros((2, 2)),
        channels=(Channel(lower, gamma, "decay"),),
        labels=("g", "e"),
    )


class TestVectorize:
    def test_column_stacking_definition(self):
        rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_array_equal(vectorize(rho), [1.0, 3.0, 2.0, 4.0])

    def test_maximally_mixed(self):
        np.testing.assert_array_equal(vectorize(np.eye(2) / 2), [0.5, 0.0, 0.0, 0.5])

    def test_norm_preserved(self, rng):
        rho = random_complex(rng, 4)
        assert np.linalg.norm(vectorize(rho)) == pytest.approx(np.linalg.norm(rho))

    def test_round_trip(self, rng):
        rho = random_density(rng, 5)
        np.testing.assert_array_equal(vectorize(rho).reshape((5, 5), order="F"), rho)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^rho must be square, got shape \(2, 3\)$"):
            vectorize(np.zeros((2, 3)))


class TestBuildSuperoperator:
    def test_trivial_model_is_zero(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)), channels=())
        np.testing.assert_array_equal(build_superoperator(model), np.zeros((4, 4)))

    def test_matches_direct_rhs_for_decay_channel(self, rng):
        model = amplitude_damping(1.0)
        superop = build_superoperator(model)
        for _ in range(20):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(
                superop @ vectorize(rho),
                vectorize(lindblad_rhs(model, rho)),
                atol=1e-12,
            )

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_matches_direct_rhs_random_models(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4, n_channels=3)
        superop = build_superoperator(model)
        for _ in range(5):
            rho = random_complex(rng, 4)
            np.testing.assert_allclose(
                superop @ vectorize(rho),
                vectorize(lindblad_rhs(model, rho)),
                atol=1e-12 * max(1.0, np.linalg.norm(superop)),
            )

    def test_pure_commutator_superoperator(self):
        model = LindbladModel(hamiltonian=SIGMA_Z, channels=())
        superop = build_superoperator(model)
        expected = -1j * np.kron(np.eye(2), SIGMA_Z) + 1j * np.kron(SIGMA_Z.T, np.eye(2))
        np.testing.assert_array_equal(superop, expected)
        eigenvalues = sorted(np.linalg.eigvals(superop), key=lambda z: z.imag)
        np.testing.assert_allclose(eigenvalues, [-2.0j, 0.0, 0.0, 2.0j], atol=1e-12)

    @pytest.mark.parametrize("seed", [24, 25])
    def test_generator_preserves_trace(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 5, n_channels=4)
        assert trace_preservation_defect(build_superoperator(model), 5) < 1e-14


class TestPropagator:
    def test_zero_time_is_identity(self, rng):
        superop = build_superoperator(random_model(rng, 3))
        np.testing.assert_allclose(propagator(superop, 0.0), np.eye(9), atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator(np.zeros((4, 4)), -1.0)

    @pytest.mark.parametrize("gamma,t", [(0.5, 0.3), (1.3, 1.7)])
    def test_amplitude_damping_analytic(self, gamma, t):
        model = amplitude_damping(gamma)
        rho0 = np.array([[0.25, 0.1j], [-0.1j, 0.75]], dtype=complex)
        rho_t = (propagator(build_superoperator(model), t) @ vectorize(rho0)).reshape(
            (2, 2), order="F"
        )
        assert rho_t[1, 1].real == pytest.approx(np.exp(-gamma * t) * 0.75, abs=1e-12)
        assert rho_t[0, 0].real == pytest.approx(1 - np.exp(-gamma * t) * 0.75, abs=1e-12)
        # coherences decay at half the population rate
        assert abs(rho_t[0, 1]) == pytest.approx(np.exp(-gamma * t / 2) * 0.1, abs=1e-12)

    @pytest.mark.parametrize("gamma,t", [(0.4, 0.9), (2.0, 0.25)])
    def test_pure_dephasing_analytic(self, gamma, t):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2)),
            channels=(Channel(SIGMA_Z, gamma, "dephasing"),),
        )
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        rho_t = (propagator(build_superoperator(model), t) @ vectorize(rho0)).reshape(
            (2, 2), order="F"
        )
        assert rho_t[0, 1].real == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-12)
        assert rho_t[0, 0].real == pytest.approx(0.5, abs=1e-12)


class TestClassicalEvolve:
    def test_time_zero_returns_initial_populations(self, rng):
        model = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        trace = classical_evolve(model, rho0, [0.0])
        np.testing.assert_allclose(trace.populations[0], np.diag(rho0).real, atol=1e-14)

    def test_semigroup_one_step_vs_two(self, rng):
        model = random_model(rng, 3)
        rho0 = random_density(rng, 3)
        full = classical_evolve(model, rho0, [0.8]).populations[-1]
        superop = build_superoperator(model)
        half = propagator(superop, 0.4)
        vec_two = half @ (half @ vectorize(rho0))
        np.testing.assert_allclose(
            full, np.diag(vec_two.reshape((3, 3), order="F")).real, atol=1e-10
        )

    def test_lost_trace_rejected(self, monkeypatch, rng):
        # a generator shifted by -I decays every state's trace as exp(-t)
        real_build = lsvd.pipeline.build_superoperator

        def leaking(model):
            superop = real_build(model)
            return superop - np.eye(superop.shape[0])

        monkeypatch.setattr(lsvd.pipeline, "build_superoperator", leaking)
        model = random_model(rng, 2)
        with pytest.raises(LsvdError, match=r"lost trace normalization at t=1\.0 \(defect 6\.32"):
            classical_evolve(model, np.eye(2) / 2, [0.0, 1.0])

    def test_unsorted_times_rejected(self, rng):
        model = random_model(rng, 2)
        with pytest.raises(ValueError):
            classical_evolve(model, np.eye(2) / 2, [1.0, 0.5])

    def test_fmo3_absorbing_levels_fill_up(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        slowest = min(ch.rate for ch in model.channels if ch.rate > 0)
        trace = classical_evolve(model, rho0, [10.0 / slowest])
        ground_sink = trace.populations[0, 0] + trace.populations[0, -1]
        assert ground_sink > 0.999

    def test_fmo3_hermiticity_positivity_along_trace(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        times = np.linspace(0, 2000, 21)
        states = reference_states(model, rho0, times)
        np.testing.assert_allclose(
            classical_evolve(model, rho0, times).populations,
            np.diagonal(states, axis1=1, axis2=2).real,
            atol=1e-10,
            rtol=0,
        )
        for rho in states:
            assert np.linalg.norm(rho - rho.conj().T) < 1e-8
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-6
            assert abs(np.trace(rho) - 1.0) < 1e-8


class TestUnits:
    def test_wavenumber_conversion_constant(self):
        assert wavenumber_to_angular_frequency(1.0) == pytest.approx(
            1.8836515673088532e-4, rel=1e-12
        )


class TestModelValidation:
    def test_non_hermitian_hamiltonian_rejected(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(hamiltonian=random_complex(rng, 3), channels=())

    def test_negative_rate_rejected_with_index(self):
        with pytest.raises(ValueError, match="channel 0"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2)),
                channels=(Channel(np.eye(2), -0.5, "bad"),),
            )

    def test_wrong_operator_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2)),
                channels=(Channel(np.eye(3), 0.5),),
            )

    def test_non_square_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match=r"^hamiltonian must be square, got shape \(2, 3\)$"):
            LindbladModel(hamiltonian=np.zeros((2, 3)), channels=())

    def test_label_count_enforced(self):
        with pytest.raises(ValueError, match="labels"):
            LindbladModel(hamiltonian=np.zeros((2, 2)), channels=(), labels=("a",))


class TestModelFiles:
    def test_round_trip(self, rng, tmp_path):
        model = random_model(rng, 3, n_channels=2, time_unit="fs")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.hamiltonian, model.hamiltonian)
        assert loaded.time_unit == "fs"
        assert loaded.labels == model.labels
        for a, b in zip(loaded.channels, model.channels):
            np.testing.assert_array_equal(a.operator, b.operator)
            assert a.rate == b.rate and a.label == b.label

    def test_complex_entries_serialized_as_pairs(self, rng):
        model = random_model(rng, 2, n_channels=1)
        data = model_to_dict(model)
        entry = data["hamiltonian"][0][1]
        assert isinstance(entry, list) and len(entry) == 2

    def test_extra_keys_tolerated(self, rng):
        data = model_to_dict(random_model(rng, 2))
        data["notes"] = "provenance goes here"
        model_from_dict(data)

    def test_missing_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            model_from_dict({"hamiltonian": []})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([{"dim": 1}], "model file must contain a JSON object"),
            ({"dim": -1, "hamiltonian": [[[0.0, 0.0]]]}, "'dim' must be positive, got -1"),
            ({"dim": 1}, "model file is missing 'hamiltonian'"),
            (
                {"dim": 1, "hamiltonian": [[["re", "im"]]]},
                r"hamiltonian must be an 1x1 matrix of \[re, im\] pairs: could not convert",
            ),
        ],
        ids=["not-an-object", "dim-negative", "no-hamiltonian", "pairs-not-numbers"],
    )
    def test_malformed_layout_rejected_by_name(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            model_from_dict(data)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="JSON"):
            load_model(path)

    def test_wrong_matrix_shape_rejected(self, rng):
        data = model_to_dict(random_model(rng, 2))
        data["hamiltonian"] = [[[1.0, 0.0]]]
        with pytest.raises(ValueError, match="hamiltonian"):
            model_from_dict(data)

    def test_raw_complex_entries_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": 1, "hamiltonian": [[1.0]]}))
        with pytest.raises(ValueError):
            load_model(path)
