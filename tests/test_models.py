import numpy as np
import pytest

import lsvd.models
from lsvd.lindblad import (
    classical_evolve,
    load_model,
    model_to_dict,
    wavenumber_to_angular_frequency,
)
from lsvd.models import (
    BUILTIN_MODELS,
    RPM_GAMMA_DISS_HIGH,
    FMOParams,
    RPMParams,
    builtin_model,
    builtin_model_path,
    default_theta_grid,
    fmo_model,
    rpm_model,
    theta_sweep,
    write_builtin_model_files,
    yields,
)
from lsvd.pipeline import quantum_evolve, qubit_counts


class TestFMOParams:
    def test_default_seven_sites(self):
        params = FMOParams.default(7)
        assert params.site_energies.size == 7
        assert params.couplings[0, 1] == params.couplings[1, 0] == -104.1

    def test_three_site_truncation(self):
        params = FMOParams.default(3)
        np.testing.assert_array_equal(params.site_energies, [215.0, 220.0, 0.0])
        assert params.couplings[1, 2] == 32.6

    def test_bad_site_count_rejected(self):
        with pytest.raises(ValueError):
            FMOParams.default(5)

    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FMOParams(
                n_sites=3,
                site_energies=np.zeros(3),
                couplings=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            )


class TestFMOModel:
    def test_level_structure_and_qubits(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        assert model.dim == 5
        assert model.labels == ("ground", "site1", "site2", "site3", "sink")
        assert model.time_unit == "fs"
        assert qubit_counts(model.dim) == (5, 6)
        assert rho0[1, 1] == 1.0 and np.trace(rho0) == 1.0

    def test_seven_site_is_nine_levels_eight_qubits(self):
        model, _ = fmo_model(FMOParams.default(7))
        assert model.dim == 9
        assert qubit_counts(model.dim) == (7, 8)

    def test_hamiltonian_conversion_and_silent_levels(self):
        params = FMOParams.default(3)
        model, _ = fmo_model(params)
        h = model.hamiltonian
        assert h[1, 1] == pytest.approx(wavenumber_to_angular_frequency(215.0))
        assert h[1, 2] == pytest.approx(wavenumber_to_angular_frequency(-104.1))
        np.testing.assert_array_equal(h[0, :], np.zeros(5))
        np.testing.assert_array_equal(h[:, 4], np.zeros(5))

    def test_sink_channel_drains_site3(self):
        model, _ = fmo_model(FMOParams.default(3))
        sink = [ch for ch in model.channels if ch.label == "sink_from_site3"]
        assert len(sink) == 1
        op = sink[0].operator
        assert op[4, 3] == 1.0
        assert np.count_nonzero(op) == 1

    def test_frozen_dynamics_without_rates_or_couplings(self):
        params = FMOParams(
            n_sites=3,
            site_energies=np.array([100.0, 50.0, 10.0]),
            couplings=np.zeros((3, 3)),
            gamma_deph=0.0,
            gamma_diss=0.0,
            gamma_sink=0.0,
        )
        model, rho0 = fmo_model(params)
        trace = classical_evolve(model, rho0, [0.0, 300.0, 900.0])
        for row in trace.populations:
            np.testing.assert_allclose(row, trace.populations[0], atol=1e-10)

    def test_ground_plus_sink_nondecreasing(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        trace = classical_evolve(model, rho0, np.linspace(0.0, 2000.0, 41))
        absorbed = trace.populations[:, 0] + trace.populations[:, -1]
        assert np.all(np.diff(absorbed) >= -1e-10)

    def test_sink_absorbs_everything_without_dissipation(self):
        # uniform site occupancy caps the drain rate near gamma_sink/n_sites,
        # so the absorbing-state check probes 10 of those diluted lifetimes
        params = FMOParams.default(3, gamma_diss=0.0)
        model, rho0 = fmo_model(params)
        horizon = 10.0 * params.n_sites / params.gamma_sink
        trace = classical_evolve(model, rho0, [horizon])
        assert trace.populations[0, -1] >= 0.98


class TestRPMParams:
    def test_defaults(self):
        params = RPMParams()
        assert params.b0 == 47e-6
        assert params.theta == pytest.approx(np.pi / 2)
        assert params.hyperfine[2, 2] > 0
        assert params.gamma_shelf == 1e4

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            RPMParams(theta=3.5)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            RPMParams(b0=-1e-6)


class TestRPMModel:
    def test_level_structure_and_qubits(self):
        model, rho0 = rpm_model(RPMParams())
        assert model.dim == 10
        assert model.labels[8:] == ("S", "T")
        assert model.time_unit == "ms"
        assert qubit_counts(model.dim) == (7, 8)
        assert np.trace(rho0) == pytest.approx(1.0)
        # mixed nucleus, pure singlet: two eigenvalues of 1/2
        eigenvalues = np.linalg.eigvalsh(rho0)
        np.testing.assert_allclose(sorted(eigenvalues)[-2:], [0.5, 0.5], atol=1e-12)

    def test_channel_counts(self):
        model, _ = rpm_model(RPMParams())
        assert len(model.channels) == 8
        dissipative, _ = rpm_model(RPMParams(gamma_diss=1e4))
        assert len(dissipative.channels) == 14

    def test_shelves_are_hamiltonian_free(self):
        model, _ = rpm_model(RPMParams())
        np.testing.assert_array_equal(model.hamiltonian[8:, :], np.zeros((2, 10)))
        np.testing.assert_array_equal(model.hamiltonian[:, 8:], np.zeros((10, 2)))

    def test_no_interconversion_all_singlet_yield(self):
        params = RPMParams(hyperfine=np.zeros((3, 3)), b0=0.0)
        model, rho0 = rpm_model(params)
        trace = classical_evolve(model, rho0, [0.0, 0.5, 1.0])
        phi_s, phi_t = yields(trace)
        np.testing.assert_allclose(phi_t, np.zeros(3), atol=1e-12)
        assert phi_s[-1] == pytest.approx(1.0 - np.exp(-10.0), abs=1e-8)

    def test_yields_requires_compass_trace(self):
        model, rho0 = fmo_model(FMOParams.default(3))
        trace = classical_evolve(model, rho0, [0.0])
        with pytest.raises(ValueError, match="'S' and 'T'"):
            yields(trace)

    def test_yields_start_empty_and_saturate(self):
        model, rho0 = rpm_model(RPMParams())
        trace = classical_evolve(model, rho0, [0.0, 1.0])
        phi_s, phi_t = yields(trace)
        assert phi_s[0] == pytest.approx(0.0, abs=1e-12)
        assert phi_t[0] == pytest.approx(0.0, abs=1e-12)
        assert phi_s[1] + phi_t[1] >= 0.999

    def test_shelf_sum_nondecreasing_and_radicals_drain(self):
        model, rho0 = rpm_model(RPMParams())
        trace = classical_evolve(model, rho0, np.linspace(0.0, 1.0, 21))
        phi_s, phi_t = yields(trace)
        assert np.all(np.diff(phi_s + phi_t) >= -1e-10)
        assert trace.populations[-1, :8].sum() < 1e-4

    def test_exact_circuit_matches_oracle_at_default_settings(self):
        model, rho0 = rpm_model(RPMParams())
        times = np.linspace(0.0, 1.0, 9)
        oracle = classical_evolve(model, rho0, times)
        quantum = quantum_evolve(model, rho0, times, mode="exact")
        np.testing.assert_allclose(
            quantum.populations, oracle.populations, atol=1e-8
        )


class TestThetaSweep:
    def test_default_grid_has_201_points(self):
        grid = default_theta_grid()
        assert grid.size == 201
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(np.pi)
        assert np.rad2deg(grid[1] - grid[0]) == pytest.approx(0.9)

    def test_strong_dissipation_flattens_the_compass(self):
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 13))
        sweep = theta_sweep(
            RPMParams(gamma_diss=RPM_GAMMA_DISS_HIGH), thetas=thetas
        )
        assert sweep.phi_s.max() - sweep.phi_s.min() <= 0.01

    def test_axial_tensor_mirror_symmetry(self):
        thetas = np.deg2rad([30.0, 150.0, 75.0, 105.0])
        sweep = theta_sweep(RPMParams(), thetas=thetas)
        assert sweep.phi_s[0] == pytest.approx(sweep.phi_s[1], abs=1e-8)
        assert sweep.phi_s[2] == pytest.approx(sweep.phi_s[3], abs=1e-8)

    def test_sampled_sweep_tracks_exact(self):
        thetas = np.deg2rad([0.0, 45.0, 90.0, 135.0, 180.0])
        exact = theta_sweep(RPMParams(), thetas=thetas, mode="exact")
        sampled = theta_sweep(
            RPMParams(), thetas=thetas, mode="sampled", shots=2**19, seed=3
        )
        np.testing.assert_allclose(sampled.phi_s, exact.phi_s, atol=0.02)
        np.testing.assert_allclose(sampled.phi_t, exact.phi_t, atol=0.02)

    def test_out_of_range_rejected(self, monkeypatch):
        def no_pipeline(*args, **kwargs):
            raise AssertionError("an orientation ran before the grid was checked")

        monkeypatch.setattr(lsvd.models, "quantum_evolve", no_pipeline)
        for thetas in ([4.0], [0.0, np.pi + 1e-10], [0.0, -1e-13]):
            with pytest.raises(ValueError, match="theta must lie"):
                theta_sweep(RPMParams(), thetas=thetas)


class TestBuiltinModels:
    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_bundled_file_matches_builder(self, name):
        model, _ = builtin_model(name)
        loaded = load_model(builtin_model_path(name))
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_regenerated_files_are_byte_identical(self, tmp_path):
        written = write_builtin_model_files(tmp_path / "data")
        assert [path.name for path in written] == [f"{name}.json" for name in BUILTIN_MODELS]
        for name, path in zip(BUILTIN_MODELS, written):
            assert path.read_bytes() == builtin_model_path(name).read_bytes()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_model("nope")
