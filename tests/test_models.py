from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsvd.models
import lsvd.pipeline
from lsvd.lindblad import load_model, model_to_dict, wavenumber_to_angular_frequency
from lsvd.models import (
    BUILTIN_MODELS,
    MAX_GRID_POINTS,
    RPM_DEFAULT_HYPERFINE_AZ,
    RPM_DEFAULT_T_END,
    RPM_GAMMA_DISS_HIGH,
    RPM_GAMMA_DISS_MID,
    FMOParams,
    RPMParams,
    builtin_model,
    default_theta_grid,
    fmo_model,
    rpm_model,
    theta_sweep,
    write_builtin_model_files,
    yields,
)
from lsvd.pipeline import classical_evolve, quantum_evolve, qubit_counts
from lsvd.sampler import substream_seed

from conftest import bundled_model_path, force_chunk_width, reference_populations


class TestFMOParams:
    def test_default_seven_sites(self):
        params = FMOParams.default(7)
        assert params.n_sites == 7
        assert params.hamiltonian_cm1.shape == (7, 7)
        assert params.hamiltonian_cm1[0, 1] == params.hamiltonian_cm1[1, 0] == -104.1

    def test_three_site_truncation(self):
        params = FMOParams.default(3)
        assert params.n_sites == 3
        np.testing.assert_array_equal(np.diag(params.hamiltonian_cm1), [215.0, 220.0, 0.0])
        assert params.hamiltonian_cm1[1, 2] == 32.6

    def test_bad_site_count_rejected(self):
        # 9 would otherwise slice silently down to the bundled 7x7 matrix
        for n_sites in (5, 9):
            with pytest.raises(ValueError, match="n_sites"):
                FMOParams.default(n_sites)

    def test_asymmetric_couplings_rejected(self):
        params = FMOParams(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            fmo_model(params)

    @pytest.mark.parametrize(
        "hamiltonian, message",
        [
            (np.diag([0.0, np.nan, 0.0]), "non-finite"),
            (np.full((7, 7), np.inf), "non-finite"),
            (np.zeros((5, 5)), "must be n x n"),
            (np.zeros((3, 7)), "must be n x n"),
            (np.zeros(3), "2-D"),
        ],
        ids=["nan", "inf", "five-sites", "not-square", "vector"],
    )
    def test_bad_hamiltonian_names_the_field(self, hamiltonian, message):
        with pytest.raises(ValueError, match=f"^hamiltonian_cm1 .*{message}"):
            FMOParams(hamiltonian)

    def test_compares_and_hashes_by_identity(self):
        params = FMOParams.default(3)
        assert params == params
        assert params != FMOParams.default(3)
        assert len({params, params, FMOParams.default(3)}) == 2


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
            np.diag([100.0, 50.0, 10.0]),
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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("b0", np.inf),
            ("phi", np.nan),
            ("phi", -np.inf),
            ("gamma_shelf", np.inf),
            ("gamma_diss", np.nan),
            ("hyperfine", np.diag([0.0, 0.0, np.inf])),
        ],
        ids=["b0-inf", "phi-nan", "phi-inf", "shelf-inf", "diss-nan", "hyperfine-inf"],
    )
    def test_non_finite_value_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            RPMParams(**{name: value})

    def test_hyperfine_tensor_must_be_3x3(self):
        with pytest.raises(ValueError, match=r"^hyperfine tensor must be 3x3, got \(2, 2\)$"):
            RPMParams(hyperfine=np.eye(2))

    def test_compares_and_hashes_by_identity(self):
        params = RPMParams()
        assert params == params
        assert RPMParams() != RPMParams()
        assert hash(params) == hash(params)
        assert len({params, params, RPMParams()}) == 2


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
        reference = reference_populations(model, rho0, times)
        quantum = quantum_evolve(model, rho0, times, mode="exact")
        np.testing.assert_allclose(quantum.populations, reference, atol=1e-8)


class TestThetaSweep:
    def test_default_grid_has_201_points(self):
        grid = default_theta_grid()
        assert grid.size == 201
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(np.pi)
        assert np.rad2deg(grid[1] - grid[0]) == pytest.approx(0.9)

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match=r"^step \S+ must be positive and finite$"):
            default_theta_grid(step)

    @pytest.mark.parametrize(
        "step, count", [(1e-5, "1.8e+07"), (1e-300, "1.8e+302"), (180.0 / 10**6, "1000001")]
    )
    def test_step_beyond_the_orientation_cap_rejected(self, step, count):
        with pytest.raises(ValueError) as error:
            default_theta_grid(step)
        assert str(error.value) == (
            f"step {step!r} up to 180.0 would give {count} points (at most 1000000)"
        )
        assert default_theta_grid(180.0 / (MAX_GRID_POINTS - 1)).size == MAX_GRID_POINTS

    def test_strong_dissipation_flattens_the_compass(self):
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 13))
        phi_s, _ = yields(theta_sweep(RPMParams(gamma_diss=RPM_GAMMA_DISS_HIGH), thetas=thetas))
        assert phi_s.max() - phi_s.min() <= 0.01

    def test_axial_tensor_mirror_symmetry(self):
        thetas = np.deg2rad([30.0, 150.0, 75.0, 105.0])
        phi_s, _ = yields(theta_sweep(RPMParams(), thetas=thetas))
        assert phi_s[0] == pytest.approx(phi_s[1], abs=1e-8)
        assert phi_s[2] == pytest.approx(phi_s[3], abs=1e-8)

    def test_sampled_sweep_tracks_exact(self):
        thetas = np.deg2rad([0.0, 45.0, 90.0, 135.0, 180.0])
        exact_s, exact_t = yields(theta_sweep(RPMParams(), thetas=thetas, mode="exact"))
        sampled_s, sampled_t = yields(
            theta_sweep(RPMParams(), thetas=thetas, mode="sampled", shots=2**19, seed=3)
        )
        np.testing.assert_allclose(sampled_s, exact_s, atol=0.02)
        np.testing.assert_allclose(sampled_t, exact_t, atol=0.02)

    def test_out_of_range_rejected(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a model or the sweep ran before the grid was checked")

        monkeypatch.setattr(lsvd.models, "rpm_model", no_work)
        monkeypatch.setattr(lsvd.models, "evolve_family", no_work)
        for thetas in ([4.0], [0.0, np.pi + 1e-10], [0.0, -1e-13], [0.0, np.nan, 1.0]):
            with pytest.raises(ValueError, match="theta must lie"):
                theta_sweep(RPMParams(), thetas=thetas)

    def test_empty_grid_rejected(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a model or the sweep ran for an empty grid")

        monkeypatch.setattr(lsvd.models, "rpm_model", no_work)
        monkeypatch.setattr(lsvd.models, "evolve_family", no_work)
        for thetas in ([], np.empty((0, 3))):
            with pytest.raises(ValueError, match="^thetas must be non-empty$"):
                theta_sweep(RPMParams(), thetas=thetas)


def sweep_rows(sweep):
    phi_s, phi_t = yields(sweep)
    return [
        np.array([phi_s[j], phi_t[j], sweep.success_prob[j], sweep.scales[j]]).tobytes()
        for j in range(len(sweep.times))
    ]


class TestSweepFamily:
    """The orientations run as one family of generators, a chunk at a time;
    an orientation's row must not depend on the others or on its chunk."""

    # theta = 0 and pi first, so that every prefix of two or more holds both;
    # 19 orientations span two of the family's 15-member chunks
    GRID = np.concatenate([[0.0, np.pi], np.deg2rad(np.linspace(9.0, 171.0, 17))])
    RUN = {"shots": 512, "seed": 3}

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_every_prefix_gives_the_full_runs_rows(self, mode):
        full = sweep_rows(theta_sweep(RPMParams(), thetas=self.GRID, mode=mode, **self.RUN))
        for length in range(1, self.GRID.size):
            prefix = theta_sweep(RPMParams(), thetas=self.GRID[:length], mode=mode, **self.RUN)
            assert sweep_rows(prefix) == full[:length]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("chunk", [1, 3, 32])
    def test_chunk_size_does_not_change_a_row(self, monkeypatch, mode, chunk):
        full = sweep_rows(theta_sweep(RPMParams(), thetas=self.GRID, mode=mode, **self.RUN))
        force_chunk_width(monkeypatch, chunk)
        rechunked = theta_sweep(RPMParams(), thetas=self.GRID, mode=mode, **self.RUN)
        assert sweep_rows(rechunked) == full

    def test_sampled_rows_keep_their_substreams(self):
        # away from theta = 0 and pi a one-orientation model has the family's
        # partition, so orientation j draws what a one-point run seeded with
        # substream_seed(seed, j) draws
        thetas = np.deg2rad([20.0, 65.0, 110.0])
        sweep_s, sweep_t = yields(
            theta_sweep(RPMParams(), thetas=thetas, mode="sampled", shots=4096, seed=9)
        )
        for j, theta in enumerate(thetas):
            model, rho0 = rpm_model(RPMParams(theta=float(theta)))
            one = quantum_evolve(
                model, rho0, [RPM_DEFAULT_T_END], mode="sampled", shots=4096,
                seed=substream_seed(9, j),
            )
            phi_s, phi_t = yields(one)
            assert (sweep_s[j], sweep_t[j]) == (phi_s[0], phi_t[0])

    def test_theta_zero_row_equals_the_one_point_run_up_to_rounding(self, monkeypatch):
        # the family's partition is coarser than theta = 0's own, so rounding
        # dust lands in buckets that are exactly zero in the one-point run and
        # the drawn counts may differ; amplitudes and substream must not
        drawn = []
        real_sample = lsvd.pipeline.sample

        def recording_sample(conditioned, shots, seed):
            drawn.append((np.array(conditioned), seed))
            return real_sample(conditioned, shots, seed)

        monkeypatch.setattr(lsvd.pipeline, "sample", recording_sample)
        thetas = np.deg2rad([0.0, 45.0, 90.0, 135.0, 180.0])
        theta_sweep(RPMParams(), thetas=thetas, mode="sampled", shots=4096, seed=5)
        model, rho0 = rpm_model(RPMParams(theta=0.0))
        quantum_evolve(
            model, rho0, [RPM_DEFAULT_T_END], mode="sampled", shots=4096,
            seed=substream_seed(5, 0),
        )
        assert len(drawn) == thetas.size + 1
        (family, family_seed), (one, one_seed) = drawn[0], drawn[-1]
        assert family_seed == one_seed == substream_seed(substream_seed(5, 0), 0)
        np.testing.assert_allclose(family, one, rtol=0, atol=1e-15)

    def test_weights_must_have_one_column_per_anchor(self):
        model, rho0 = rpm_model(RPMParams())
        for weights in (np.ones((4, 2)), np.ones((0, 1)), np.ones(3)):
            with pytest.raises(ValueError, match="weights"):
                lsvd.pipeline.evolve_family([model], weights, rho0, 1.0)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        phi=st.floats(0.0, 2.0 * np.pi),
        b0=st.floats(0.0, 1e-4),
        gamma_diss=st.one_of(st.just(0.0), st.floats(1.0, RPM_GAMMA_DISS_HIGH)),
    )
    # a near-symmetric compass: at its third orientation, theta =
    # 0.589149620091855, the one-point run's split drops 1.3e-12 of a
    # propagator and the run is repeated on whole components
    @example(seed=15693, phi=1.0, b0=np.nextafter(1e-4, 0.0), gamma_diss=0.0)
    def test_rows_match_one_model_per_orientation(self, seed, phi, b0, gamma_diss):
        rng = np.random.default_rng(seed)
        tensor = rng.normal(size=(3, 3)) * RPM_DEFAULT_HYPERFINE_AZ
        base = RPMParams(hyperfine=tensor + tensor.T, b0=b0, phi=phi, gamma_diss=gamma_diss)
        thetas = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, size=3)])
        sweep = theta_sweep(base, thetas=thetas)
        sweep_s, sweep_t = yields(sweep)
        for j, theta in enumerate(thetas):
            model, rho0 = rpm_model(replace(base, theta=float(theta)))
            one = quantum_evolve(model, rho0, [RPM_DEFAULT_T_END])
            phi_s, phi_t = yields(one)
            np.testing.assert_allclose(
                [sweep_s[j], sweep_t[j], sweep.success_prob[j]],
                [phi_s[0], phi_t[0], one.success_prob[0]],
                rtol=0,
                atol=1e-10,
            )

    @pytest.mark.parametrize("gamma_diss", [0.0, RPM_GAMMA_DISS_MID])
    def test_default_grid_matches_an_independent_reference(self, gamma_diss):
        base = RPMParams(gamma_diss=gamma_diss)
        reference = []
        for theta in default_theta_grid():
            model, rho0 = rpm_model(replace(base, theta=float(theta)))
            populations = reference_populations(model, rho0, [RPM_DEFAULT_T_END])[0]
            reference.append(populations[[8, 9]])
        np.testing.assert_allclose(
            np.column_stack(yields(theta_sweep(base))), reference, rtol=0, atol=1e-10
        )


class TestBuiltinModels:
    @pytest.mark.parametrize("name", BUILTIN_MODELS)
    def test_bundled_file_matches_builder(self, name):
        model, _ = builtin_model(name)
        loaded = load_model(bundled_model_path(name))
        assert model_to_dict(loaded) == model_to_dict(model)

    def test_regenerated_files_are_byte_identical(self, tmp_path):
        written = write_builtin_model_files(tmp_path / "data")
        assert [path.name for path in written] == [f"{name}.json" for name in BUILTIN_MODELS]
        for name, path in zip(BUILTIN_MODELS, written):
            assert path.read_bytes() == bundled_model_path(name).read_bytes()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_model("nope")


def test_readme_library_entry_points():
    # the README's first library block, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library entry points\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    classical = namespace["classical"].populations
    np.testing.assert_allclose(namespace["exact"].populations, classical, atol=1e-8)
    np.testing.assert_allclose(namespace["sampled"].populations, classical, atol=0.02)
    assert len(namespace["sweep"].times) == 201
    assert namespace["sweep_s"].shape == namespace["sweep_t"].shape == (201,)
    phi_s, phi_t = namespace["phi_s"], namespace["phi_t"]
    assert phi_s.shape == phi_t.shape == (2,)
    assert np.all(phi_s + phi_t <= 1.0 + 1e-10)
