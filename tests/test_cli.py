import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lsvd.cli
import lsvd.pipeline
from lsvd.circuit import estimate_resources
from lsvd.cli import main
from lsvd.lindblad import model_to_dict
from lsvd.models import (
    RPM_LABELS,
    FMOParams,
    RPMParams,
    builtin_model,
    default_theta_grid,
    fmo_model,
    rpm_model,
    step_grid,
    theta_sweep,
    yields,
)
from lsvd.pipeline import quantum_evolve
from lsvd.sampler import substream_seed

from conftest import bundled_model_path, random_model, reference_populations


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(*argv):
    return main(list(argv))


class TestFmoCommand:
    def test_exact_default_grid_shape(self, tmp_path):
        out = tmp_path / "fmo.csv"
        assert run("fmo", "--sites", "3", "--mode", "exact", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["time", "ground", "site1", "site2", "site3", "sink", "success_prob"]
        assert len(rows) == 401
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 2000.0
        populations = np.array([[float(v) for v in row[1:6]] for row in rows])
        assert populations.min() >= -1e-9
        assert populations.max() <= 1.0 + 1e-6
        np.testing.assert_allclose(populations.sum(axis=1), 1.0, atol=1e-8)
        meta = json.loads((tmp_path / "fmo.csv.meta.json").read_text())
        assert meta["qubits"] == {"system": 5, "total": 6}
        assert len(meta["scale_factors"]) == 401
        assert meta["rng"]["algorithm"] == "philox4x64"

    def test_populations_match_oracle(self, tmp_path):
        out = tmp_path / "fmo.csv"
        run("fmo", "--sites", "3", "--t-end", "200", "--out", str(out))
        header, rows = read_csv(out)
        model, rho0 = fmo_model(FMOParams.default(3))
        oracle = reference_populations(model, rho0, [float(r[0]) for r in rows])
        table = np.array([[float(v) for v in row[1:6]] for row in rows])
        np.testing.assert_allclose(table, oracle, atol=1e-8)

    def test_model_flag_is_unrecognized(self, capsys):
        # a model file runs through `evolve`; see TestModelFileFlags
        assert run("fmo", "--model", str(bundled_model_path("fmo3"))) == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err


class TestRpmCommand:
    def test_sweep_default_grid_has_201_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--theta-step", "9", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "phi_S", "phi_T", "success_prob"]
        assert len(rows) == 21
        assert float(rows[-1][0]) == 180.0

    def test_sweep_grid_stops_at_180_degrees(self, tmp_path):
        # a step that does not divide 180 must not overshoot it
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--theta-step", "50", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert [float(row[0]) for row in rows] == [0.0, 50.0, 100.0, 150.0]

    def test_sweep_table_is_the_library_trace(self, tmp_path):
        out = tmp_path / "sweep.json"
        argv = ["--theta-step", "45", "--t-end", "0.1", "--format", "json", "--out", str(out)]
        assert run("sweep", *argv) == 0
        thetas = default_theta_grid(45)
        trace = theta_sweep(RPMParams(), thetas, t_end=0.1)
        assert np.all(trace.times == 0.1)
        assert trace.labels == RPM_LABELS
        phi_s, phi_t = yields(trace)
        expected = [
            [float(v) for v in (np.rad2deg(theta), phi_s[j], phi_t[j], trace.success_prob[j])]
            for j, theta in enumerate(thetas)
        ]
        table = json.loads(out.read_text())
        assert table["rows"] == expected
        assert table["metadata"]["scale_factors"] == [float(s) for s in trace.scales]
        assert table["metadata"]["t_end"] == 0.1

    def test_sweep_writes_rpm_sweep_results_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("sweep", "--theta-step", "90") == 0
        assert (tmp_path / "rpm_sweep_results.csv").is_file()
        assert (tmp_path / "rpm_sweep_results.csv.meta.json").is_file()

    @pytest.mark.parametrize(
        "argv, substream, rule",
        [
            (
                ["sweep", "--theta-step", "45"],
                lambda j: substream_seed(substream_seed(5, j), 0),
                "SeedSequence([s mod 2^64, 0]).generate_state(1, uint64)[0] for s = "
                "SeedSequence([seed mod 2^64, orientation-index]).generate_state(1, uint64)[0]",
            ),
            (
                ["rpm", "--t-end", "0.02", "--dt", "0.005"],
                lambda i: substream_seed(5, i),
                "SeedSequence([seed mod 2^64, point-index]).generate_state(1, uint64)[0]",
            ),
        ],
        ids=["sweep", "trace"],
    )
    def test_metadata_states_the_substreams_drawn(
        self, argv, substream, rule, tmp_path, monkeypatch
    ):
        seeds = []
        real_sample = lsvd.pipeline.sample

        def recording_sample(vec, shots, seed):
            seeds.append(seed)
            return real_sample(vec, shots, seed)

        monkeypatch.setattr(lsvd.pipeline, "sample", recording_sample)
        out = tmp_path / "run.csv"
        flags = ["--mode", "sampled", "--shots", "4096", "--seed", "5", "--out", str(out)]
        assert run(*argv, *flags) == 0
        assert seeds == [substream(j) for j in range(5)]
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["rng"]["substream_rule"] == rule

    def test_theta_flag_is_in_degrees(self, tmp_path):
        out = tmp_path / "rpm.json"
        argv = ["--theta", "30", "--t-end", "0.0175", "--format", "json", "--out", str(out)]
        assert run("rpm", *argv) == 0
        table = json.loads(out.read_text())
        assert table["metadata"]["config"]["parameters"]["theta_rad"] == np.deg2rad(30)
        grid = step_grid(0.0175, table["metadata"]["config"]["dt"])
        trace = quantum_evolve(*rpm_model(RPMParams(theta=np.deg2rad(30))), grid)
        expected = [
            [float(v) for v in (trace.times[i], *trace.populations[i], trace.success_prob[i])]
            for i in range(grid.size)
        ]
        assert table["rows"] == expected

    def test_trace_headers(self, tmp_path):
        out = tmp_path / "rpm.csv"
        assert run("rpm", "--t-end", "0.02", "--dt", "0.005", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[0] == "time"
        assert header[-3:] == ["S", "T", "success_prob"]
        assert len(rows) == 5


class TestEvolveCommand:
    def test_model_file_trace(self, tmp_path, rng):
        model = random_model(rng, 3, time_unit="fs")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        out = tmp_path / "trace.csv"
        code = run(
            "evolve", "--model", str(path), "--initial", "1",
            "--dt", "0.1", "--t-end", "0.5", "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 6
        oracle = reference_populations(model, np.diag([0.0, 1.0, 0.0]), [0.5])
        np.testing.assert_allclose([float(v) for v in rows[-1][1:4]], oracle[0], atol=1e-8)

    def test_initial_out_of_range(self, tmp_path, rng):
        model = random_model(rng, 2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        assert run("evolve", "--model", str(path), "--initial", "5") == 2


class TestModelFileFlags:
    """``rpm --model`` replaces the built-in model, so its flags are refused."""

    RPM = str(bundled_model_path("rpm"))

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["rpm", "--model", RPM, "--gamma-diss", "1e6"], "--gamma-diss"),
            (["rpm", "--model", RPM, "--theta", "90", "--b0", "5e-5"], "--theta, --b0"),
            (["rpm", "--model", RPM, "--b0", "1e-5", "--theta", "90", "--b0", "2e-5"], "--b0, --theta"),
        ],
        ids=["rpm-one", "rpm-two", "rpm-repeated"],
    )
    def test_ignored_model_flags_exit_2(self, argv, flags, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(*argv, "--t-end", "0.01", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: --model replaces the built-in model, so {flags} would be ignored\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, builtin, t_end", [("fmo", "fmo3", "50"), ("rpm", "rpm", "0.01")]
    )
    def test_model_file_without_model_flags_matches_the_builtin(
        self, command, builtin, t_end, tmp_path
    ):
        # an exciton network's file runs through `evolve` from site 1, at fmo's step
        by_file_argv = {"fmo": ["evolve", "--initial", "1", "--dt", "5"], "rpm": ["rpm"]}[command]
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        model_file = str(bundled_model_path(builtin))
        argv = [*by_file_argv, "--model", model_file, "--t-end", t_end, "--out", str(by_file)]
        assert run(*argv) == 0
        assert run(command, "--t-end", t_end, "--out", str(by_flags)) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()

    def test_rpm_model_file_must_have_the_compass_dimension(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run("rpm", "--model", str(bundled_model_path("fmo3")), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: model file has dim 5; the compass initial state needs 10\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestParameterFlagDefaults:
    """A parameter flag left out takes the parameter class's default."""

    @staticmethod
    def parameters(tmp_path, *argv):
        out = tmp_path / "run.csv"
        assert run(*argv, "--out", str(out)) == 0
        return json.loads((tmp_path / "run.csv.meta.json").read_text())["config"]["parameters"]

    def test_fmo(self, tmp_path):
        params = self.parameters(tmp_path, "fmo", "--sites", "3")
        default = FMOParams.default(3)
        hamiltonian = np.diag(params["site_energies_cm1"]) + np.array(params["couplings_cm1"])
        np.testing.assert_array_equal(hamiltonian, default.hamiltonian_cm1)
        for name in ("gamma_deph", "gamma_diss", "gamma_sink"):
            assert params[name] == getattr(default, name)

    @pytest.mark.parametrize("command", ["rpm", "sweep"])
    def test_compass(self, command, tmp_path):
        params = self.parameters(tmp_path, command)
        recorded = {
            "hyperfine": params["hyperfine_rad_per_s"],
            "b0": params["b0_tesla"],
            "theta": params["theta_rad"],
            "phi": params["phi_rad"],
            "gamma_shelf": params["gamma_shelf_per_s"],
            "gamma_diss": params["gamma_diss_per_s"],
        }
        default = RPMParams()
        assert list(recorded) == [f.name for f in fields(RPMParams)]
        for name, value in recorded.items():
            np.testing.assert_array_equal(value, getattr(default, name))


class TestResourcesCommand:
    def test_eight_qubits_json(self, tmp_path, capsys):
        out = tmp_path / "resources.json"
        assert run("resources", "--qubits", "8", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["total"] == 64 * 2**15
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_csv_has_one_header_and_one_row(self, tmp_path, capsys):
        out = tmp_path / "resources.csv"
        assert run("resources", "--qubits", "8", "--format", "csv", "--out", str(out)) == 0
        header, rows = read_csv(out)
        printed = json.loads(capsys.readouterr().out)
        assert header == list(printed)
        assert rows == [[str(v) for v in printed.values()]]

    def test_invalid_qubits(self, tmp_path):
        assert run("resources", "--qubits", "1", "--out", str(tmp_path / "r.json")) == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unprintable_count_writes_nothing(self, fmt, tmp_path, capsys):
        # 8000 qubits give a 4,824-digit total; Python prints at most 4,300 by default
        assert run("resources", "--qubits", "8000", "--format", fmt, "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err.startswith("error: --qubits: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d", [7129, 7130])
    def test_refuses_exactly_the_counts_it_cannot_print(self, d, tmp_path):
        try:
            json.dumps(estimate_resources(d))
            printable = True
        except ValueError:
            printable = False
        assert run("resources", "--qubits", str(d), "--out", str(tmp_path / "r.json")) == (
            0 if printable else 2
        )

    def test_huge_count_refused_before_any_power_of_two(self, monkeypatch, tmp_path, capsys):
        def never(d):
            raise AssertionError("estimate_resources ran")

        monkeypatch.setattr(lsvd.cli, "estimate_resources", never)
        assert run("resources", "--qubits", str(10**12), "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr().err.startswith("error: --qubits: ")
        assert list(tmp_path.iterdir()) == []


class TestValidateCommand:
    @pytest.mark.parametrize("name", ["fmo3", "fmo7", "rpm", "rpm-dissipative"])
    def test_bundled_models_validate(self, name, capsys):
        assert run("validate", str(bundled_model_path(name))) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "superoperator_trace_preserving" in out

    def test_non_hermitian_fails(self, tmp_path, capsys):
        model, _ = builtin_model("fmo3")
        data = model_to_dict(model)
        data["hamiltonian"][0][1] = [999.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run("validate", str(path)) == 2
        out = capsys.readouterr().out
        assert "FAIL model" in out
        assert "not Hermitian" in out

    def test_negative_rate_names_channel(self, tmp_path, capsys):
        model, _ = builtin_model("fmo3")
        data = model_to_dict(model)
        data["channels"][2]["rate"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run("validate", str(path)) == 2
        out = capsys.readouterr().out
        assert "FAIL model" in out
        assert "negative rate" in out
        assert "channel 2" in out

    def test_unreadable_file(self, tmp_path):
        assert run("validate", str(tmp_path / "missing.json")) == 2

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("channels", 5, "'channels'"),
            ("channels", [5], "channel 0"),
            ("rate", [1], "channel 0 'rate'"),
            ("labels", 5, "'labels'"),
            ("dim", 5.9, "'dim'"),
            ("dim", 5.0, "'dim'"),
            ("dim", "5", "'dim'"),
            ("dim", True, "'dim'"),
            ("dim", 0, "'dim' must be positive, got 0"),
            (
                "hamiltonian",
                [[["re", "im"]] * 5] * 5,
                "hamiltonian must be an 5x5 matrix of [re, im] pairs: could not convert",
            ),
            ("rate", float("nan"), "channel 0 ('dephasing_site1') has rate nan, not a finite"),
            ("rate", float("inf"), "channel 0 ('dephasing_site1') has rate inf, not a finite"),
        ],
        ids=[
            "channels-number",
            "channel-number",
            "rate-list",
            "labels-number",
            "dim-fraction",
            "dim-float",
            "dim-string",
            "dim-bool",
            "dim-zero",
            "hamiltonian-strings",
            "rate-nan",
            "rate-inf",
        ],
    )
    def test_malformed_model_file_exits_2(self, key, value, field, tmp_path, capsys):
        data = model_to_dict(builtin_model("fmo3")[0])
        if key == "rate":
            data["channels"][0]["rate"] = value
        else:
            data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run("evolve", "--model", str(path), "--out", str(tmp_path / "run.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert run("validate", str(path)) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL model") and field in out


class TestOutputContracts:
    def test_csv_and_json_carry_identical_values(self, tmp_path):
        csv_out = tmp_path / "run.csv"
        json_out = tmp_path / "run.json"
        args = ["fmo", "--t-end", "50", "--mode", "sampled", "--shots", "4096", "--seed", "9"]
        assert run(*args, "--out", str(csv_out), "--format", "csv") == 0
        assert run(*args, "--out", str(json_out), "--format", "json") == 0
        header, rows = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        assert payload["columns"] == header
        for csv_row, json_row in zip(rows, payload["rows"]):
            assert [float(v) for v in csv_row] == json_row

    def test_reproducible_bytes_and_seed_sensitivity(self, tmp_path):
        base = ["fmo", "--t-end", "100", "--mode", "sampled", "--shots", "2048"]
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        assert run(*base, "--seed", "5", "--out", str(paths[0])) == 0
        assert run(*base, "--seed", "5", "--out", str(paths[1])) == 0
        assert run(*base, "--seed", "6", "--out", str(paths[2])) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_bad_flags_exit_2(self, capsys):
        assert run("fmo", "--mode", "nonsense") == 2
        assert run("fmo", "--dt", "-1") == 2
        capsys.readouterr()
        assert run("evolve") == 2
        assert "--model" in capsys.readouterr().err
        # a sweep sets theta itself, and --theta is no abbreviation of --theta-step
        assert run("sweep", "--theta", "30") == 2
        assert "unrecognized arguments: --theta 30" in capsys.readouterr().err
        assert run("rpm", "--sweep-theta") == 2
        assert run("sweep", "--theta-step", "0") == 2
        assert run("fmo", "--t-end", "inf") == 2
        assert run("fmo", "--dt", "nan") == 2
        capsys.readouterr()
        # numpy's multinomial draws int64 counts
        shots = ["--mode", "sampled", "--shots", "99999999999999999999", "--t-end", "5"]
        assert run("fmo", *shots) == 2
        assert "error: shots must be between 1 and 2**63 - 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fmo", "--t-end", "20"],
            ["rpm", "--t-end", "0.01"],
            ["evolve", "--model", str(bundled_model_path("fmo3")), "--dt", "10", "--t-end", "30"],
            ["sweep", "--theta-step", "45", "--t-end", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_run_command_writes_the_same_metadata_shape(self, argv, tmp_path):
        provenance = {
            "fmo": "bundled 7-site Hamiltonian after Adolphs & Renger (2006); ",
            "rpm": "CODATA electron gyromagnetic ratio; ",
            "evolve": f"model file {bundled_model_path('fmo3')}",
            "sweep": "CODATA electron gyromagnetic ratio; ",
        }[argv[0]]
        out = tmp_path / "run.csv"
        assert run(*argv, "--seed", "7", "--out", str(out)) == 0
        _, rows = read_csv(out)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        config = meta["config"]
        assert list(config) == [
            "command", "model_source", "dt", "t_end", "mode",
            "shots", "seed", "output", "format", "parameters",
        ]
        assert config["command"] == argv[0]
        assert config["output"] == str(out)
        assert meta["rng"]["seed"] == config["seed"] == 7
        assert len(meta["scale_factors"]) == len(rows) > 1
        assert meta["provenance"].startswith(provenance)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["rpm", "--gamma-diss", "nan", "--t-end", "0.01"], "gamma_diss"),
            (["sweep", "--gamma-diss", "nan", "--theta-step", "90"], "gamma_diss"),
            (["fmo", "--gamma-deph", "nan"], "gamma_deph"),
            (["fmo", "--gamma-sink", "inf"], "gamma_sink"),
            (["rpm", "--gamma-shelf", "nan"], "gamma_shelf"),
            (["rpm", "--b0", "nan"], "b0"),
            (["rpm", "--hyperfine-az", "inf"], "hyperfine"),
        ],
        ids=["rpm-diss-nan", "sweep-diss-nan", "deph-nan", "sink-inf", "shelf-nan", "b0-nan", "hyperfine-inf"],
    )
    def test_non_finite_model_parameter_names_the_field(self, argv, field, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step", ["nan", "0", "-1"])
    def test_bad_theta_step_names_the_flag(self, step, capsys):
        assert run("sweep", "--theta-step", step) == 2
        assert capsys.readouterr().err == (
            f"error: --theta-step: step {float(step)!r} must be positive and finite\n"
        )

    @pytest.mark.parametrize(
        "step, count", [("1e-05", "1.8e+07"), ("1e-300", "1.8e+302")], ids=["1e-5", "1e-300"]
    )
    def test_theta_step_beyond_the_orientation_cap_is_refused_before_the_grid(
        self, step, count, monkeypatch, tmp_path, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        # numpy would fail on either grid with its own message, or build it
        monkeypatch.setattr(lsvd.models.np, "arange", never)
        monkeypatch.setattr(lsvd.cli, "theta_sweep", never)
        assert run("sweep", "--theta-step", step, "--out", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err == (
            f"error: --theta-step: step {float(step)!r} up to 180.0 would give {count} points "
            f"(at most 1000000)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "dt, count", [("1e-13", "1e+13"), ("1e-300", "1e+300")], ids=["1e-13", "1e-300"]
    )
    def test_dt_beyond_the_grid_cap_is_refused_before_the_grid(
        self, dt, count, monkeypatch, tmp_path, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("the trace ran")

        # numpy would fail on either grid with its own message, naming no flag
        monkeypatch.setattr(lsvd.models.np, "arange", never)
        monkeypatch.setattr(lsvd.cli, "quantum_evolve", never)
        assert run("rpm", "--dt", dt, "--out", str(tmp_path / "r.csv")) == 2
        assert capsys.readouterr().err == (
            f"error: --dt: step {float(dt)!r} up to 1.0 would give {count} points "
            f"(at most 1000000)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rpm", "--theta", "200"], "--theta must lie in [0, 180] degrees"),
            (["rpm", "--theta", "-1"], "--theta must lie in [0, 180] degrees"),
            (["rpm", "--theta", "nan"], "--theta must lie in [0, 180] degrees"),
            (["resources", "--qubits", "1"], "--qubits: d must be at least 2, got 1"),
            (["sweep", "--theta-step", "inf"], "--theta-step: step inf must be positive and finite"),
            (["fmo", "--dt", "5", "--t-end", "1"], "--t-end must be at least --dt"),
        ],
        ids=["theta-200", "theta-negative", "theta-nan", "qubits-1", "theta-step-inf", "t-end-below-dt"],
    )
    def test_out_of_range_flag_names_the_flag(self, argv, message, tmp_path, capsys):
        assert run(*argv, "--out", str(tmp_path / "out.json")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t_end", ["-1", "nan", "inf"])
    def test_bad_sweep_t_end_names_the_flag(self, t_end, capsys):
        assert run("sweep", "--theta-step", "90", "--t-end", t_end) == 2
        assert capsys.readouterr().err == "error: --t-end must be finite and non-negative\n"

    def test_sweep_t_end_zero_is_valid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--theta-step", "90", "--t-end", "0", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_missing_model_file_exit_2(self):
        assert run("evolve", "--model", "/nonexistent/model.json") == 2

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # a rate of 1e25 fs⁻¹ needs more squarings than expm allows
        data = model_to_dict(builtin_model("fmo3")[0])
        data["channels"][0]["rate"] = 1e25
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "run.csv"
        assert run("evolve", "--model", str(path), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "80 squarings (cap 60)" in err
        assert not out.exists()

    def test_output_into_a_missing_directory_exits_4(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fmo.csv"
        assert run("fmo", "--t-end", "20", "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert list(tmp_path.iterdir()) == []

    def test_internal_key_error_is_not_reported_as_bad_input(self, monkeypatch, tmp_path):
        # every configuration error is a ValueError; a KeyError is a bug
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(lsvd.cli, "quantum_evolve", broken)
        with pytest.raises(KeyError, match="internal"):
            run("fmo", "--sites", "3", "--out", str(tmp_path / "fmo.csv"))


def fresh_python(*args):
    """Run a new interpreter on the package's source tree; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_runs_as_a_module():
    assert fresh_python("-m", "lsvd", "--version").startswith("lsvd ")


# pytest and hypothesis load numpy.random themselves, so each check runs the
# CLI in an interpreter of its own
_RUNS_THEN_MODULES = """
import sys
from lsvd.cli import main
for argv in {runs!r}:
    assert main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "mode, loaded", [("exact", False), ("sampled", True)], ids=["exact", "sampled"]
)
def test_only_sampled_runs_load_numpy_random(tmp_path, mode, loaded):
    runs = [
        ["rpm", "--t-end", "0.0175"],
        ["sweep", "--theta-step", "45"],
        ["fmo", "--sites", "3"],
        ["evolve", "--model", str(bundled_model_path("fmo7")), "--t-end", "50"],
    ]
    extra = ["--shots", "4096"] if mode == "sampled" else []
    runs = [
        [*run, "--mode", mode, *extra, "--out", str(tmp_path / f"{i}.csv")]
        for i, run in enumerate(runs)
    ]
    out = fresh_python("-c", _RUNS_THEN_MODULES.format(runs=runs))
    assert out.splitlines()[-1] == str(loaded)


_BASIS_AND_PROBES = """
import hashlib
import lsvd.circuit
import lsvd.pipeline as pipeline
from lsvd.models import builtin_model

states = []
def recording(circuit, state, run=lsvd.circuit.run_exact):
    states.append(state)
    return run(circuit, state)
lsvd.circuit.run_exact = recording  # the probe check's, not the pipeline's
model, rho0 = builtin_model("rpm")
pipeline.quantum_evolve(model, rho0, [1.0])  # the first states are the probes
generator = pipeline._real_generator(model)
basis = pipeline._working_basis([generator], pipeline._terms(model))[1][0]
print(*(hashlib.sha256(array.tobytes()).hexdigest() for array in (basis, states[0])))
"""


def test_working_basis_and_probes_are_the_same_in_every_process():
    first, second = (fresh_python("-c", _BASIS_AND_PROBES) for _ in range(2))
    assert len(first.split()) == 2
    assert first == second
