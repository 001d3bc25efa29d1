import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsvd.cli import main
from lsvd.lindblad import classical_evolve, model_to_dict
from lsvd.models import FMOParams, builtin_model, builtin_model_path, fmo_model

from conftest import random_model


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
        oracle = classical_evolve(model, rho0, [float(r[0]) for r in rows])
        table = np.array([[float(v) for v in row[1:6]] for row in rows])
        np.testing.assert_allclose(table, oracle.populations, atol=1e-8)


class TestRpmCommand:
    def test_sweep_default_grid_has_201_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--theta-step", "9", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "phi_S", "phi_T", "success_prob"]
        assert len(rows) == 21
        assert float(rows[-1][0]) == 180.0

    def test_sweep_writes_rpm_sweep_results_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("sweep", "--theta-step", "90") == 0
        assert (tmp_path / "rpm_sweep_results.csv").is_file()
        assert (tmp_path / "rpm_sweep_results.csv.meta.json").is_file()

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
        oracle = classical_evolve(model, np.diag([0.0, 1.0, 0.0]), [0.5])
        np.testing.assert_allclose(
            [float(v) for v in rows[-1][1:4]], oracle.populations[0], atol=1e-8
        )

    def test_initial_out_of_range(self, tmp_path, rng):
        model = random_model(rng, 2)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        assert run("evolve", "--model", str(path), "--initial", "5") == 2


class TestResourcesCommand:
    def test_eight_qubits_json(self, tmp_path, capsys):
        out = tmp_path / "resources.json"
        assert run("resources", "--qubits", "8", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["total"] == 64 * 2**15
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_invalid_qubits(self, tmp_path):
        assert run("resources", "--qubits", "1", "--out", str(tmp_path / "r.json")) == 2


class TestValidateCommand:
    @pytest.mark.parametrize("name", ["fmo3", "fmo7", "rpm", "rpm-dissipative"])
    def test_bundled_models_validate(self, name, capsys):
        assert run("validate", str(builtin_model_path(name))) == 0
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
        assert run("rpm", "--sweep-theta") == 2
        assert run("sweep", "--theta-step", "0") == 2
        assert run("fmo", "--t-end", "inf") == 2
        assert run("fmo", "--dt", "nan") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fmo", "--t-end", "20"],
            ["rpm", "--t-end", "0.01"],
            ["evolve", "--model", str(builtin_model_path("fmo3")), "--dt", "10", "--t-end", "30"],
            ["sweep", "--theta-step", "45", "--t-end", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_run_command_writes_the_same_metadata_shape(self, argv, tmp_path):
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

    @pytest.mark.parametrize("step", ["nan", "0", "-1"])
    def test_bad_theta_step_names_the_flag(self, step, capsys):
        assert run("sweep", "--theta-step", step) == 2
        assert capsys.readouterr().err == "error: --theta-step must be positive\n"

    def test_missing_model_file_exit_2(self):
        assert run("evolve", "--model", "/nonexistent/model.json") == 2


def test_package_runs_as_a_module():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "lsvd", "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("lsvd ")
