"""Tests of the benchmark's own code: the reference check, the span
arithmetic, and entry points that are never called or have gone."""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import refcheck  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, covered, layer_metrics, self_times  # noqa: E402

from lsvd.cli import main as cli_main  # noqa: E402
from lsvd.models import RPMParams, rpm_model  # noqa: E402


def _perturb(src: Path, dst: Path, row: int, column: str, delta: float) -> None:
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) + delta)
    lines[row + 1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


def test_reference_check_passes_true_table_and_fails_perturbed(tmp_path):
    table = tmp_path / "rpm.csv"
    assert cli_main(["rpm", "--t-end", "0.0175", "--out", str(table)]) == 0
    model, rho0 = rpm_model(RPMParams.default())
    rng = np.random.default_rng(0)
    ref = refcheck.grid_reference(model, rho0, 1.75e-3, 11, refcheck.EXACT_TOL, rng)

    good = refcheck.check_table(table, ref)
    assert (good.rows, good.failed_rows) == (11, 0)
    assert good.max_err < 1e-10

    bad = tmp_path / "perturbed.csv"
    _perturb(table, bad, row=5, column="S", delta=1e-6)
    check = refcheck.check_table(bad, ref)
    assert check.failed_rows == 1
    assert check.max_err == pytest.approx(1e-6, rel=1e-3)
    assert check.sha256 != good.sha256

    assert refcheck.check_table(tmp_path / "absent.csv", ref).failed_rows == 11


def test_sweep_reference_check(tmp_path):
    table = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--theta-step", "45", "--out", str(table)]) == 0
    thetas = np.rad2deg(np.deg2rad(np.arange(0.0, 180.0 + 22.5, 45.0)))
    ref = refcheck.sweep_reference(RPMParams.default(), thetas, 1.0, np.random.default_rng(1))
    assert refcheck.check_table(table, ref).failed_rows == 0

    bad = tmp_path / "perturbed.csv"
    _perturb(table, bad, row=2, column="phi_T", delta=-1e-6)
    assert refcheck.check_table(bad, ref).failed_rows == 1


def test_generator_check_rejects_a_wrong_generator(monkeypatch):
    model, _ = rpm_model(RPMParams.default())
    monkeypatch.setattr(refcheck, "build_superoperator", lambda m: np.eye(m.dim**2))
    with pytest.raises(refcheck.GeneratorMismatch):
        refcheck.checked_generator(model, np.random.default_rng(0))


def _span(id, start, end, parent=None, thread=1, name="x", **attrs):
    return Span(id, name, float(start), float(end), parent, thread, attrs)


def test_self_time_with_nested_and_cross_thread_children():
    spans = [
        _span(1, 0, 10),
        _span(2, 1, 4, parent=1),
        _span(3, 2, 3, parent=2),
        _span(4, 3, 6, parent=1, thread=2),  # overlaps span 2 from another thread
        _span(5, 9, 12, parent=1, thread=2),  # outlives its parent
    ]
    assert self_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 3.0})
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)


def test_parallel_efficiency_counts_children_on_every_worker():
    spans = [
        _span(1, 0, 10, name="pipeline.time_points", rss_growth=4 * 2**20),
        _span(2, 0, 10, parent=1, thread=2, name="lindblad.propagator"),
        _span(3, 0, 8, parent=1, thread=3, name="lindblad.propagator"),
    ]
    metrics = layer_metrics(spans, workers=2)
    assert metrics["pipeline.parallel_eff"] == pytest.approx(0.9)
    assert metrics["pipeline.self_s"] == pytest.approx(0.0)
    assert metrics["lindblad.propagator.self_s"] == pytest.approx(18.0)
    assert metrics["pipeline.rss_growth_mb"] == pytest.approx(4.0)


def test_recorded_worker_spans_hang_under_the_span_that_started_the_pool():
    recorder = Recorder()
    inner = recorder.wrap(lambda x: x * 2, "inner")

    def outer_fn(items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, items))

    outer = recorder.wrap(outer_fn, "outer")
    assert outer([1, 2, 3]) == [2, 4, 6]
    (top,) = [s for s in recorder.spans if s.name == "outer"]
    workers = [s for s in recorder.spans if s.name == "inner"]
    assert len(workers) == 3
    assert all(s.parent == top.id for s in workers)
    assert top.thread == threading.get_ident()


def test_missing_or_uncalled_entry_points_report_zero_calls(monkeypatch):
    fake = types.ModuleType("fake_lsvd_layer")
    fake.sample = lambda *a: None
    original = fake.sample
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    recorder = Recorder()
    recorder.install(
        [(fake.__name__, "sample", "sampler.sample"), (fake.__name__, "renamed", "numerics.expm")]
    )
    assert recorder.missing == ["fake_lsvd_layer.renamed"]
    assert fake.sample is not original

    metrics = layer_metrics(recorder.spans, workers=1)
    assert metrics["sampler.sample.calls"] == 0
    assert metrics["numerics.expm.calls"] == 0
    assert metrics["numerics.expm.ms_p95"] == 0
    assert metrics["sampler.postselect_ratio"] == 0


def test_traced_metrics_cover_exactly_the_benchmark_per_layer_list():
    def make(traced):
        return run.Run(traced, 0, 0.2, 1.0, 1.2, 50.0, 0.0, rows=3, spans=[], missing=[])

    metrics = run.traced_metrics([make(False), make(True)], run.WORKLOADS["rpm-grid"], 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["circuit.apply.calls"]["value"] == 0

    predictions = json.loads((BENCH / "predictions.json").read_text())["per_layer"]
    assert set(predictions) == set(metrics)
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(run.WORKLOADS)
    assert all(set(p["workloads"]) <= names for p in predictions.values())
