"""End-to-end benchmark of the bundled ``lsvd`` CLI runs.

    python3 perfbench/run.py --workload rpm-grid --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nothing is installed.  Each CLI run is a fresh process
(``perfbench/child.py``) that calls ``lsvd.cli.main``; runs follow one
another in a closed loop until the next one would end after
``--seconds``.  Every row of every table is checked against an
independent reference (``refcheck.py``), computed once per invocation
before any timed run.  With ``--trace 1`` the runs alternate between
untraced and traced, and the traced ones report per-layer metrics from
spans recorded around the package's entry points (``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Rows are the unit
of work: ``attempted`` counts every table row the runs were asked for,
``failed`` the ones that missed their reference check, came from a run
whose table hash differs from the first run's, or were never written.
The lines before it give each metric's quartiles and run count, and the
environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"

#: Set-up-only processes per invocation, after one uncounted warm-up that
#: byte-compiles the package.
SETUP_PROBES = 8
#: Every invocation ends well inside the 180 s a run may take.
DEADLINE_S = 165.0
#: Thread variables removed from the runs' environment, so BLAS threads
#: stay at the program's default whatever the caller's shell sets.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    threads: str | None  # LSVD_THREADS for the runs; None leaves it unset
    seeded: bool  # whether the CLI receives the benchmark seed
    sampled: bool
    rows: int  # table rows one run writes


# The grids are the CLI defaults: rpm 0..1 ms at 1.75e-3 ms (572 points),
# fmo 0..2000 fs at 5 fs (401 points), the sweep 0..180 deg at 0.9 deg.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rpm-grid", ("rpm", "--mode", "exact"), None, False, False, 572),
        Workload("rpm-sweep", ("sweep",), None, False, False, 201),
        Workload(
            "fmo7-sampled",
            ("fmo", "--sites", "7", "--mode", "sampled", "--shots", "524288"),
            "2",
            True,
            True,
            401,
        ),
    )
}


def reference_for(workload: Workload, seed: int):
    """The workload's reference table (imports numpy, so called late)."""
    import numpy as np

    from lsvd.models import FMOParams, RPMParams, fmo_model, rpm_model
    from refcheck import EXACT_TOL, SAMPLED_TOL, grid_reference, sweep_reference

    rng = np.random.default_rng(seed)
    if workload.name == "rpm-grid":
        model, rho0 = rpm_model(RPMParams.default())
        return grid_reference(model, rho0, 1.75e-3, workload.rows, EXACT_TOL, rng)
    if workload.name == "rpm-sweep":
        thetas = np.rad2deg(np.deg2rad(np.arange(0.0, 180.0 + 0.45, 0.9)))
        return sweep_reference(RPMParams.default(), thetas, 1.0, rng)
    model, rho0 = fmo_model(FMOParams.default(7))
    return grid_reference(model, rho0, 5.0, workload.rows, SAMPLED_TOL, rng)


def read_steal_s() -> float | None:
    """Host steal time summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


@dataclass
class Run:
    traced: bool
    rc: int | None
    setup_s: float | None
    run_s: float
    wall_s: float
    rss_mb: float
    steal_s: float | None
    rows: int = 0
    failed_rows: int = 0
    max_err: float = 0.0
    sha256: str | None = None
    spans: list | None = None
    missing: list | None = None
    scale_max: float = 0.0
    env: dict | None = None


def spawn(tag: str, traced: bool, cli_args, env: dict, out: Path, timeout: float) -> Run:
    """Start one fresh process, wait for it, and read what it reported."""
    result_path = out / f"{tag}.json"
    steal0 = read_steal_s()
    start = time.monotonic()
    with open(out / f"{tag}.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), str(SRC), "1" if traced else "0", *cli_args],
            cwd=out,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - start
    steal1 = read_steal_s()
    steal = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        return Run(traced, None, None, wall, wall, 0.0, steal)
    ready = res["ready"]
    return Run(
        traced=traced,
        rc=res.get("rc"),
        setup_s=ready - start,
        run_s=res.get("done", ready) - ready,
        wall_s=wall,
        rss_mb=res["peak_rss_kb"] / 1024.0,
        steal_s=steal,
        spans=res.get("spans"),
        missing=res.get("missing"),
        env=res.get("env"),
    )


def cli_run(index, traced, workload, seed, env, out, ref, timeout) -> Run:
    """One CLI run of ``workload``, its table checked against ``ref``."""
    from refcheck import check_table

    tag = f"run{index:02d}"
    table = out / f"{tag}.csv"
    args = [*workload.cli_args, "--out", str(table)]
    if workload.seeded:
        args += ["--seed", str(seed)]
    run = spawn(tag, traced, args, env, out, timeout)
    if ref is None:
        return run

    check = check_table(table, ref)
    run.rows, run.max_err, run.sha256 = check.rows, check.max_err, check.sha256
    run.failed_rows = check.failed_rows if run.rc == 0 else workload.rows
    try:
        with open(f"{table}.meta.json", encoding="utf-8") as fh:
            run.scale_max = float(max(json.load(fh).get("scale_factors", [0.0])))
    except (OSError, ValueError, TypeError):
        pass
    return run


def quartiles(values) -> tuple[float, float, float]:
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def traced_metrics(runs: list[Run], workload: Workload, failed_rows: int) -> dict:
    """Per-layer metrics: medians over the traced runs, plus the checks."""
    from spans import Span, layer_metrics

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    workers = int(workload.threads) if workload.threads else 1
    traced = [r for r in runs if r.traced]
    per_run = []
    for r in traced:
        run_values = layer_metrics([Span.from_list(s) for s in r.spans or ()], workers)
        run_values["dilation.scale_max"] = r.scale_max
        per_run.append(run_values)
    missing = sorted({m for r in traced for m in r.missing or ()})
    if missing:
        print(f"entry points not found (zero calls): {', '.join(missing)}")
    worst = max(r.max_err for r in runs)
    plain_s = statistics.median(r.run_s for r in runs if not r.traced)
    traced_s = statistics.median(r.run_s for r in traced)
    values = {name: statistics.median(v[name] for v in per_run) for name in per_run[0]}
    values.update({
        "check.max_abs_err": 0.0 if workload.sampled else worst,
        "check.max_pop_err": worst if workload.sampled else 0.0,
        "check.failed_rows": failed_rows,
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s > 0 else 0.0,
    })
    if set(values) != set(units):
        raise KeyError(f"per-layer metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def environment_record(workload: Workload, seed: int, runs: list[Run]) -> dict:
    """What a result depends on besides the code, and the host steal time
    during each run, so that a run slowed by a noisy host can be spotted."""
    import numpy as np
    import scipy

    seen = runs[0].env or {}
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "LSVD_THREADS": seen.get("LSVD_THREADS") or "unset",
        "OPENBLAS_NUM_THREADS": seen.get("OPENBLAS_NUM_THREADS") or "unset",
        "commit": git_commit(ROOT),
        "runs": [
            {
                "traced": r.traced,
                "rc": r.rc,
                "run_s": round(r.run_s, 6),
                "steal_s": None if r.steal_s is None else round(r.steal_s, 2),
                "sha256": r.sha256,
            }
            for r in runs
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.monotonic()
    workload = WORKLOADS[args.workload]

    if not (SRC / "lsvd" / "cli.py").is_file():
        print(f"no package source at {SRC / 'lsvd'}; run from a checkout", file=sys.stderr)
        return 2

    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.pop("LSVD_THREADS", None)
    if workload.threads is not None:
        child_env["LSVD_THREADS"] = workload.threads
    # The reference runs here, before any timed run, on one BLAS thread so
    # that no idle BLAS worker of this process competes with the runs.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    from refcheck import GeneratorMismatch

    ref_start = time.monotonic()
    try:
        ref = reference_for(workload, args.seed)
    except GeneratorMismatch as exc:
        print(f"reference unavailable: {exc}", file=sys.stderr)
        ref = None
    ref_s = time.monotonic() - ref_start

    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = begin + DEADLINE_S

    setups = []
    for i in range(SETUP_PROBES + 1):
        probe = spawn(f"setup{i}", False, (), child_env, out, deadline - time.monotonic())
        if i and probe.setup_s is not None:
            setups.append(probe.setup_s)

    runs: list[Run] = []
    loop_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(
            cli_run(len(runs), traced, workload, args.seed, child_env, out, ref,
                    deadline - time.monotonic())
        )
        if args.trace and len(runs) < 2:
            continue  # a traced run needs an untraced one to compare with
        typical = statistics.median(r.wall_s for r in runs)
        now = time.monotonic()
        if now - loop_start + typical > args.seconds or now + typical > deadline:
            break

    first_hash = next((r.sha256 for r in runs if r.sha256), None)
    for r in runs:
        if ref is None or r.sha256 != first_hash:
            r.failed_rows = workload.rows
    attempted = workload.rows * len(runs)
    failed = sum(r.failed_rows for r in runs)

    plain = [r for r in runs if not r.traced]
    setups += [r.setup_s for r in plain if r.setup_s is not None]
    samples = {
        "setup_s": (setups, "s"),
        "run_s": ([r.run_s for r in plain], "s"),
        "points_per_s": ([r.rows / r.run_s if r.run_s > 0 else 0.0 for r in plain], "1/s"),
        "peak_rss_mb": ([r.rss_mb for r in plain], "MB"),
    }
    for name, (values, unit) in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name:14s} median {q2:.6g} {unit}  p25 {q1:.6g}  p75 {q3:.6g}  n={len(values)}")
    print(f"reference      {ref_s:.3f} s outside the timed runs; "
          f"rows attempted {attempted}, failed {failed}")

    if args.trace:
        metrics = traced_metrics(runs, workload, failed)
    else:
        metrics = {
            name: {"value": quartiles(values)[1], "unit": unit}
            for name, (values, unit) in samples.items()
        }

    print(json.dumps({"environment": environment_record(workload, args.seed, runs)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
