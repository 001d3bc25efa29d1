"""Command-line front end.

Loads a built-in or file-based model, orchestrates exact or finite-shot
runs and orientation sweeps, and emits plot-ready result tables (CSV or
JSON) together with a reproducibility metadata block (resolved parameters,
qubit counts, per-point dilation scales, resource estimates, seed and RNG
algorithm).  Numeric values are written in shortest round-trip decimal
form, so identical configurations reproduce byte-identical tables.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import LsvdError
from .lindblad import (
    LindbladModel,
    build_superoperator,
    load_model,
    trace_preservation_defect,
)
from .models import (
    BUILTIN_MODELS,
    FMO_DEFAULT_DT,
    FMO_DEFAULT_T_END,
    RPM_DEFAULT_DT,
    RPM_DEFAULT_T_END,
    THETA_DEFAULT_STEP_DEG,
    FMOParams,
    RPMParams,
    default_theta_grid,
    fmo_model,
    rpm_model,
    theta_sweep,
)
from .pipeline import quantum_evolve, qubit_counts
from .sampler import DEFAULT_SHOTS, RNG_ALGORITHM
from .circuit import estimate_resources


@dataclass
class RunConfig:
    """Resolved run configuration, embedded verbatim in the metadata block."""

    command: str
    model_source: str
    dt: float | None
    t_end: float | None
    mode: str
    shots: int
    seed: int
    output: str
    format: str
    parameters: dict


def _load_model_file(path: str) -> LindbladModel:
    try:
        return load_model(path)
    except OSError as exc:
        # an unreadable model source is a configuration problem, not an
        # output I/O failure
        raise ValueError(f"cannot read model file {path}: {exc}") from exc


def _time_grid(dt: float, t_end: float) -> np.ndarray:
    if not (np.isfinite(dt) and np.isfinite(t_end)):
        raise ValueError("--dt and --t-end must be finite")
    if dt <= 0:
        raise ValueError("--dt must be positive")
    if t_end < dt:
        raise ValueError("--t-end must be at least --dt")
    steps = int(np.floor(t_end / dt + 1e-9))
    return np.arange(steps + 1) * dt


def _fmt(x) -> str:
    return repr(float(x))


def _write_outputs(columns, rows, metadata, out: str, fmt: str) -> tuple[str, str]:
    """Write the results table plus metadata; returns (table path, meta path)."""
    rows = [[float(v) for v in row] for row in rows]
    if fmt == "csv":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        meta_path = out + ".meta.json"
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(metadata, fh, indent=2)
            fh.write("\n")
        return out, meta_path
    if fmt == "json":
        payload = {"columns": list(columns), "rows": rows, "metadata": metadata}
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return out, out
    raise ValueError(f"unknown format {fmt!r}")


def _metadata(config: RunConfig, model: LindbladModel, columns, extra: dict) -> dict:
    k, d = qubit_counts(model.dim)
    meta = {
        "package": {"name": "lsvd", "version": __version__},
        "config": asdict(config),
        "model": {
            "dim": model.dim,
            "time_unit": model.time_unit,
            "labels": list(model.labels),
            "channels": [
                {"label": ch.label, "rate": ch.rate} for ch in model.channels
            ],
        },
        "qubits": {"system": k, "total": d},
        "resource_estimate": asdict(estimate_resources(d)),
        "rng": {
            "algorithm": RNG_ALGORITHM,
            "seed": config.seed,
            "substream_rule": (
                "SeedSequence([seed mod 2^64, point-index])"
                ".generate_state(1, uint64)[0]"
            ),
        },
        "dilation": {
            "scale_rule": (
                "singular values divided by max(1, sigma_max); exact mode "
                "multiplies the scale back, sampled estimates are "
                "normalization-invariant to it"
            ),
        },
        "columns": list(columns),
        "provenance": (
            "bundled 7-site Hamiltonian after Adolphs & Renger (2006); "
            "environment rates and hyperfine strength are documented "
            "stand-ins, overridable via flags or a model file"
        ),
    }
    meta.update(extra)
    return meta


def _emit_trace(config: RunConfig, model: LindbladModel, trace) -> tuple[str, str]:
    columns = ["time", *model.labels, "success_prob"]
    rows = [
        [trace.times[i], *trace.populations[i], trace.success_prob[i]]
        for i in range(trace.times.size)
    ]
    extra = {"scale_factors": [float(s) for s in trace.scales]}
    meta = _metadata(config, model, columns, extra)
    return _write_outputs(columns, rows, meta, config.output, config.format)


def _run_trace_command(args, command: str, model: LindbladModel, rho0, params: dict) -> int:
    grid = _time_grid(args.dt, args.t_end)
    config = RunConfig(
        command=command,
        model_source=args.model if args.model else command,
        dt=args.dt,
        t_end=args.t_end,
        mode=args.mode,
        shots=args.shots,
        seed=args.seed,
        output=args.out or f"{command}_results.{args.format}",
        format=args.format,
        parameters=params,
    )
    trace = quantum_evolve(
        model, rho0, grid, mode=args.mode, shots=args.shots, seed=args.seed
    )
    table, meta = _emit_trace(config, model, trace)
    print(f"wrote {trace.times.size} rows to {table} (metadata: {meta})")
    return 0


def _cmd_fmo(args) -> int:
    if args.model:
        model = _load_model_file(args.model)
        if model.dim < 3:
            raise ValueError("an exciton-network model needs at least ground, one site and a sink")
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[1, 1] = 1.0
        params = {"model_file": args.model}
    else:
        fmo = FMOParams.default(
            args.sites,
            gamma_deph=args.gamma_deph,
            gamma_diss=args.gamma_diss,
            gamma_sink=args.gamma_sink,
        )
        model, rho0 = fmo_model(fmo)
        params = {
            "n_sites": fmo.n_sites,
            "site_energies_cm1": list(fmo.site_energies),
            "couplings_cm1": [list(row) for row in fmo.couplings],
            "gamma_deph": fmo.gamma_deph,
            "gamma_diss": fmo.gamma_diss,
            "gamma_sink": fmo.gamma_sink,
            "initial_state": "site1",
        }
    return _run_trace_command(args, "fmo", model, rho0, params)


def _rpm_params(args) -> RPMParams:
    return RPMParams(
        hyperfine=np.diag([0.0, 0.0, args.hyperfine_az]),
        b0=args.b0,
        theta=np.deg2rad(args.theta),
        gamma_shelf=args.gamma_shelf,
        gamma_diss=args.gamma_diss,
    )


def _rpm_param_dict(params: RPMParams) -> dict:
    return {
        "hyperfine_rad_per_s": [list(row) for row in params.hyperfine],
        "b0_tesla": params.b0,
        "theta_rad": params.theta,
        "phi_rad": params.phi,
        "gyromagnetic_rad_per_s_per_T": params.gyromagnetic,
        "gamma_shelf_per_s": params.gamma_shelf,
        "gamma_diss_per_s": params.gamma_diss,
        "initial_state": "electron singlet, mixed nucleus",
    }


def _run_sweep(args) -> int:
    if not args.theta_step > 0:
        raise ValueError("--theta-step must be positive")
    base = _rpm_params(args)
    config = RunConfig(
        command="sweep",
        model_source="rpm",
        dt=None,
        t_end=args.t_end,
        mode=args.mode,
        shots=args.shots,
        seed=args.seed,
        output=args.out or f"rpm_sweep_results.{args.format}",
        format=args.format,
        parameters={**_rpm_param_dict(base), "theta_step_deg": args.theta_step},
    )
    result = theta_sweep(
        base,
        thetas=default_theta_grid(args.theta_step),
        t_end=args.t_end,
        mode=args.mode,
        shots=args.shots,
        seed=args.seed,
    )
    model, _ = rpm_model(base)
    columns = ["theta_deg", "phi_S", "phi_T", "success_prob"]
    rows = [
        [np.rad2deg(result.thetas[i]), result.phi_s[i], result.phi_t[i], result.success_prob[i]]
        for i in range(result.thetas.size)
    ]
    extra = {"scale_factors": [float(s) for s in result.scales], "t_end": result.t_end}
    meta = _metadata(config, model, columns, extra)
    table, meta_path = _write_outputs(columns, rows, meta, config.output, config.format)
    print(f"wrote {result.thetas.size} rows to {table} (metadata: {meta_path})")
    return 0


def _cmd_rpm(args) -> int:
    if args.model:
        model = _load_model_file(args.model)
        _, rho0 = rpm_model(_rpm_params(args))
        if model.dim != rho0.shape[0]:
            raise ValueError(
                f"model file has dim {model.dim}; the compass initial state needs 10"
            )
        params = {"model_file": args.model}
    else:
        base = _rpm_params(args)
        model, rho0 = rpm_model(base)
        params = _rpm_param_dict(base)
    return _run_trace_command(args, "rpm", model, rho0, params)


def _cmd_evolve(args) -> int:
    model = _load_model_file(args.model)
    if not (0 <= args.initial < model.dim):
        raise ValueError(
            f"--initial {args.initial} is out of range for a {model.dim}-level model"
        )
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[args.initial, args.initial] = 1.0
    params = {"model_file": args.model, "initial_level": args.initial}
    return _run_trace_command(args, "evolve", model, rho0, params)


def _cmd_resources(args) -> int:
    payload = asdict(estimate_resources(args.qubits))
    out = args.out or f"resources_results.{args.format}"
    if args.format == "csv":
        columns = list(payload.keys())
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerow([payload[c] for c in columns])
    else:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload))
    return 0


def _cmd_validate(args) -> int:
    try:
        model = load_model(args.model_file)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"FAIL model ({exc})")
        return 2
    print(f"PASS model ({model.dim} levels, {len(model.channels)} channels)")
    defect = trace_preservation_defect(build_superoperator(model), model.dim)
    ok = defect <= 1e-10
    print(f"{'PASS' if ok else 'FAIL'} superoperator_trace_preserving (relative defect {defect:.3e})")
    return 0 if ok else 2


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default: <command>_results.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_run_flags(parser: argparse.ArgumentParser, dt: float, t_end: float) -> None:
    parser.add_argument("--dt", type=float, default=dt, help="time step in model time units")
    parser.add_argument("--t-end", type=float, default=t_end, help="end time in model time units")
    parser.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    parser.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", default=None, help="model file overriding the built-in")
    _add_output_flags(parser)


def _add_rpm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=90.0, help="field orientation in degrees")
    parser.add_argument("--b0", type=float, default=RPMParams().b0, help="field magnitude in tesla")
    parser.add_argument(
        "--hyperfine-az",
        type=float,
        default=float(RPMParams().hyperfine[2, 2]),
        help="axial hyperfine component in rad/s",
    )
    parser.add_argument("--gamma-shelf", type=float, default=RPMParams().gamma_shelf, help="shelving rate in 1/s")
    parser.add_argument("--gamma-diss", type=float, default=0.0, help="electron dephasing rate in 1/s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsvd",
        description=(
            "Simulate Markovian open-system dynamics through SVD-dilated "
            "unitary circuits (exact or finite-shot emulation)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"lsvd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fmo = sub.add_parser("fmo", help="exciton-transport population trace")
    p_fmo.add_argument("--sites", type=int, choices=(3, 7), default=3)
    p_fmo.add_argument("--gamma-deph", type=float, default=FMOParams.default(3).gamma_deph, help="site dephasing rate in 1/fs")
    p_fmo.add_argument("--gamma-diss", type=float, default=FMOParams.default(3).gamma_diss, help="dissipation rate in 1/fs")
    p_fmo.add_argument("--gamma-sink", type=float, default=FMOParams.default(3).gamma_sink, help="sink transfer rate in 1/fs")
    _add_run_flags(p_fmo, FMO_DEFAULT_DT, FMO_DEFAULT_T_END)
    p_fmo.set_defaults(func=_cmd_fmo)

    p_rpm = sub.add_parser("rpm", help="radical-pair yields trace")
    _add_rpm_flags(p_rpm)
    _add_run_flags(p_rpm, RPM_DEFAULT_DT, RPM_DEFAULT_T_END)
    p_rpm.set_defaults(func=_cmd_rpm)

    p_sweep = sub.add_parser("sweep", help="orientation sweep of the compass yields")
    p_sweep.add_argument("--theta-step", type=float, default=THETA_DEFAULT_STEP_DEG, help="sweep step in degrees")
    _add_rpm_flags(p_sweep)
    p_sweep.add_argument("--t-end", type=float, default=RPM_DEFAULT_T_END)
    p_sweep.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p_sweep.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=_run_sweep)

    p_evolve = sub.add_parser("evolve", help="population trace of a model file")
    p_evolve.add_argument("--initial", type=int, default=0, help="initially occupied level")
    _add_run_flags(p_evolve, 1.0, 10.0)
    p_evolve.set_defaults(func=_cmd_evolve)
    # evolve requires an explicit model file
    for action in p_evolve._actions:
        if action.dest == "model":
            action.required = True

    p_res = sub.add_parser("resources", help="closed-form gate-count estimates")
    p_res.add_argument("--qubits", type=int, required=True, help="total register size d")
    p_res.add_argument("--format", choices=("csv", "json"), default="json")
    p_res.add_argument("--out", default=None)
    p_res.set_defaults(func=_cmd_resources)

    p_val = sub.add_parser("validate", help="check a model file's invariants")
    p_val.add_argument("model_file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LsvdError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
