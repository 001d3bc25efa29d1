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
import math
import sys

import numpy as np

from . import __version__
from .errors import LsvdError
from .lindblad import (
    LindbladModel,
    PopulationTrace,
    build_superoperator,
    load_model,
    trace_preservation_defect,
)
from .models import (
    ELECTRON_GYROMAGNETIC,
    FMO_DEFAULT_DT,
    FMO_DEFAULT_T_END,
    FMO_SITE_COUNTS,
    RPM_DEFAULT_DT,
    RPM_DEFAULT_T_END,
    THETA_DEFAULT_STEP_DEG,
    FMOParams,
    RPMParams,
    default_theta_grid,
    fmo_model,
    rpm_model,
    step_grid,
    theta_sweep,
    yields,
)
from .pipeline import SWEEP_SUBSTREAMS, TRACE_SUBSTREAMS, quantum_evolve, qubit_counts
from .sampler import DEFAULT_SHOTS, RNG_ALGORITHM
from .circuit import estimate_resources

# Where a built-in model's numbers come from; a model-file run names its file.
_PROVENANCE = {
    "fmo": "bundled 7-site Hamiltonian after Adolphs & Renger (2006); rates are documented stand-ins",
    "rpm": "CODATA electron gyromagnetic ratio; hyperfine strength and rates are documented stand-ins",
}


def _load_model_file(path: str) -> LindbladModel:
    try:
        return load_model(path)
    except OSError as exc:
        # an unreadable model source is a configuration problem, not an
        # output I/O failure
        raise ValueError(f"cannot read model file {path}: {exc}") from exc


# dest prefix of the flags that set a built-in model's parameter
_PARAM = "param:"


def _given_params(args) -> dict:
    """The parameter flags given on the command line, by parameter name, in
    the order first given; a parameter left out keeps its class default."""
    return {k.removeprefix(_PARAM): v for k, v in vars(args).items() if k.startswith(_PARAM)}


def _time_grid(dt: float, t_end: float) -> np.ndarray:
    if not np.isfinite(t_end):
        raise ValueError("--t-end must be finite")
    try:
        grid = step_grid(t_end, dt)
    except ValueError as err:
        raise ValueError(f"--dt: {err}") from None
    if grid.size < 2:
        raise ValueError("--t-end must be at least --dt")
    return grid


def _config(args, command: str, model_source: str, dt: float | None, stem: str, parameters: dict) -> dict:
    """Resolved run configuration, embedded verbatim in the metadata block."""
    return {
        "command": command,
        "model_source": model_source,
        "dt": dt,
        "t_end": args.t_end,
        "mode": args.mode,
        "shots": args.shots,
        "seed": args.seed,
        "output": args.out or f"{stem}_results.{args.format}",
        "format": args.format,
        "parameters": parameters,
    }


def _metadata(config: dict, model: LindbladModel, columns, extra: dict) -> dict:
    k, d = qubit_counts(model.dim)
    model_file = config["parameters"].get("model_file")
    meta = {
        "package": {"name": "lsvd", "version": __version__},
        "config": config,
        "model": {
            "dim": model.dim,
            "time_unit": model.time_unit,
            "labels": list(model.labels),
            "channels": [
                {"label": ch.label, "rate": ch.rate} for ch in model.channels
            ],
        },
        "qubits": {"system": k, "total": d},
        "resource_estimate": estimate_resources(d),
        "rng": {
            "algorithm": RNG_ALGORITHM,
            "seed": config["seed"],
            "substream_rule": TRACE_SUBSTREAMS,
        },
        "dilation": {
            "scale_rule": (
                "singular values divided by max(1, sigma_max); exact mode "
                "multiplies the scale back, sampled estimates are "
                "normalization-invariant to it"
            ),
        },
        "columns": list(columns),
        "provenance": f"model file {model_file}" if model_file else _PROVENANCE[config["model_source"]],
    }
    meta.update(extra)
    return meta


def _write_run(config: dict, model: LindbladModel, columns, rows, trace: PopulationTrace, **extra) -> int:
    """Write the results table, ``rows`` of Python floats, plus its metadata
    (a sidecar for CSV, embedded for JSON) and report where they went."""
    meta = _metadata(config, model, columns, {"scale_factors": [float(s) for s in trace.scales], **extra})
    meta["working_blocks"] = trace.working_blocks
    out = meta_path = config["output"]
    if config["format"] == "csv":
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([repr(v) for v in row] for row in rows)
        meta_path = out + ".meta.json"
        payload = meta
    else:
        payload = {"columns": columns, "rows": rows, "metadata": meta}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {out} (metadata: {meta_path})")
    return 0


def _run_trace(args, command: str, model: LindbladModel, rho0, params: dict) -> int:
    grid = _time_grid(args.dt, args.t_end)
    config = _config(args, command, params.get("model_file", command), args.dt, command, params)
    trace = quantum_evolve(
        model, rho0, grid, mode=args.mode, shots=args.shots, seed=args.seed
    )
    columns = ["time", *model.labels, "success_prob"]
    rows = np.column_stack([trace.times, trace.populations, trace.success_prob]).tolist()
    return _write_run(config, model, columns, rows, trace)


def _cmd_fmo(args) -> int:
    fmo = FMOParams.default(args.sites, **_given_params(args))
    model, rho0 = fmo_model(fmo)
    h = fmo.hamiltonian_cm1
    params = {
        "n_sites": fmo.n_sites,
        "site_energies_cm1": list(np.diag(h)),
        "couplings_cm1": [list(row) for row in h - np.diag(np.diag(h))],
        "gamma_deph": fmo.gamma_deph,
        "gamma_diss": fmo.gamma_diss,
        "gamma_sink": fmo.gamma_sink,
        "initial_state": "site1",
    }
    return _run_trace(args, "fmo", model, rho0, params)


def _rpm_params(args) -> RPMParams:
    """The compass from the given flags: ``--hyperfine-az`` sets the axial
    hyperfine component, and ``--theta`` (``rpm`` only) is in degrees."""
    given = _given_params(args)
    if "hyperfine_az" in given:
        given["hyperfine"] = np.diag([0.0, 0.0, given.pop("hyperfine_az")])
    if "theta" in given:
        if not 0.0 <= given["theta"] <= 180.0:
            raise ValueError("--theta must lie in [0, 180] degrees")
        given["theta"] = np.deg2rad(given["theta"])
    return RPMParams(**given)


def _rpm_param_dict(params: RPMParams) -> dict:
    return {
        "hyperfine_rad_per_s": [list(row) for row in params.hyperfine],
        "b0_tesla": params.b0,
        "theta_rad": params.theta,
        "phi_rad": params.phi,
        "gyromagnetic_rad_per_s_per_T": ELECTRON_GYROMAGNETIC,
        "gamma_shelf_per_s": params.gamma_shelf,
        "gamma_diss_per_s": params.gamma_diss,
        "initial_state": "electron singlet, mixed nucleus",
    }


def _cmd_sweep(args) -> int:
    try:
        thetas = default_theta_grid(args.theta_step)
    except ValueError as err:
        raise ValueError(f"--theta-step: {err}") from None
    if not (np.isfinite(args.t_end) and args.t_end >= 0):
        raise ValueError("--t-end must be finite and non-negative")
    base = _rpm_params(args)
    params = {**_rpm_param_dict(base), "theta_step_deg": args.theta_step}
    config = _config(args, "sweep", "rpm", None, "rpm_sweep", params)
    trace = theta_sweep(
        base,
        thetas=thetas,
        t_end=args.t_end,
        mode=args.mode,
        shots=args.shots,
        seed=args.seed,
    )
    model, _ = rpm_model(base)
    phi_s, phi_t = yields(trace)
    columns = ["theta_deg", "phi_S", "phi_T", "success_prob"]
    rows = np.column_stack([np.rad2deg(thetas), phi_s, phi_t, trace.success_prob]).tolist()
    rng = {"algorithm": RNG_ALGORITHM, "seed": args.seed, "substream_rule": SWEEP_SUBSTREAMS}
    return _write_run(config, model, columns, rows, trace, t_end=args.t_end, rng=rng)


def _cmd_rpm(args) -> int:
    if args.model:
        given = ", ".join("--" + name.replace("_", "-") for name in _given_params(args))
        if given:
            raise ValueError(f"--model replaces the built-in model, so {given} would be ignored")
        model = _load_model_file(args.model)
        _, rho0 = rpm_model(RPMParams())
        if model.dim != rho0.shape[0]:
            raise ValueError(
                f"model file has dim {model.dim}; the compass initial state needs 10"
            )
        params = {"model_file": args.model}
    else:
        base = _rpm_params(args)
        model, rho0 = rpm_model(base)
        params = _rpm_param_dict(base)
    return _run_trace(args, "rpm", model, rho0, params)


def _cmd_evolve(args) -> int:
    model = _load_model_file(args.model)
    if not (0 <= args.initial < model.dim):
        raise ValueError(
            f"--initial {args.initial} is out of range for a {model.dim}-level model"
        )
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[args.initial, args.initial] = 1.0
    params = {"model_file": args.model, "initial_level": args.initial}
    return _run_trace(args, "evolve", model, rho0, params)


def _cmd_resources(args) -> int:
    d, limit = args.qubits, sys.get_int_max_str_digits()
    # the total d² 2^(2d-1) has more digits than Python prints: refuse
    # before any power of two is computed or any file is opened
    if limit and d > 1 and 2 * math.log10(d) + (2 * d - 1) * math.log10(2) >= limit:
        raise ValueError(
            f"--qubits: the gate counts of {d} qubits have more than {limit} digits "
            "(sys.get_int_max_str_digits())"
        )
    try:
        payload = estimate_resources(d)
    except ValueError as err:
        raise ValueError(f"--qubits: {err}") from None
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
    except (OSError, ValueError) as exc:
        print(f"FAIL model ({exc})")
        return 2
    print(f"PASS model ({model.dim} levels, {len(model.channels)} channels)")
    defect = trace_preservation_defect(build_superoperator(model), model.dim)
    ok = defect <= 1e-10
    print(f"{'PASS' if ok else 'FAIL'} superoperator_trace_preserving (relative defect {defect:.3e})")
    return 0 if ok else 2


def _add_run_flags(parser: argparse.ArgumentParser, t_end: float, dt: float | None = None) -> None:
    """Flags of every command that writes a results table; traces also take --dt."""
    if dt is not None:
        parser.add_argument("--dt", type=float, default=dt, help="time step in model time units")
    parser.add_argument("--t-end", type=float, default=t_end, help="end time in model time units")
    parser.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    parser.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        help="output path (default: <command>_results.<format>; sweep: rpm_sweep_results.<format>)",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_param_flag(parser: argparse.ArgumentParser, flag: str, help: str) -> None:
    """A flag setting the built-in model's parameter of the same name; it
    reaches the namespace only when given (see ``_given_params``)."""
    name = flag[2:].replace("-", "_")
    parser.add_argument(
        flag, type=float, default=argparse.SUPPRESS, dest=_PARAM + name, metavar=name.upper(), help=help
    )


def _add_rpm_flags(parser: argparse.ArgumentParser) -> None:
    _add_param_flag(parser, "--b0", "field magnitude in tesla")
    _add_param_flag(parser, "--hyperfine-az", "axial hyperfine component in rad/s")
    _add_param_flag(parser, "--gamma-shelf", "shelving rate in 1/s")
    _add_param_flag(parser, "--gamma-diss", "electron dephasing rate in 1/s")


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
    p_fmo.add_argument("--sites", type=int, choices=FMO_SITE_COUNTS, default=3)
    _add_param_flag(p_fmo, "--gamma-deph", "site dephasing rate in 1/fs")
    _add_param_flag(p_fmo, "--gamma-diss", "dissipation rate in 1/fs")
    _add_param_flag(p_fmo, "--gamma-sink", "sink transfer rate in 1/fs")
    _add_run_flags(p_fmo, FMO_DEFAULT_T_END, FMO_DEFAULT_DT)
    p_fmo.set_defaults(func=_cmd_fmo)

    p_rpm = sub.add_parser("rpm", help="radical-pair yields trace")
    _add_rpm_flags(p_rpm)
    _add_param_flag(p_rpm, "--theta", "field orientation in degrees")
    p_rpm.add_argument("--model", help="model file overriding the built-in")
    _add_run_flags(p_rpm, RPM_DEFAULT_T_END, RPM_DEFAULT_DT)
    p_rpm.set_defaults(func=_cmd_rpm)

    # no abbreviations, or --theta would be taken for --theta-step
    p_sweep = sub.add_parser("sweep", help="orientation sweep of the compass yields", allow_abbrev=False)
    p_sweep.add_argument("--theta-step", type=float, default=THETA_DEFAULT_STEP_DEG, help="sweep step in degrees")
    _add_rpm_flags(p_sweep)
    _add_run_flags(p_sweep, RPM_DEFAULT_T_END)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_evolve = sub.add_parser("evolve", help="population trace of a model file")
    p_evolve.add_argument("--initial", type=int, default=0, help="initially occupied level")
    p_evolve.add_argument("--model", required=True, help="model file to run")
    _add_run_flags(p_evolve, 10.0, 1.0)
    p_evolve.set_defaults(func=_cmd_evolve)

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
    except ValueError as exc:
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
