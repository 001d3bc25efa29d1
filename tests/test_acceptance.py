"""Acceptance suite.

Each test exercises one shipped guarantee end to end at its stated
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``;
captured output is replayed on failure).  The heavyweight shared inputs —
scipy reference states, ``classical_evolve`` traces and exact circuit runs
for all four bundled models over their default grids — are computed once
per module.
"""

import numpy as np
import pytest
import scipy.linalg

from lsvd.circuit import _dilate, build_svd_circuit, estimate_resources
from lsvd.cli import main as cli_main
from lsvd.lindblad import build_superoperator, lindblad_rhs, propagator
from lsvd.models import (
    RPM_GAMMA_DISS_HIGH,
    RPM_GAMMA_DISS_MID,
    RPMParams,
    builtin_model,
    rpm_model,
    theta_sweep,
    yields,
)
from lsvd.pipeline import classical_evolve, quantum_evolve, qubit_counts

from conftest import (
    as_unitary,
    dense_u,
    dense_vdag,
    random_density,
    random_model,
    reference_states,
)

FMO_GRID = np.arange(0, 401) * 5.0  # 0..2000 fs, step 5 fs
RPM_GRID = np.arange(0, 572) * 1.75e-3  # 0..~1 ms, step 1.75e-3 ms
GRIDS = {"fmo3": FMO_GRID, "fmo7": FMO_GRID, "rpm": RPM_GRID, "rpm-dissipative": RPM_GRID}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """Reference states and populations, the ``classical_evolve`` trace and
    the exact circuit trace per bundled model."""
    out = {}
    for name, grid in GRIDS.items():
        model, rho0 = builtin_model(name)
        states = reference_states(model, rho0, grid)
        out[name] = {
            "model": model,
            "rho0": rho0,
            "states": states,
            "reference": np.diagonal(states, axis1=1, axis2=2).real,
            "classical": classical_evolve(model, rho0, grid),
            "exact": quantum_evolve(model, rho0, grid, mode="exact"),
        }
    return out


def test_criterion_1_algebraic_exactness(runs):
    worst = {}
    for name, data in runs.items():
        worst[name] = tuple(
            float(np.max(np.abs(data[trace].populations - data["reference"])))
            for trace in ("exact", "classical")
        )
    overall = max(max(pair) for pair in worst.values())
    detail = (
        "exact circuit / classical_evolve vs scipy reference, max |Δpopulation| "
        "at every point of the default grids: "
        + ", ".join(f"{k}={a:.2e}/{b:.2e}" for k, (a, b) in worst.items())
        + " (tolerance 1e-8)"
    )
    report(1, overall <= 1e-8, detail)


def test_criterion_1_independent_oracle(runs):
    """Exact circuit and the chained reference vs a fresh
    ``scipy.linalg.expm`` per picked time, of a generator checked on its own.

    The generator is first compared with the matrix-form ``lindblad_rhs`` on
    random states, since the pipeline and ``classical_evolve`` share
    ``build_superoperator``; nothing here uses the package's ``expm``.
    """
    rng = np.random.default_rng(1729)
    generator_defect = 0.0
    worst = {}
    for name, data in runs.items():
        model = data["model"]
        r = model.dim
        superop = build_superoperator(model)
        for _ in range(3):
            rho = random_density(rng, r)
            defect = np.linalg.norm(
                superop @ rho.flatten(order="F") - lindblad_rhs(model, rho).flatten(order="F")
            )
            generator_defect = max(
                generator_defect, defect / (np.linalg.norm(superop) * np.linalg.norm(rho))
            )
        grid = GRIDS[name]
        picks = np.unique(np.append(np.arange(0, grid.size, 20), grid.size - 1))
        v0 = np.asarray(data["rho0"], dtype=complex).flatten(order="F")
        diagonal = np.arange(r) * (r + 1)
        reference = np.array(
            [np.real((scipy.linalg.expm(superop * grid[i]) @ v0)[diagonal]) for i in picks]
        )
        worst[name] = max(
            float(np.max(np.abs(data["exact"].populations[picks] - reference))),
            float(np.max(np.abs(data["reference"][picks] - reference))),
        )
    ok = generator_defect <= 1e-10 and max(worst.values()) <= 1e-10
    detail = (
        f"generator vs lindblad_rhs {generator_defect:.1e} (<=1e-10); exact circuit and "
        "chained reference vs fresh scipy expm, every 20th and the last point, "
        "max |Δpopulation|: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (tolerance 1e-10)"
    )
    report(1, ok, detail)


def test_criterion_2_sampled_fidelity(runs):
    data = runs["fmo3"]
    reference = data["reference"]
    grid_max = {}
    for shots in (2**15, 2**17, 2**19):
        sampled = quantum_evolve(
            data["model"], data["rho0"], FMO_GRID, mode="sampled", shots=shots, seed=0
        )
        grid_max[shots] = float(np.max(np.abs(sampled.populations - reference)))
    errors = [grid_max[2**15], grid_max[2**17], grid_max[2**19]]
    inversions = sum(1 for a, b in zip(errors, errors[1:]) if b > a)
    ok = grid_max[2**19] <= 0.02 and inversions <= 1
    detail = (
        f"fmo3 grid-max |Δpopulation|: 2^15={errors[0]:.4f}, 2^17={errors[1]:.4f}, "
        f"2^19={errors[2]:.4f} (2^19 tolerance 0.02, inversions {inversions} <= 1)"
    )
    report(2, ok, detail)


def test_criterion_3_qubit_accounting(runs):
    counts = {name: qubit_counts(data["model"].dim)[1] for name, data in runs.items()}
    expected = {"fmo3": 6, "fmo7": 8, "rpm": 8, "rpm-dissipative": 8}
    ok = counts == expected
    report(3, ok, f"total qubits d: {counts} (expected {expected})")


def test_criterion_4_dilation_unit_suite():
    rng = np.random.default_rng(2718)
    worst = {"unitarity": 0.0, "reconstruction": 0.0, "modulus": 0.0, "branch": 0.0, "block": 0.0}
    for trial in range(100):
        r = int(rng.integers(2, 5))
        model = random_model(rng, r, n_channels=int(rng.integers(1, 4)))
        superop = build_superoperator(model)
        t = rng.uniform(0.0, 5.0 / np.linalg.norm(superop))
        m = propagator(superop, t)
        circuit = build_svd_circuit(m)
        n = circuit.n
        m_padded = scipy.linalg.block_diag(m, np.eye(n - m.shape[0]))
        eye = np.eye(n)
        worst["unitarity"] = max(
            worst["unitarity"],
            np.linalg.norm(dense_u(circuit).conj().T @ dense_u(circuit) - eye),
            np.linalg.norm(dense_vdag(circuit) @ dense_vdag(circuit).conj().T - eye),
        )
        recon = (dense_u(circuit) * (circuit.sigma * circuit.scale)) @ dense_vdag(circuit)
        worst["reconstruction"] = max(
            worst["reconstruction"],
            np.linalg.norm(recon - m_padded) / np.linalg.norm(m_padded),
        )
        sigma_plus = _dilate(circuit.sigma)
        sigma_minus = sigma_plus.conj()
        worst["modulus"] = max(
            worst["modulus"],
            np.max(np.abs(np.abs(sigma_plus) - 1.0)),
            np.max(np.abs(np.abs(sigma_minus) - 1.0)),
        )
        branch = 0.5 * (sigma_plus + sigma_minus)
        worst["branch"] = max(worst["branch"], np.max(np.abs(branch - circuit.sigma)))
        block = as_unitary(circuit)[:n, :n]
        worst["block"] = max(
            worst["block"], np.linalg.norm(block - m_padded / circuit.scale)
        )
    ok = (
        worst["unitarity"] <= 1e-10
        and worst["reconstruction"] <= 1e-10
        and worst["modulus"] <= 1e-12
        and worst["branch"] <= 1e-12
        and worst["block"] <= 1e-10
    )
    detail = (
        "100 random propagators: "
        f"unitarity {worst['unitarity']:.1e} (<=1e-10), "
        f"reconstruction {worst['reconstruction']:.1e} (<=1e-10), "
        f"|Σ±|-1 {worst['modulus']:.1e} (<=1e-12), "
        f"(Σ++Σ-)/2-σ {worst['branch']:.1e} (<=1e-12), "
        f"ancilla-0 block {worst['block']:.1e} (<=1e-10)"
    )
    report(4, ok, detail)


def test_criterion_5_physicality(runs):
    worst_trace = 0.0
    worst_herm = 0.0
    worst_eig = 0.0
    for data in runs.values():
        for rho in data["states"]:
            worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
            worst_herm = max(worst_herm, np.linalg.norm(rho - rho.conj().T))
            worst_eig = min(
                worst_eig, np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
            )
    ok = worst_trace <= 1e-8 and worst_herm <= 1e-8 and worst_eig >= -1e-6
    detail = (
        f"all reference states, all models: |trace-1| {worst_trace:.1e} (<=1e-8), "
        f"hermiticity {worst_herm:.1e} (<=1e-8), min eigenvalue {worst_eig:.1e} (>=-1e-6)"
    )
    report(5, ok, detail)


def test_criterion_6_absorbing_dynamics(runs):
    decreases = {}
    for name in ("fmo3", "fmo7"):
        pops = runs[name]["exact"].populations
        absorbed = pops[:, 0] + pops[:, -1]
        decreases[name] = float(np.diff(absorbed).min())
    model, rho0 = builtin_model("rpm")
    trace = classical_evolve(model, rho0, [1.0])
    phi_s, phi_t = yields(trace)
    shelf_sum = float(phi_s[0] + phi_t[0])
    ok = all(d >= -1e-10 for d in decreases.values()) and shelf_sum >= 0.999
    detail = (
        f"ground+sink increments >= 0 (min: fmo3 {decreases['fmo3']:.1e}, "
        f"fmo7 {decreases['fmo7']:.1e}); compass phi_S+phi_T at 1 ms = "
        f"{shelf_sum:.6f} (>= 0.999)"
    )
    report(6, ok, detail)


def test_criterion_7_compass_suppression():
    thetas = np.deg2rad(np.arange(0.0, 180.1, 4.5))  # 41 orientations
    amplitudes = []
    for gamma_diss in (0.0, RPM_GAMMA_DISS_MID, RPM_GAMMA_DISS_HIGH):
        sweep = theta_sweep(
            RPMParams(gamma_diss=gamma_diss), thetas=thetas, mode="exact"
        )
        phi_s, _ = yields(sweep)
        amplitudes.append(float(phi_s.max() - phi_s.min()))
    ok = amplitudes[0] > amplitudes[1] > amplitudes[2]
    detail = (
        f"yield anisotropy max-min over theta at gamma_diss (0, mid, high) = "
        f"({amplitudes[0]:.4f}, {amplitudes[1]:.4f}, {amplitudes[2]:.6f}); "
        "strictly decreasing"
    )
    report(7, ok, detail)


def test_criterion_8_resource_formulas():
    ok = True
    for d in range(2, 11):
        est = estimate_resources(d)
        ok = ok and est["diagonal_gates"] == 2 ** (d + 1)
        ok = ok and est["unitary_gates_each"] == (d - 1) ** 2 * 2 ** (2 * d - 2)
        ok = ok and est["total"] == d**2 * 2 ** (2 * d - 1)
    report(8, ok, "closed-form gate counts exact for d in 2..10")


def test_criterion_9_reproducibility(tmp_path):
    sampled = ["fmo", "--t-end", "250", "--mode", "sampled", "--shots", "8192"]
    runs_csv = []
    for tag, seed in (("a", 11), ("b", 11), ("c", 12)):
        out = tmp_path / f"sampled_{tag}.csv"
        assert cli_main([*sampled, "--seed", str(seed), "--out", str(out)]) == 0
        runs_csv.append(out.read_bytes())
    same_seed_identical = runs_csv[0] == runs_csv[1]
    seed_changes_samples = runs_csv[0] != runs_csv[2]

    exact = ["fmo", "--t-end", "250", "--mode", "exact"]
    exact_csv = []
    for tag, seed in (("a", 11), ("b", 12)):
        out = tmp_path / f"exact_{tag}.csv"
        assert cli_main([*exact, "--seed", str(seed), "--out", str(out)]) == 0
        exact_csv.append(out.read_bytes())
    exact_seed_independent = exact_csv[0] == exact_csv[1]

    ok = same_seed_identical and seed_changes_samples and exact_seed_independent
    detail = (
        f"same config+seed byte-identical: {same_seed_identical}; "
        f"seed changes sampled counts: {seed_changes_samples}; "
        f"exact output independent of seed: {exact_seed_independent}"
    )
    report(9, ok, detail)
