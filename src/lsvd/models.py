"""Benchmark model builders and their derived experiments.

Two families are provided:

* Exciton transport through a pigment network ("fmo3" / "fmo7"): a
  single-excitation model with r = n_sites + 2 levels ordered
  (ground = 0, sites 1..n, sink = n + 1).  Site energies and inter-site
  couplings live on the site block; each site dephases and dissipates to
  the ground level, and site 3 feeds the sink.  Time unit: fs.
* A radical-pair compass ("rpm" / "rpm-dissipative"): one nuclear spin
  and two electron spins (ordered nucleus ⊗ electron1 ⊗ electron2,
  indices 0-7) plus two shelving levels |S> = 8 and |T> = 9 that
  accumulate singlet and triplet recombination yields.  Time unit: ms.

Parameter provenance
--------------------
The 7-site exciton Hamiltonian shipped in ``data/fmo_hamiltonian_cm1.json``
follows Adolphs & Renger, Biophys. J. 91, 2778 (2006), the standard
parameter set of the dephasing-assisted-transport literature; the 3-site
variant is its leading 3x3 block.  The environment rates
(``FMO_DEFAULT_GAMMA_*``), the axial hyperfine strength
(``RPM_DEFAULT_HYPERFINE_AZ``, about a 0.1 mT equivalent) and the
dissipation ladder (``RPM_GAMMA_DISS_*``) are documented stand-ins chosen
so the qualitative behaviour (complete sink transfer, a clearly
orientation-dependent singlet yield, and its suppression under electron
dephasing) is robust; no authoritative published values are bundled for
them.  Every number is overridable through the dataclasses, the CLI
flags, or a model file, except the CODATA electron gyromagnetic ratio
``ELECTRON_GYROMAGNETIC``, a constant: ``b0`` alone sets the Zeeman term.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .lindblad import (
    Channel,
    LindbladModel,
    PopulationTrace,
    save_model,
    wavenumber_to_angular_frequency,
)
from .numerics import as_matrix
from .pipeline import evolve_family
from .sampler import DEFAULT_SHOTS

# --- exciton-network defaults (rates in fs^-1; stand-ins, see module docstring)
FMO_DEFAULT_GAMMA_DEPH = 1.0e-2  # (100 fs)^-1 site dephasing
FMO_DEFAULT_GAMMA_DISS = 1.0e-6  # (1 ns)^-1 recombination to the ground level
FMO_DEFAULT_GAMMA_SINK = 1.0e-3  # (1 ps)^-1 transfer from site 3 to the sink
FMO_SITE_COUNTS = (3, 7)  # the bundled 7-site Hamiltonian and its leading 3x3 block

# --- compass defaults (SI units; converted to the ms time base internally)
ELECTRON_GYROMAGNETIC = 1.76085963023e11  # rad s^-1 T^-1
RPM_DEFAULT_B0 = 47e-6  # tesla
RPM_DEFAULT_HYPERFINE_AZ = ELECTRON_GYROMAGNETIC * 1.0e-4  # rad/s, ~0.1 mT axial
RPM_DEFAULT_GAMMA_SHELF = 1.0e4  # s^-1 shelving (recombination) rate
RPM_GAMMA_DISS_MID = 1.0e4  # s^-1, partial compass suppression
RPM_GAMMA_DISS_HIGH = 1.0e6  # s^-1, anisotropy washed out

# --- default experiment grids
FMO_DEFAULT_DT = 5.0  # fs
FMO_DEFAULT_T_END = 2000.0  # fs
RPM_DEFAULT_DT = 1.75e-3  # ms
RPM_DEFAULT_T_END = 1.0  # ms
THETA_DEFAULT_STEP_DEG = 0.9
MAX_GRID_POINTS = 10**6  # most points one time or orientation grid may have

BUILTIN_MODELS = ("fmo3", "fmo7", "rpm", "rpm-dissipative")

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}
_AXES = "xyz"


def _site_hamiltonian_cm() -> np.ndarray:
    resource = importlib.resources.files("lsvd.data").joinpath("fmo_hamiltonian_cm1.json")
    data = json.loads(resource.read_text(encoding="utf-8"))
    return np.asarray(data["hamiltonian"], dtype=float)


def _require_finite_nonnegative(params, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if not 0.0 <= value < np.inf:  # false for NaN too
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True, eq=False)
class FMOParams:
    """Exciton-network parameters: the n x n site Hamiltonian in cm^-1 (site
    energies on the diagonal, couplings off it; n = ``n_sites`` must be in
    ``FMO_SITE_COUNTS``) and the rates in fs^-1.  Instances compare and
    hash by identity, since an array field has no single truth value."""

    hamiltonian_cm1: np.ndarray
    gamma_deph: float = FMO_DEFAULT_GAMMA_DEPH
    gamma_diss: float = FMO_DEFAULT_GAMMA_DISS
    gamma_sink: float = FMO_DEFAULT_GAMMA_SINK

    def __post_init__(self):
        h = as_matrix(np.array(self.hamiltonian_cm1, dtype=float), name="hamiltonian_cm1")
        if h.shape[0] != h.shape[1] or h.shape[0] not in FMO_SITE_COUNTS:
            raise ValueError(f"hamiltonian_cm1 must be n x n, n in {FMO_SITE_COUNTS}, got {h.shape}")
        _require_finite_nonnegative(self, "gamma_deph", "gamma_diss", "gamma_sink")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian_cm1", h)

    @property
    def n_sites(self) -> int:
        return self.hamiltonian_cm1.shape[0]

    @classmethod
    def default(cls, n_sites: int = 7, **overrides) -> "FMOParams":
        """Bundled parameter set, truncated to the leading sites for n_sites=3."""
        if n_sites not in FMO_SITE_COUNTS:
            raise ValueError(f"n_sites must be one of {FMO_SITE_COUNTS}, got {n_sites}")
        return cls(_site_hamiltonian_cm()[:n_sites, :n_sites], **overrides)


def fmo_model(params: FMOParams) -> tuple[LindbladModel, np.ndarray]:
    """Build the exciton-network model and its initial state.

    Levels: ground = 0, sites 1..n, sink = n + 1.  The site block holds the
    site Hamiltonian converted to rad/fs; the Hamiltonian is zero on ground
    and sink, and ``LindbladModel`` rejects a site Hamiltonian that is not
    symmetric.  Channels per site i: dephasing |i><i| at gamma_deph and
    dissipation |0><i| at gamma_diss; one sink channel |sink><3| at
    gamma_sink.  The initial state is the excitation on site 1.
    """
    n = params.n_sites
    r = n + 2
    sink = r - 1
    hamiltonian = np.zeros((r, r), dtype=np.complex128)
    hamiltonian[1:sink, 1:sink] = wavenumber_to_angular_frequency(params.hamiltonian_cm1)

    def ketbra(row: int, col: int) -> np.ndarray:
        op = np.zeros((r, r), dtype=np.complex128)
        op[row, col] = 1.0
        return op

    channels = []
    for i in range(1, n + 1):
        channels.append(Channel(ketbra(i, i), params.gamma_deph, f"dephasing_site{i}"))
        channels.append(Channel(ketbra(0, i), params.gamma_diss, f"dissipation_site{i}"))
    channels.append(Channel(ketbra(sink, 3), params.gamma_sink, "sink_from_site3"))

    labels = ("ground", *(f"site{i}" for i in range(1, n + 1)), "sink")
    model = LindbladModel(
        hamiltonian=hamiltonian,
        channels=tuple(channels),
        labels=labels,
        time_unit="fs",
    )
    rho0 = np.zeros((r, r), dtype=np.complex128)
    rho0[1, 1] = 1.0
    return model, rho0


@dataclass(frozen=True, eq=False)
class RPMParams:
    """Radical-pair parameters in SI units.

    ``hyperfine`` is the 3x3 tensor coupling the nucleus to electron 1 in
    rad/s; ``b0`` in tesla; ``theta``/``phi`` orient the field in radians;
    rates in s^-1; the electron gyromagnetic ratio is the constant
    ``ELECTRON_GYROMAGNETIC``.  The builder converts to the ms time base.
    Instances compare and hash by identity, as ``FMOParams`` do.
    """

    hyperfine: np.ndarray = field(
        default_factory=lambda: np.diag([0.0, 0.0, RPM_DEFAULT_HYPERFINE_AZ])
    )
    b0: float = RPM_DEFAULT_B0
    theta: float = np.pi / 2
    phi: float = 0.0
    gamma_shelf: float = RPM_DEFAULT_GAMMA_SHELF
    gamma_diss: float = 0.0

    def __post_init__(self):
        tensor = as_matrix(np.array(self.hyperfine, dtype=float), name="hyperfine")
        if tensor.shape != (3, 3):
            raise ValueError(f"hyperfine tensor must be 3x3, got {tensor.shape}")
        _require_finite_nonnegative(self, "b0", "gamma_shelf", "gamma_diss")
        if not (0.0 <= self.theta <= np.pi + 1e-12):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        tensor.setflags(write=False)
        object.__setattr__(self, "hyperfine", tensor)

    @classmethod
    def default(cls, **overrides) -> "RPMParams":
        """``cls(**overrides)``; only ``perfbench`` still calls it."""
        return cls(**overrides)


def _nuc_op(m: np.ndarray) -> np.ndarray:
    return np.kron(m, np.eye(4, dtype=np.complex128))


def _e1_op(m: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(2, dtype=np.complex128), np.kron(m, np.eye(2, dtype=np.complex128)))


def _e2_op(m: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(4, dtype=np.complex128), m)

_EMBED = {"e1": _e1_op, "e2": _e2_op}
# Spin-1/2 operators of electron 1, electron 2 and the nucleus on the 8-level
# spin block; they do not depend on the field orientation.
_SPIN1 = {a: _e1_op(0.5 * _PAULI[a]) for a in _AXES}
_SPIN2 = {a: _e2_op(0.5 * _PAULI[a]) for a in _AXES}
_NUC = {a: _nuc_op(0.5 * _PAULI[a]) for a in _AXES}

_UP = np.array([1.0, 0.0], dtype=np.complex128)
_DOWN = np.array([0.0, 1.0], dtype=np.complex128)
_PAIR_STATES = {
    "s": (np.kron(_UP, _DOWN) - np.kron(_DOWN, _UP)) / np.sqrt(2.0),
    "t0": (np.kron(_UP, _DOWN) + np.kron(_DOWN, _UP)) / np.sqrt(2.0),
    "t+": np.kron(_UP, _UP),
    "t-": np.kron(_DOWN, _DOWN),
}
# (shelf index, nuclear ket, pair state): singlet configurations feed |S>,
# the three triplets feed |T>, for either nuclear orientation.
_SHELF_CHANNELS = tuple(
    (8 if pair == "s" else 9, nuc, pair) for nuc in "ud" for pair in _PAIR_STATES
)

RPM_LEVELS = 10
RPM_LABELS = ("uuu", "uud", "udu", "udd", "duu", "dud", "ddu", "ddd", "S", "T")


def rpm_model(params: RPMParams) -> tuple[LindbladModel, np.ndarray]:
    """Build the 10-level radical-pair model and its initial state.

    The spin block (indices 0-7, ordered nucleus ⊗ electron1 ⊗ electron2)
    carries H = I·A·S1 + gamma_e B·(S1 + S2) with spin operators Pauli/2,
    gamma_e = ELECTRON_GYROMAGNETIC and B = b0 (cos phi sin theta,
    sin phi sin theta, cos theta); the shelves are Hamiltonian-free.  Eight
    shelving channels project each |nucleus, pair-state> configuration onto
    its shelf at equal rate gamma_shelf.  When gamma_diss > 0, six
    additional channels apply each Pauli to each electron, zero-padded to
    the shelf dimensions, at rate gamma_diss.  The initial state is a pure
    electron singlet with a maximally mixed nucleus.
    """
    r = RPM_LEVELS
    to_ms = 1e-3  # rad/s -> rad/ms and s^-1 -> ms^-1

    field_dir = np.array(
        [
            np.cos(params.phi) * np.sin(params.theta),
            np.sin(params.phi) * np.sin(params.theta),
            np.cos(params.theta),
        ]
    )
    b_vec = params.b0 * field_dir
    gamma_ms = ELECTRON_GYROMAGNETIC * to_ms
    tensor_ms = params.hyperfine * to_ms

    h_spin = np.zeros((8, 8), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            if tensor_ms[a, b] != 0.0:
                h_spin += tensor_ms[a, b] * (_NUC[_AXES[a]] @ _SPIN1[_AXES[b]])
        h_spin += gamma_ms * b_vec[a] * (_SPIN1[_AXES[a]] + _SPIN2[_AXES[a]])

    hamiltonian = np.zeros((r, r), dtype=np.complex128)
    hamiltonian[:8, :8] = h_spin

    nuclear_kets = {"u": _UP, "d": _DOWN}
    channels = []
    for shelf, nuc_key, pair_key in _SHELF_CHANNELS:
        source = np.zeros(r, dtype=np.complex128)
        source[:8] = np.kron(nuclear_kets[nuc_key], _PAIR_STATES[pair_key])
        target = np.zeros(r, dtype=np.complex128)
        target[shelf] = 1.0
        channels.append(
            Channel(
                np.outer(target, source.conj()),
                params.gamma_shelf * to_ms,
                f"shelf_{RPM_LABELS[shelf]}_{nuc_key}{pair_key}",
            )
        )
    if params.gamma_diss > 0.0:
        for axis in _AXES:
            for electron in ("e1", "e2"):
                op = np.zeros((r, r), dtype=np.complex128)
                op[:8, :8] = _EMBED[electron](_PAULI[axis])
                channels.append(
                    Channel(op, params.gamma_diss * to_ms, f"dephasing_{electron}_{axis}")
                )

    model = LindbladModel(
        hamiltonian=hamiltonian,
        channels=tuple(channels),
        labels=RPM_LABELS,
        time_unit="ms",
    )
    singlet = _PAIR_STATES["s"]
    rho_spin = np.kron(
        0.5 * np.eye(2, dtype=np.complex128), np.outer(singlet, singlet.conj())
    )
    rho0 = np.zeros((r, r), dtype=np.complex128)
    rho0[:8, :8] = rho_spin
    return model, rho0


def yields(trace: PopulationTrace) -> tuple[np.ndarray, np.ndarray]:
    """Singlet and triplet yields: the shelf populations of a compass trace."""
    if "S" not in trace.labels or "T" not in trace.labels:
        raise ValueError("trace does not carry compass shelf levels 'S' and 'T'")
    idx_s = trace.labels.index("S")
    idx_t = trace.labels.index("T")
    return trace.populations[:, idx_s].copy(), trace.populations[:, idx_t].copy()


def step_grid(stop: float, step: float) -> np.ndarray:
    """``0, step, 2 step, …`` up to ``stop``, included when ``step`` divides
    it (to 1e-9 of a step).  A grid of more than ``MAX_GRID_POINTS`` points
    is refused before it is built."""
    if not 0 < step < np.inf:
        raise ValueError(f"step {step!r} must be positive and finite")
    count = np.floor(stop / step + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"step {step!r} up to {stop!r} would give {count:.7g} points "
            f"(at most {MAX_GRID_POINTS})"
        )
    return np.arange(int(count)) * step


def default_theta_grid(step_deg: float = THETA_DEFAULT_STEP_DEG) -> np.ndarray:
    """Orientation grid ``step_grid(180, step_deg)`` in radians (201 points
    at the default 0.9-degree step)."""
    return np.deg2rad(step_grid(180.0, step_deg))


def theta_sweep(
    base: RPMParams,
    thetas=None,
    t_end: float = RPM_DEFAULT_T_END,
    mode: str = "exact",
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> PopulationTrace:
    """Run the full pipeline at each orientation: row ``j`` of the trace is
    orientation ``thetas[j]`` at time ``t_end``, and ``yields`` reads its
    singlet and triplet yields.  ``thetas`` must be non-empty, and every
    orientation is checked against the ``RPMParams`` theta bounds before
    any model is built.  Only the Zeeman term depends on theta and the
    generator is linear in the field, so with anchors at the base phi,
    ``G(theta) = w_0 G(0) + w_1 G(pi) + w_2 G(pi/2)`` for ``w = ((1 + cos
    theta - sin theta)/2, (1 - cos theta - sin theta)/2, sin theta)``,
    exactly (1, 0, 0) at theta = 0.  ``evolve_family`` runs that family a
    chunk of orientations at a time; orientation ``j`` samples from the
    substream ``substream_seed(substream_seed(seed, j), 0)``.
    """
    grid = default_theta_grid() if thetas is None else np.asarray(thetas, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("thetas must be non-empty")
    for theta in (grid.min(), grid.max()):  # the bound is an interval; NaN reaches both
        replace(base, theta=float(theta))  # raises on an out-of-range theta
    anchors = [rpm_model(replace(base, theta=theta)) for theta in (0.0, np.pi, np.pi / 2)]
    cos, sin = np.cos(grid), np.sin(grid)
    weights = np.stack([(1.0 + cos - sin) / 2.0, (1.0 - cos - sin) / 2.0, sin], axis=1)
    return evolve_family(
        [model for model, _ in anchors], weights, anchors[0][1], t_end, mode, shots, seed
    )


def builtin_model(name: str) -> tuple[LindbladModel, np.ndarray]:
    """Build one of the bundled models by name (see ``BUILTIN_MODELS``)."""
    if name == "fmo3":
        return fmo_model(FMOParams.default(3))
    if name == "fmo7":
        return fmo_model(FMOParams.default(7))
    if name == "rpm":
        return rpm_model(RPMParams())
    if name == "rpm-dissipative":
        return rpm_model(RPMParams(gamma_diss=RPM_GAMMA_DISS_MID))
    raise ValueError(f"unknown built-in model {name!r}; choose from {BUILTIN_MODELS}")


def write_builtin_model_files(directory) -> list[Path]:
    """(Re)generate the bundled model files; used to keep them in sync."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in BUILTIN_MODELS:
        model, _ = builtin_model(name)
        path = out / f"{name}.json"
        save_model(model, path)
        written.append(path)
    return written
