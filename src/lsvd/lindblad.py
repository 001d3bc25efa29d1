"""Markovian open-system models and their Liouville-space propagation.

A model is a Hamiltonian plus weighted collapse channels generating the
standard master equation (hbar = 1)

    drho/dt = -i[H, rho] + sum_i gamma_i (C_i rho C_i† - 1/2 {C_i† C_i, rho})

Column-stacking vectorization, vec(A X B) = (B^T ⊗ A) vec(X), turns this
into a linear flow on length-r² vectors generated by

    L = -i I⊗H + i H^T⊗I
        + sum_i gamma_i (C_i*⊗C_i - 1/2 I⊗C_i†C_i - 1/2 C_i^T C_i*⊗I)
      = I⊗A + A*⊗I + sum_i gamma_i C_i*⊗C_i,   A = -iH - 1/2 sum_i gamma_i C_i†C_i

so that vec(rho(t)) = exp(L t) vec(rho(0)).  ``classical_evolve`` follows
exactly this route and is the reference every circuit-based result in
this package is validated against.

Units: hbar = 1 throughout.  Each model declares its time unit ("fs" for
the exciton models, "ms" for the spin models); Hamiltonians are stored in
angular frequency (rad per time unit) and rates in inverse time units,
pre-converted.  ``wavenumber_to_angular_frequency`` converts spectroscopic
cm^-1 values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import LsvdError
from .numerics import as_matrix, expm

SPEED_OF_LIGHT_CM_PER_S = 2.99792458e10

_HERMITICITY_RTOL = 1e-10


def wavenumber_to_angular_frequency(wavenumber_cm: float) -> float:
    """Convert a spectroscopic wavenumber (cm^-1) to rad/fs.

    omega[rad/fs] = 2 pi c[cm/s] * wavenumber[cm^-1] * 1e-15.
    """
    return 2.0 * np.pi * SPEED_OF_LIGHT_CM_PER_S * wavenumber_cm * 1e-15


@dataclass(frozen=True)
class Channel:
    """One collapse channel: an operator, its non-negative rate, and a label."""

    operator: np.ndarray
    rate: float
    label: str = ""


@dataclass(frozen=True)
class LindbladModel:
    """An r-level open-system model.

    The Hamiltonian must be Hermitian (relative Frobenius defect below
    1e-10) and is stored as its Hermitian part (H + H†)/2, so the
    generator preserves Hermiticity to rounding; every channel operator
    must be r x r and every rate non-negative.
    Instances are immutable after construction and safe to share across
    threads.
    """

    hamiltonian: np.ndarray
    channels: tuple[Channel, ...]
    labels: tuple[str, ...] = ()
    time_unit: str = "1"

    def __post_init__(self):
        h = as_matrix(self.hamiltonian, name="hamiltonian")
        if h.shape[0] != h.shape[1]:
            raise ValueError(f"hamiltonian must be square, got shape {h.shape}")
        r = h.shape[0]
        scale = max(np.linalg.norm(h), np.finfo(float).tiny)
        defect = np.linalg.norm(h - h.conj().T)
        if defect > _HERMITICITY_RTOL * scale:
            raise ValueError(
                f"hamiltonian is not Hermitian (relative defect {defect / scale:.3e})"
            )
        channels = []
        for idx, ch in enumerate(self.channels):
            op = as_matrix(ch.operator, name=f"channel {idx} operator")
            if op.shape != (r, r):
                raise ValueError(
                    f"channel {idx} ({ch.label!r}) operator has shape {op.shape}, "
                    f"expected ({r}, {r})"
                )
            if not (ch.rate >= 0.0):
                raise ValueError(
                    f"channel {idx} ({ch.label!r}) has negative rate {ch.rate}"
                )
            op.setflags(write=False)
            channels.append(Channel(op, float(ch.rate), ch.label))
        labels = tuple(self.labels) if self.labels else tuple(f"level{i}" for i in range(r))
        if len(labels) != r:
            raise ValueError(f"expected {r} level labels, got {len(labels)}")
        h = 0.5 * (h + h.conj().T)
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass
class PopulationTrace:
    """Time series of level populations.

    ``populations`` has shape ``(len(times), r)``; ``success_prob`` holds
    the ancilla-0 weight per time point (the postselected fraction in
    sampled mode, 1.0 for the classical oracle).  ``mode`` is one of
    ``"classical"``, ``"exact"`` or ``"sampled"``.  ``scales`` records the
    dilation scale factor per time point for circuit-based modes.
    """

    times: np.ndarray
    populations: np.ndarray
    success_prob: np.ndarray
    mode: str
    labels: tuple[str, ...] | None = None
    scales: np.ndarray | None = None
    states: list[np.ndarray] | None = field(default=None, repr=False)


def vectorize(rho) -> np.ndarray:
    """Column-stack an r x r matrix into a length-r² vector.

    Element ``j*r + i`` of the output is ``rho[i, j]``.
    """
    m = as_matrix(rho, name="rho")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"rho must be square, got shape {m.shape}")
    return m.flatten(order="F")


def devectorize(v, r: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(v, dtype=np.complex128).ravel()
    if vec.size != r * r:
        raise ValueError(f"vector of length {vec.size} cannot fill a {r}x{r} matrix")
    return vec.reshape((r, r), order="F").copy()


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """Build the r² x r² generator of the vectorized master equation.

    Placement of conjugates/transposes follows the column-stacking rule
    vec(A X B) = (B^T ⊗ A) vec(X); see the module docstring for the full
    expression, which is assembled here in its second form, with 2 + m
    Kronecker products for m channels.  The result annihilates vec(I)†
    from the left (trace preservation), which
    :func:`trace_preservation_defect` can verify.
    """
    r = model.dim
    eye = np.eye(r, dtype=np.complex128)
    a = -1j * model.hamiltonian
    for ch in model.channels:
        a = a - 0.5 * ch.rate * (ch.operator.conj().T @ ch.operator)
    superop = np.kron(eye, a) + np.kron(a.conj(), eye)
    for ch in model.channels:
        superop += ch.rate * np.kron(ch.operator.conj(), ch.operator)
    return superop


def lindblad_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Literal matrix-form right-hand side of the master equation.

    Kept deliberately independent of :func:`build_superoperator`; the two
    must agree on vec(rho) and the test suite enforces that equivalence.
    """
    m = as_matrix(rho, name="rho")
    h = model.hamiltonian
    out = -1j * (h @ m - m @ h)
    for ch in model.channels:
        c = ch.operator
        cdc = c.conj().T @ c
        out = out + ch.rate * (c @ m @ c.conj().T - 0.5 * (cdc @ m + m @ cdc))
    return out


def trace_preservation_defect(superop: np.ndarray, r: int) -> float:
    """Norm of vec(I)† L relative to ||L||; zero for trace-preserving generators."""
    left = vectorize(np.eye(r)).conj() @ superop
    scale = max(np.linalg.norm(superop), np.finfo(float).tiny)
    return float(np.linalg.norm(left) / scale)


def propagator(superop, t: float) -> np.ndarray:
    """exp(L t) for a non-negative time ``t`` in the model's time unit, of
    one generator or of each generator of a stack ``(..., m, m)``."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    m = as_matrix(superop, name="superoperator", stacked=True)
    return expm(m * float(t))


def _validated_times(times) -> np.ndarray:
    arr = np.array(times, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("times must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    if arr[0] < 0:
        raise ValueError("times must be non-negative")
    if np.any(np.diff(arr) < 0):
        raise ValueError("times must be sorted ascending")
    return arr


def classical_evolve(
    model: LindbladModel,
    rho0,
    times,
    *,
    store_states: bool = False,
) -> PopulationTrace:
    """Propagate ``rho0`` through Liouville space and record populations.

    For each output time the full propagator exp(L t) is evaluated fresh
    and applied to vec(rho0); populations are the real diagonal of the
    devectorized result.  The trace of every output state is checked to
    stay within 1e-8 of one.  This is the classical reference ("oracle")
    for the circuit pipeline.
    """
    grid = _validated_times(times)
    rho_init = as_matrix(rho0, name="rho0")
    r = model.dim
    if rho_init.shape != (r, r):
        raise ValueError(f"rho0 has shape {rho_init.shape}, expected ({r}, {r})")
    superop = build_superoperator(model)
    v0 = vectorize(rho_init)

    populations = np.empty((grid.size, r), dtype=float)
    states: list[np.ndarray] | None = [] if store_states else None
    for i, t in enumerate(grid):
        rho_t = devectorize(propagator(superop, t) @ v0, r)
        trace_defect = abs(np.trace(rho_t) - 1.0)
        if trace_defect > 1e-8:
            raise LsvdError(
                f"propagated state lost trace normalization at t={t} "
                f"(defect {trace_defect:.3e})"
            )
        populations[i] = np.real(np.diag(rho_t))
        if states is not None:
            states.append(rho_t)
    return PopulationTrace(
        times=grid,
        populations=populations,
        success_prob=np.ones(grid.size),
        mode="classical",
        labels=model.labels,
        states=states,
    )


# ---------------------------------------------------------------------------
# Model files
#
# JSON layout (complex entries are always [re, im] pairs):
# {
#   "dim": r,
#   "time_unit": "fs",
#   "hamiltonian": [[[re, im], ...], ...],
#   "channels": [{"operator": [[[re, im], ...], ...], "rate": g, "label": "..."}],
#   "labels": ["...", ...]
# }
# Unknown keys (e.g. "notes") are ignored on load.
# ---------------------------------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_pairs(obj, r: int, *, name: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (r, r, 2):
        raise ValueError(
            f"{name} must be an {r}x{r} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def model_to_dict(model: LindbladModel) -> dict:
    """Serialize a model to the JSON-compatible file layout."""
    return {
        "dim": model.dim,
        "time_unit": model.time_unit,
        "hamiltonian": _matrix_to_pairs(model.hamiltonian),
        "channels": [
            {
                "operator": _matrix_to_pairs(ch.operator),
                "rate": ch.rate,
                "label": ch.label,
            }
            for ch in model.channels
        ],
        "labels": list(model.labels),
    }


def model_from_dict(data: dict) -> LindbladModel:
    """Build a model from the file layout, with named validation errors."""
    if not isinstance(data, dict):
        raise ValueError("model file must contain a JSON object")
    try:
        r = int(data["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("model file is missing a valid 'dim' field") from exc
    if r < 1:
        raise ValueError(f"'dim' must be positive, got {r}")
    if "hamiltonian" not in data:
        raise ValueError("model file is missing 'hamiltonian'")
    hamiltonian = _matrix_from_pairs(data["hamiltonian"], r, name="hamiltonian")
    channels = []
    for idx, raw in enumerate(data.get("channels", [])):
        if "operator" not in raw or "rate" not in raw:
            raise ValueError(f"channel {idx} must have 'operator' and 'rate'")
        channels.append(
            Channel(
                operator=_matrix_from_pairs(raw["operator"], r, name=f"channel {idx} operator"),
                rate=float(raw["rate"]),
                label=str(raw.get("label", "")),
            )
        )
    labels = tuple(str(s) for s in data.get("labels", ()))
    return LindbladModel(
        hamiltonian=hamiltonian,
        channels=tuple(channels),
        labels=labels,
        time_unit=str(data.get("time_unit", "1")),
    )


def load_model(path) -> LindbladModel:
    """Load a model file; raises ``ValueError`` on malformed content."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)


def save_model(model: LindbladModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
