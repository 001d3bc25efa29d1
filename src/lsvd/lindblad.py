"""Markovian open-system models and their Liouville-space propagation.

A model is a Hamiltonian plus weighted collapse channels generating the
standard master equation (hbar = 1)

    drho/dt = -i[H, rho] + sum_i gamma_i (C_i rho C_i† - 1/2 {C_i† C_i, rho})

Column-stacking vectorization, vec(A X B) = (B^T ⊗ A) vec(X), turns this
into a linear flow on length-r² vectors generated by

    L = -i I⊗H + i H^T⊗I
        + sum_i gamma_i (C_i*⊗C_i - 1/2 I⊗C_i†C_i - 1/2 C_i^T C_i*⊗I)
      = I⊗A + A*⊗I + sum_i gamma_i C_i*⊗C_i,   A = -iH - 1/2 sum_i gamma_i C_i†C_i

so that vec(rho(t)) = exp(L t) vec(rho(0)).  ``lindblad_rhs`` keeps the
matrix form, written independently, so that tests can check L against it.

Units: hbar = 1 throughout.  Each model declares its time unit ("fs" for
the exciton models, "ms" for the spin models); Hamiltonians are stored in
angular frequency (rad per time unit) and rates in inverse time units,
pre-converted.  ``wavenumber_to_angular_frequency`` converts spectroscopic
cm^-1 values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
    must be r x r and every rate finite and non-negative.
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
            if not 0.0 <= ch.rate < np.inf:  # false for NaN too
                raise ValueError(
                    f"channel {idx} ({ch.label!r}) has rate {ch.rate}, "
                    "not a finite non-negative rate"
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
    """Level populations at a sequence of points: output times, or the
    members of a family run to one time (``evolve_family``), whose entries
    of ``times`` are then all that time.  ``populations`` has shape
    ``(len(times), r)``; ``success_prob`` holds the ancilla-0 weight per
    point (the postselected fraction in sampled mode, 1.0 for
    ``classical_evolve``).  ``labels`` names the r levels, as the model
    does.  ``scales`` records the dilation scale factor per point for
    circuit-based modes, and ``working_blocks`` the blocks they ran on
    (``pipeline._working_basis``).
    """

    times: np.ndarray
    populations: np.ndarray
    success_prob: np.ndarray
    labels: tuple[str, ...]
    scales: np.ndarray | None = None
    working_blocks: dict | None = None


def vectorize(rho) -> np.ndarray:
    """Column-stack an r x r matrix into a length-r² vector.

    Element ``j*r + i`` of the output is ``rho[i, j]``.
    """
    m = as_matrix(rho, name="rho")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"rho must be square, got shape {m.shape}")
    return m.flatten(order="F")


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
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{name} must be an {r}x{r} matrix of [re, im] pairs: {exc}"
        ) from exc
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
    if "dim" not in data:
        raise ValueError("model file is missing 'dim'")
    r = data["dim"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"'dim' must be an integer, got {r!r}")
    if r < 1:
        raise ValueError(f"'dim' must be positive, got {r}")
    if "hamiltonian" not in data:
        raise ValueError("model file is missing 'hamiltonian'")
    hamiltonian = _matrix_from_pairs(data["hamiltonian"], r, name="hamiltonian")
    raw_channels = data.get("channels", [])
    if not isinstance(raw_channels, list):
        raise ValueError(f"'channels' must be a list of channel objects, got {raw_channels!r}")
    channels = []
    for idx, raw in enumerate(raw_channels):
        if not isinstance(raw, dict) or "operator" not in raw or "rate" not in raw:
            raise ValueError(f"channel {idx} must be an object with 'operator' and 'rate'")
        try:
            rate = float(raw["rate"])
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"channel {idx} 'rate' must be a number, got {raw['rate']!r}"
            ) from exc
        channels.append(
            Channel(
                operator=_matrix_from_pairs(raw["operator"], r, name=f"channel {idx} operator"),
                rate=rate,
                label=str(raw.get("label", "")),
            )
        )
    labels = data.get("labels", [])
    if not isinstance(labels, list):
        raise ValueError(f"'labels' must be a list of level names, got {labels!r}")
    return LindbladModel(
        hamiltonian=hamiltonian,
        channels=tuple(channels),
        labels=tuple(str(s) for s in labels),
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
