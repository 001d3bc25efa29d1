"""Independent reference rows for the workloads, and the check of a table.

The reference shares no propagation code with the pipeline: it never
calls ``lsvd.numerics.expm``, ``lsvd.lindblad.propagator`` or
``classical_evolve``.  It takes the generator from
``lsvd.lindblad.build_superoperator`` only after checking it against the
literal matrix-form ``lsvd.lindblad.lindblad_rhs`` on random states, and
exponentiates it with ``scipy.linalg.expm``.  On a uniform grid
``t_k = k dt`` the state at ``t_k`` is ``expm(L dt)^k vec(rho0)``, so one
``expm`` per grid serves every row.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from lsvd.lindblad import build_superoperator, lindblad_rhs
from lsvd.models import rpm_model

#: Absolute bound on every exact-mode population (or yield).
EXACT_TOL = 1e-8
#: Absolute bound on sampled populations at 2^19 shots.
SAMPLED_TOL = 0.02
#: Relative bound on ``L vec(rho) - vec(rhs(rho))`` for the generator check.
GENERATOR_RTOL = 1e-10
#: Relative bound on the first (time or angle) column of a row.
KEY_RTOL = 1e-12


class GeneratorMismatch(Exception):
    """The Kronecker generator disagrees with the matrix-form equation."""


@dataclass(frozen=True)
class Reference:
    """Expected table: header, first column, and the checked columns."""

    columns: tuple[str, ...]
    key: np.ndarray
    checked: tuple[str, ...]
    values: np.ndarray
    tol: float


def _vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=np.complex128).flatten(order="F")


def checked_generator(model, rng: np.random.Generator, states: int = 3) -> np.ndarray:
    """``build_superoperator(model)``, verified on random density matrices."""
    superop = build_superoperator(model)
    r = model.dim
    for _ in range(states):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        defect = np.linalg.norm(superop @ _vec(rho) - _vec(lindblad_rhs(model, rho)))
        scale = np.linalg.norm(superop) * np.linalg.norm(rho)
        if not defect <= GENERATOR_RTOL * scale:
            raise GeneratorMismatch(
                f"generator differs from lindblad_rhs by {defect / scale:.3e} (relative)"
            )
    return superop


def grid_reference(model, rho0, dt: float, points: int, tol: float, rng) -> Reference:
    """Populations at ``t_k = k dt`` for ``k < points``."""
    r = model.dim
    step = scipy.linalg.expm(checked_generator(model, rng) * dt)
    diagonal = np.arange(r) * (r + 1)
    state = _vec(rho0)
    values = np.empty((points, r))
    for k in range(points):
        if k:
            state = step @ state
        values[k] = state[diagonal].real
    labels = tuple(model.labels)
    return Reference(
        columns=("time", *labels, "success_prob"),
        key=np.arange(points) * dt,
        checked=labels,
        values=values,
        tol=tol,
    )


def sweep_reference(base, thetas_deg: np.ndarray, t_end: float, rng) -> Reference:
    """Singlet and triplet yields at ``t_end`` for each field orientation."""
    values = np.empty((thetas_deg.size, 2))
    for i, theta in enumerate(np.deg2rad(thetas_deg)):
        model, rho0 = rpm_model(replace(base, theta=float(theta)))
        r = model.dim
        state = scipy.linalg.expm(checked_generator(model, rng) * t_end) @ _vec(rho0)
        for j, label in enumerate(("S", "T")):
            level = model.labels.index(label)
            values[i, j] = state[level * (r + 1)].real
    return Reference(
        columns=("theta_deg", "phi_S", "phi_T", "success_prob"),
        key=thetas_deg,
        checked=("phi_S", "phi_T"),
        values=values,
        tol=EXACT_TOL,
    )


@dataclass(frozen=True)
class TableCheck:
    rows: int
    failed_rows: int
    max_err: float
    sha256: str | None


def check_table(path, ref: Reference) -> TableCheck:
    """Compare a written CSV table with the reference, row by row.

    A row fails when its first column is off the grid or any checked
    column misses the reference by more than ``ref.tol``.  A missing or
    unreadable table, a wrong header or a wrong row count fails every row.
    """
    expected = len(ref.key)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = list(csv.reader(raw.decode("utf-8").splitlines()))
        header, body = tuple(lines[0]), [[float(v) for v in row] for row in lines[1:]]
    except (OSError, UnicodeDecodeError, IndexError, ValueError):
        return TableCheck(0, expected, 0.0, None)
    digest = hashlib.sha256(raw).hexdigest()
    if header != ref.columns or len(body) != expected:
        return TableCheck(len(body), expected, 0.0, digest)
    cols = [header.index(c) for c in ref.checked]
    table = np.asarray(body)
    errors = np.max(np.abs(table[:, cols] - ref.values), axis=1)
    key_ok = np.abs(table[:, 0] - ref.key) <= KEY_RTOL * np.maximum(1.0, np.abs(ref.key))
    failed = int(np.count_nonzero(~(key_ok & (errors <= ref.tol))))
    worst = float(np.max(errors))
    return TableCheck(len(body), failed, worst if math.isfinite(worst) else 0.0, digest)
