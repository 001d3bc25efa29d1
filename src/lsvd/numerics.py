"""Dense linear-algebra kernels used by every other module.

All functions accept anything ``numpy.asarray`` can turn into a 2-D array
and keep its field: real input is worked on, and returned, as ``float64``
and complex input as ``complex128``.  ``svd`` delegates to numpy's
LAPACK-backed routine but enforces the accuracy contract documented on it,
raising when the contract is missed instead of returning silently degraded
factors.
``expm`` is a scaling-and-squaring Taylor evaluation whose truncation is
driven by the requested tolerance.

Everything here is a pure function of its inputs; there is no shared
mutable state, so concurrent calls are safe.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import ConvergenceFailureError, ToleranceUnachievableError

Matrix = NDArray[np.float64] | NDArray[np.complex128]

#: Default relative tolerance for ``expm``/``svd``.  Propagators handled by
#: this package are at most a few hundred rows, so near-machine precision
#: is cheap and every downstream tolerance is derived from this one.
DEFAULT_TOL = 1e-12

# Scaling target for the Taylor core: with ||B||_1 <= 0.5 the series
# converges in ~15 terms at double precision.
_TAYLOR_RADIUS = 0.5
_MAX_SQUARINGS = 60
_MAX_TAYLOR_TERMS = 48


def as_matrix(a, *, name: str = "matrix") -> Matrix:
    """Coerce ``a`` to a finite 2-D array: complex128 if ``a`` is complex,
    float64 otherwise."""
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: Matrix, name: str = "matrix") -> None:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def expm(a, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix exponential by scaling and squaring with a Taylor core.

    Real input gives a float64 result, complex input a complex128 one.
    The input is scaled by ``2**-s`` with the smallest ``s >= 0`` that
    brings its 1-norm to at most 0.5, the series is summed until the next
    term falls below ``tol/16`` relative to the partial sum, and the result
    is squared ``s`` times.  The returned ``E`` satisfies
    ``||E - exp(a)||_F <= max(1, s) * tol * ||exp(a)||_F``: each squaring
    carries the error made so far into the next, so the bound grows with
    ``s``.  This is a measured bound, not a proof; it holds against
    ``scipy.linalg.expm`` for the bundled generators at their largest
    default times.  The plain ``tol`` bound does not hold: the compass
    generators miss it by up to ~2.5x at 13 to 16 squarings.  Squarings of
    a strongly non-normal ``a`` can amplify error faster.

    Raises:
        ValueError: if ``a`` is not square.
        ToleranceUnachievableError: if the required number of squarings
            exceeds the hard cap (norm astronomically large); the message
            gives the estimated achievable residual.
    """
    m = as_matrix(a)
    _require_square(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    if norm == 0.0:
        return np.eye(n, dtype=m.dtype)

    squarings = max(0, int(np.ceil(np.log2(norm / _TAYLOR_RADIUS))))
    if squarings > _MAX_SQUARINGS:
        estimate = 2.0**squarings * np.finfo(float).eps
        raise ToleranceUnachievableError(
            f"matrix 1-norm {norm:.3e} would need {squarings} squarings "
            f"(cap {_MAX_SQUARINGS}); estimated achievable relative residual "
            f"{estimate:.3e}"
        )

    b = m / (2.0**squarings)
    cutoff = tol / 16.0  # headroom for error growth in the squaring stage
    result = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, 1) <= cutoff * np.linalg.norm(result, 1):
            break
    else:
        raise ToleranceUnachievableError(
            f"Taylor series stalled above the requested tolerance "
            f"(last term norm {np.linalg.norm(term, 1):.3e})"
        )

    for _ in range(squarings):
        result = result @ result
    return result


def svd(a, tol: float = DEFAULT_TOL):
    """Singular value decomposition ``a = U diag(sigma) Vdag`` of a square matrix.

    Returns ``(u, sigma, vdag)`` with ``sigma`` real, non-negative and
    sorted descending; ``u`` and ``vdag`` are float64 (orthogonal) for real
    input and complex128 (unitary) for complex input.  The reconstruction
    residual and the departures of ``u``/``vdag`` from unitarity (Frobenius
    norms) are checked against ``tol``; a miss raises
    ``ConvergenceFailureError`` that gives the worst residual.

    Factor matrices are not unique (degenerate singular values admit
    arbitrary unitary mixing), so callers should only ever compare
    reconstructed products, never the factors themselves.
    """
    m = as_matrix(a)
    _require_square(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = m.shape[0]
    try:
        u, sigma, vdag = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"SVD did not converge: {exc}") from exc

    scale = np.linalg.norm(m)
    residual = np.linalg.norm((u * sigma) @ vdag - m) / (scale if scale > 0 else 1.0)
    eye = np.eye(n)
    ortho = max(
        np.linalg.norm(u.conj().T @ u - eye),
        np.linalg.norm(vdag @ vdag.conj().T - eye),
    )
    worst = float(max(residual, ortho))
    if worst > tol:
        raise ConvergenceFailureError(
            f"SVD accuracy contract missed: residual {worst:.3e} > tol {tol:.3e}"
        )
    return u, sigma, vdag
