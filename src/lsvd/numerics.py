"""Dense linear-algebra kernels used by every other module.

All functions accept anything ``numpy.asarray`` can turn into a 2-D array
and keep its field: real input is worked on, and returned, as ``float64``
and complex input as ``complex128``.  ``expm`` and ``svd`` also take a
stack of matrices, shape ``(..., m, m)``, as ``numpy.linalg.svd`` does,
and treat each matrix of it as a call of its own would.  ``svd``
delegates to numpy's LAPACK-backed routine but enforces the accuracy
contract documented on it for every matrix of the stack, raising when the
contract is missed instead of returning silently degraded factors.
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


def as_matrix(a, *, name: str = "matrix", stacked: bool = False) -> Matrix:
    """Coerce ``a`` to a finite 2-D array: complex128 if ``a`` is complex,
    float64 otherwise.  With ``stacked``, leading axes are allowed too."""
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(m: Matrix, name: str = "matrix") -> None:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape[-2:]}")


def expm(a, tol: float = DEFAULT_TOL) -> Matrix:
    """Matrix exponential by scaling and squaring with a Taylor core, of a
    square matrix or of each matrix of a stack ``(..., m, m)``.

    Real input gives a float64 result, complex input a complex128 one.
    Each matrix is scaled by ``2**-s`` with the smallest ``s >= 0`` that
    brings its 1-norm to at most 0.5, its series is summed until the next
    term falls below ``tol/16`` relative to the partial sum, and the result
    is squared ``s`` times.  Both counts are the matrix's own: a matrix of
    a stack gets the bits it would get alone.  The returned ``E``
    satisfies ``||E - exp(a)||_F <= max(1, s) * tol * ||exp(a)||_F``: each
    squaring carries the error made so far into the next, so the bound
    grows with ``s``.  This is a measured bound, not a proof; it holds
    against ``scipy.linalg.expm`` for the bundled generators at their
    largest default times.  The plain ``tol`` bound does not hold: the
    compass generators miss it by up to ~2.5x at 13 to 16 squarings.
    Squarings of a strongly non-normal ``a`` can amplify error faster.

    Raises:
        ValueError: if ``a`` is not square or has a non-finite entry.
        ToleranceUnachievableError: if the squarings one matrix needs
            exceed the hard cap (norm astronomically large); the message
            gives the estimated achievable residual.
    """
    m = as_matrix(a, stacked=True)
    _require_square(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    stack = m.reshape((-1,) + m.shape[-2:])
    norms = np.linalg.norm(stack, 1, axis=(-2, -1))
    floor = np.maximum(norms, np.finfo(float).tiny)  # log2(0) warns; 0 needs no scaling
    squarings = np.maximum(0, np.ceil(np.log2(floor / _TAYLOR_RADIUS))).astype(int)
    if squarings.max() > _MAX_SQUARINGS:
        worst = int(np.argmax(squarings))
        estimate = 2.0 ** squarings[worst] * np.finfo(float).eps
        raise ToleranceUnachievableError(
            f"matrix 1-norm {norms[worst]:.3e} would need {squarings[worst]} squarings "
            f"(cap {_MAX_SQUARINGS}); estimated achievable relative residual "
            f"{estimate:.3e}"
        )

    b = stack / 2.0 ** squarings[:, None, None]
    cutoff = tol / 16.0  # headroom for error growth in the squaring stage
    result = np.broadcast_to(np.eye(m.shape[-1], dtype=m.dtype), stack.shape).copy()
    term = result.copy()
    active = np.arange(len(stack))  # the matrices whose series has not converged
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        step = term[active] @ b[active] / k
        partial = result[active] + step
        term[active], result[active] = step, partial
        step_norm, partial_norm = (np.linalg.norm(x, 1, axis=(-2, -1)) for x in (step, partial))
        active = active[~(step_norm <= cutoff * partial_norm)]  # a NaN never converges
        if not active.size:
            break
    else:
        raise ToleranceUnachievableError(
            f"Taylor series stalled above the requested tolerance "
            f"(last term norm {np.linalg.norm(term[active[0]], 1):.3e})"
        )

    for step in range(squarings.max()):
        squaring = np.flatnonzero(squarings > step)
        result[squaring] = result[squaring] @ result[squaring]
    return result.reshape(m.shape)


def _squared_defect(product: Matrix, target=0.0) -> np.ndarray:
    """Squared Frobenius norm of ``product - target`` for each matrix of a
    stack, computed in place: ``product`` must be a temporary, so that a
    check holds one extra stack at a time."""
    product -= target
    product *= product.conj()
    return np.add.reduce(product, axis=(-2, -1)).real


def svd(a, tol: float = DEFAULT_TOL):
    """Singular value decomposition ``a = U diag(sigma) Vdag`` of a square
    matrix, or of each matrix of a stack ``(..., m, m)``.

    Returns ``(u, sigma, vdag)`` with the leading axes of ``a``; ``sigma``
    is real, non-negative and sorted descending; ``u`` and ``vdag`` are
    float64 (orthogonal) for real input and complex128 (unitary) for
    complex input.  For every matrix, the reconstruction residual against
    that matrix's own norm and the departures of ``u``/``vdag`` from
    unitarity (Frobenius norms) are checked against ``tol``; a miss raises
    ``ConvergenceFailureError`` that gives the worst residual of the stack.

    Factor matrices are not unique (degenerate singular values admit
    arbitrary unitary mixing), so callers should only ever compare
    reconstructed products, never the factors themselves.
    """
    m = as_matrix(a, stacked=True)
    _require_square(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        u, sigma, vdag = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"SVD did not converge: {exc}") from exc

    eye = np.eye(m.shape[-1])
    norm_squared = _squared_defect(m.copy())
    norm_squared = norm_squared + (norm_squared == 0)  # zero matrix: absolute residual
    worst_squared = np.maximum(
        _squared_defect((u * sigma[..., None, :]) @ vdag, m) / norm_squared,
        np.maximum(
            _squared_defect(np.swapaxes(u, -1, -2).conj() @ u, eye),
            _squared_defect(vdag @ np.swapaxes(vdag, -1, -2).conj(), eye),
        ),
    )
    worst = float(np.sqrt(worst_squared.max()))
    if not worst <= tol:  # a NaN factor fails too
        raise ConvergenceFailureError(
            f"SVD accuracy contract missed: residual {worst:.3e} > tol {tol:.3e}"
        )
    return u, sigma, vdag
