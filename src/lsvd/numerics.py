"""Dense linear-algebra kernels used by every other module.

All functions accept anything ``numpy.asarray`` can turn into a 2-D array
and keep its field: real input is worked on, and returned, as ``float64``
and complex input as ``complex128``.  ``expm`` and ``svd`` also take a
stack of matrices, shape ``(..., m, m)``, as ``numpy.linalg.svd`` does,
and treat each matrix of it as a call of its own would; both refuse empty
input.  ``svd`` factors real 1 x 1 and 2 x 2 matrices in closed form and
all others by numpy's LAPACK-backed routine, then enforces the accuracy
contract documented on it for every matrix of the stack, raising when the
contract is missed instead of returning silently degraded factors.
``expm`` scales each matrix to a 1-norm of at most ``theta_13 = 5.37``,
evaluates a fixed [13/13] Padé approximant and squares back; its error,
measured against a 40-digit reference, stays within ``max(1, s)`` times
``DEFAULT_TOL`` for ``s`` squarings.

Everything here is a pure function of its inputs; there is no shared
mutable state, so concurrent calls are safe.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import LsvdError

Matrix = NDArray[np.float64] | NDArray[np.complex128]

#: Relative tolerance of ``svd``'s checks and of the measured ``expm``
#: bound.  Propagators handled by this package are at most a few hundred
#: rows, so near-machine precision is cheap and every downstream tolerance
#: is derived from this one.
DEFAULT_TOL = 1e-12

# Higham's [13/13] Padé coefficients b_k / b_0, so that expm(0) is exactly I,
# and the 1-norm up to which the approximant is accurate to double precision.
_PADE_13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1,
))
_THETA_13 = 5.371920351148152
_MAX_SQUARINGS = 60


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


def _square_stack(a) -> Matrix:
    m = as_matrix(a, stacked=True)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {m.shape[-2:]}")
    if m.size == 0:
        raise ValueError(f"matrix has no entries, got shape {m.shape}")
    return m


def expm(a) -> Matrix:
    """Matrix exponential by scaling and squaring with a [13/13] Padé core
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), of a square
    matrix or of each matrix of a stack ``(..., m, m)``.

    Real input gives a float64 result, complex input a complex128 one.
    Each matrix is scaled by ``2**-s`` with the smallest ``s >= 0`` that
    brings its 1-norm to at most ``theta_13 = 5.37``, its approximant is
    evaluated from six products and one solve, its sums written in place
    into three reused stack-sized buffers and the powers released before
    the solve, and the result is squared ``s`` times.  ``s`` is the
    matrix's own: a matrix of a stack gets the bits it would get alone.  The returned ``E`` satisfies ``||E -
    exp(a)||_F <= max(1, s) * DEFAULT_TOL * ||exp(a)||_F``: each squaring
    carries the error made so far into the next, so the bound grows with
    ``s``.  This is a measured bound, not a proof; it holds against a
    40-digit ``mpmath.expm`` for the bundled generators' blocks at their
    largest default times, and for the orientation sweep's 32 x 32 block
    at theta = 0.  Squarings of a strongly non-normal ``a`` can amplify
    error faster.

    Raises:
        ValueError: if ``a`` is empty, not square or has a non-finite entry.
        LsvdError: if the squarings one matrix needs exceed the hard
            cap (norm astronomically large); the message gives the
            estimated achievable residual.
    """
    m = _square_stack(a)
    stack = m.reshape((-1,) + m.shape[-2:])
    norms = np.linalg.norm(stack, 1, axis=(-2, -1))
    floor = np.maximum(norms, np.finfo(float).tiny)  # log2(0) warns; 0 needs no scaling
    squarings = np.maximum(0, np.ceil(np.log2(floor / _THETA_13))).astype(int)
    if squarings.max() > _MAX_SQUARINGS:
        worst = int(np.argmax(squarings))
        estimate = 2.0 ** squarings[worst] * np.finfo(float).eps
        raise LsvdError(
            f"matrix 1-norm {norms[worst]:.3e} would need {squarings[worst]} squarings "
            f"(cap {_MAX_SQUARINGS}); estimated achievable relative residual "
            f"{estimate:.3e}"
        )

    c, eye = _PADE_13, np.eye(m.shape[-1])
    b = stack / 2.0 ** squarings[:, None, None]
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b4 @ b2
    # the [13/13] products and left-to-right sums, in three reused buffers:
    # u = b @ (b6 @ (c13 b6 + c11 b4 + c9 b2) + c7 b6 + c5 b4 + c3 b2 + c1 I)
    # and v = b6 @ (c12 b6 + c10 b4 + c8 b2) + c6 b6 + c4 b4 + c2 b2 + I
    inner, odd, term = np.multiply(c[13], b6), np.empty_like(b), np.empty_like(b)
    _accumulate(inner, term, (c[11], b4), (c[9], b2))
    _accumulate(np.matmul(b6, inner, out=odd), term, (c[7], b6), (c[5], b4), (c[3], b2))
    odd += c[1] * eye
    u = np.matmul(b, odd, out=inner)
    del b
    _accumulate(np.multiply(c[12], b6, out=odd), term, (c[10], b4), (c[8], b2))
    v = _accumulate(np.matmul(b6, odd, out=term), odd, (c[6], b6), (c[4], b4), (c[2], b2))
    v += eye
    del b2, b4, b6  # released before the solve
    result = np.linalg.solve(np.subtract(v, u, out=odd), np.add(v, u, out=u))
    for step in range(squarings.max()):
        if squarings.min() > step:
            result = result @ result
        else:
            squaring = np.flatnonzero(squarings > step)
            result[squaring] = result[squaring] @ result[squaring]
    return result.reshape(m.shape)


def _accumulate(out: Matrix, scratch: Matrix, *terms) -> Matrix:
    """``out += coeff * power`` for each ``(coeff, power)`` of ``terms``, in
    order, each product formed in ``scratch``; returns ``out``."""
    for coeff, power in terms:
        out += np.multiply(coeff, power, out=scratch)
    return out


def _squared_defect(product: Matrix, target=0.0) -> np.ndarray:
    """Squared Frobenius norm of ``product - target`` for each matrix of a
    stack, computed in place: ``product`` must be a temporary, so that a
    check holds one extra stack at a time."""
    product -= target
    product *= product.conj()
    return np.add.reduce(product, axis=(-2, -1)).real


def _small_svd(m: np.ndarray):
    """Closed-form SVD of a real stack of 1 x 1 or 2 x 2 matrices: u =
    sign(a) (+1 at 0), sigma = |a|, vdag = 1; or rotations by phi and theta
    around diag(q + r, q - r), q and r the norms of the rotation and the
    reflection part (Blinn, IEEE CG&A 16(2), 82 (1996)), with the sign of a
    negative q - r moved into vdag's second row."""
    if m.shape[-1] == 1:
        return np.where(m < 0, -1.0, 1.0), np.abs(m[..., 0]), np.ones_like(m)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    q, r = np.hypot(a + d, c - b) / 2, np.hypot(a - d, c + b) / 2
    first, second = np.arctan2(c + b, a - d), np.arctan2(c - b, a + d)
    angles = np.stack([second + first, second - first]) / 2  # of u and of vdag
    cos, sin = np.cos(angles), np.sin(angles)
    u, vdag = np.stack([cos, -sin, sin, cos], axis=-1).reshape(angles.shape + (2, 2))
    vdag[..., 1, :] *= np.where(q < r, -1.0, 1.0)[..., None]
    return u, np.stack([q + r, np.abs(q - r)], axis=-1), vdag


def svd(a):
    """Singular value decomposition ``a = U diag(sigma) Vdag`` of a square
    matrix, or of each matrix of a stack ``(..., m, m)``.

    Returns ``(u, sigma, vdag)`` with the leading axes of ``a``; ``sigma``
    is real, non-negative and sorted descending; ``u`` and ``vdag`` are
    float64 (orthogonal) for real input and complex128 (unitary) for
    complex input.  Real 1 x 1 and 2 x 2 matrices are factored in closed
    form (``_small_svd``), all others by LAPACK.  For every matrix, the
    reconstruction residual against that matrix's own norm and the
    departures of ``u``/``vdag`` from unitarity (Frobenius norms) are
    checked against ``DEFAULT_TOL``.

    Factor matrices are not unique (degenerate singular values admit
    arbitrary unitary mixing), so callers should only ever compare
    reconstructed products, never the factors themselves.

    Raises:
        ValueError: if ``a`` is empty, not square or has a non-finite entry.
        LsvdError: if LAPACK does not converge, or if a check misses
            ``DEFAULT_TOL``; the message gives the worst residual of the
            stack.
    """
    m = _square_stack(a)
    small = m.shape[-1] <= 2 and not np.iscomplexobj(m)
    try:
        u, sigma, vdag = _small_svd(m) if small else np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise LsvdError(f"SVD did not converge: {exc}") from exc

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
    if not worst <= DEFAULT_TOL:  # a NaN factor fails too
        raise LsvdError(
            f"SVD accuracy contract missed: residual {worst:.3e} > tol {DEFAULT_TOL:.3e}"
        )
    return u, sigma, vdag
