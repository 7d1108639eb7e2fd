"""Minimal dense linear-algebra substrate.

Matrices are 2-D float64 ``numpy`` arrays in row-major order, vectors are
1-D arrays. Every public operation validates finiteness of what it takes.
Downstream code validates at its boundaries, not inside its loops: an update
stage checks the caller's arrays at entry and the weights it returns once.

The two scipy imports live inside ``cholesky_lower`` and ``spd_solve``, after
their input checks: importing ``scipy.linalg`` costs 0.2-0.3 s and about
20 MB per process and maps a second OpenBLAS, and no bench or session run
factorizes, so only the first factorization in a process pays for it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivergenceError, FactorizationError, InputError

Matrix = np.ndarray
Vector = np.ndarray

_SYM_TOL = 1e-10


def as_array(a, name: str, ndim: int) -> np.ndarray:
    """Coerce to an ``ndim``-D float64 array of positive dimensions and
    finite entries: the one array check of the package."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if out.size == 0:
        raise DimensionError(f"{name} must have positive dimensions, got {out.shape}")
    if not np.isfinite(out).all():
        raise InputError(f"{name} contains non-finite entries")
    return out


def stepped_weights(make, w, where: str, iteration: int, *, layer=None, step=None):
    """``make(w)``, the one finiteness check of weights an update stage
    stepped: ``make`` builds them through ``as_array`` (``as_matrix``,
    ``mlp.Layer``, ``conv.ConvLayer``), and its InputError for non-finite
    entries becomes DivergenceError(iteration, layer=layer, step=step),
    "<where>: weights not finite after iteration i[ at precision step s]"."""
    try:
        return make(w)
    except InputError as err:
        at = "" if step is None else f" at precision step {step}"
        message = f"{where}: weights not finite after iteration {iteration}{at}"
        raise DivergenceError(iteration, message, layer=layer, step=step) from err


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array and validate finiteness."""
    return as_array(a, name, 2)


def as_vector(a, name: str = "vector") -> Vector:
    """Flatten to a 1-D float64 array and validate finiteness."""
    return as_array(np.asarray(a, dtype=np.float64).reshape(-1), name, 1)


def cholesky_lower(a: Matrix) -> Matrix:
    """Lower-triangular Cholesky factor of an SPD matrix (LAPACK ``potrf``).

    Raises FactorizationError naming the failing pivot when the matrix is
    not positive definite.
    """
    a = as_matrix(a, "spd matrix")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    scale = 1.0 + np.abs(a).max()
    if np.abs(a - a.T).max() > _SYM_TOL * scale:
        raise InputError("matrix is not symmetric within tolerance")
    from scipy.linalg.lapack import dpotrf

    low, info = dpotrf(a, lower=1, clean=1)
    if info > 0:
        # potrf reports the order of the first non-positive leading minor
        raise FactorizationError(info - 1)
    return low


def spd_solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b for symmetric positive-definite ``a``.

    Uses a Cholesky factorization, which doubles as a positive-definiteness
    check.
    """
    a = as_matrix(a, "spd matrix")
    b = as_matrix(b, "right-hand side")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"incompatible shapes for solve: {a.shape} and {b.shape}"
        )
    low = cholesky_lower(a)
    from scipy.linalg import solve_triangular

    y = solve_triangular(low, b, lower=True)
    x = solve_triangular(low.T, y, lower=False)
    if not np.isfinite(x).all():
        raise InputError("solve produced non-finite entries")
    return x
