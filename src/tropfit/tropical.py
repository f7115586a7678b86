"""Max-plus / min-plus linear algebra over the extended reals.

Scalars live in R ∪ {-inf, +inf}, represented as IEEE doubles with the
infinities reserved for the semiring bottoms/tops.  The max-plus product
resolves the ambiguous sum (-inf) + (+inf) to its absorbing -inf, so no
NaN can escape it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "as_vector",
    "maxplus_product",
    "principal_solution",
    "project_on_support",
]


class ShapeError(ValueError):
    """Dimension mismatch or malformed operand."""


def _matrix_and_max(a) -> tuple[np.ndarray, float]:
    """``a`` as a validated 2-D float64 array, with its largest entry.

    One max reduction finds both a NaN (the max of an array holding one is
    NaN) and a +inf.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    top = a.max()
    if np.isnan(top):
        raise ShapeError("matrix contains NaN; entries must be real or +/-inf")
    return a, top


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float64 array (m >= 1, n >= 1)."""
    return _matrix_and_max(a)[0]


def as_vector(x) -> np.ndarray:
    """Validate and return ``x`` as a 1-D float64 array (len >= 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"expected a non-empty 1-D vector, got shape {x.shape}")
    if np.isnan(x).any():
        raise ShapeError("vector contains NaN; entries must be real or +/-inf")
    return x


def maxplus_product(A, x) -> np.ndarray:
    """Max-plus matrix-vector product: result_i = max_k (A_ik + x_k).

    Sums use max-plus addition, so -inf entries absorb: (-inf) + (+inf) = -inf.
    """
    A = as_matrix(A)
    x = as_vector(x)
    if A.shape[1] != x.shape[0]:
        raise ShapeError(f"matrix has {A.shape[1]} columns, vector has length {x.shape[0]}")
    bottom = np.isneginf(A) | np.isneginf(x)
    with np.errstate(invalid="ignore"):
        return np.where(bottom, -np.inf, A + x).max(axis=1)


def principal_solution(A, b) -> np.ndarray:
    """Greatest xhat with A (max-plus) xhat <= b, via residuation.

    xhat_j = min_i (b_i - A_ij), i.e. (-A)^T (min-plus) b, for finite ``b`` and
    A in R ∪ {-inf}.  An all-(-inf) column gets +inf, clamped to -inf to keep
    xhat in R ∪ {-inf}.  A finite b_i - A_ij that overflows raises
    ValueError: its -inf would wrongly mark a column with finite entries
    as unusable.

    This is the one check of an instance (A, b): every solve reaches it
    through GreedyState.  ShapeError (a ValueError) means a malformed or
    NaN operand, or row counts that differ; ValueError a non-finite b, a
    +inf in A, or an overflow.
    """
    A, top = _matrix_and_max(A)
    b = as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix has {A.shape[0]} rows, vector has length {b.shape[0]}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite for the principal solution")
    if top == np.inf:
        raise ValueError("matrix entries must lie in R ∪ {-inf}")
    try:
        with np.errstate(over="raise"):
            residuals = b[:, np.newaxis] - A
    except FloatingPointError:
        raise ValueError("b_i - A_ij overflows a float for some finite entries; rescale A and b") from None
    xhat = residuals.min(axis=0)
    xhat[np.isposinf(xhat)] = -np.inf
    return xhat


def project_on_support(xhat, T) -> np.ndarray:
    """Copy of ``xhat`` restricted to index set ``T``; -inf elsewhere."""
    xhat = as_vector(xhat)
    idx = np.asarray(sorted(set(int(i) for i in T)), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= xhat.shape[0]):
        raise ShapeError(f"support indices out of range for vector of length {xhat.shape[0]}")
    out = np.full_like(xhat, -np.inf)
    if idx.size:
        out[idx] = xhat[idx]
    return out
