"""Shared float64 vector/matrix kernels."""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_vector",
    "as_matrix",
    "as_rows",
    "softmax",
    "softmax_rows",
    "normalize_rows",
    "normalize_rows_with_divisors",
]


def as_vector(values, size: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if size is not None and v.size != size:
        raise ValueError(f"expected a vector of length {size}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, optionally checking its shape."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    return as_rows(m, cols)


def as_rows(values, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 array of rows, (..., R, C) with at least 2 axes."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"expected rows of a matrix, got shape {m.shape}")
    if cols is not None and m.shape[-1] != cols:
        raise ValueError(f"expected {cols} columns, got {m.shape[-1]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def softmax(logits) -> np.ndarray:
    """Stable softmax of a logit vector (max-subtracted before exponentiation)."""
    z = as_vector(logits)
    if z.size == 0:
        raise ValueError("softmax of an empty vector")
    e = np.exp(z - z.max())
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of a (..., K) logit array. No input validation."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Rows (last axis) scaled to unit norm; a zero-norm row stays zero. No input validation."""
    return normalize_rows_with_divisors(m)[0]


# Row norms below sqrt(smallest normal) may come from squares that underflow,
# and norms of inf from squares that overflow: such rows are rescaled by an
# exact power of two before they are normalised.
_TINY_NORM = float(np.sqrt(np.finfo(np.float64).tiny))
_UPSCALE = 2.0**600


def normalize_rows_with_divisors(
    m: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(U, d)`` with ``U = m / d``: the rows of ``m`` scaled to unit norm, and
    their (..., 1) divisors.

    ``d`` is the row norm, with ``np.linalg.norm``'s bits wherever that norm
    is at least sqrt(smallest normal) (about 1.5e-154) and its sum of
    squares does not overflow (a norm below about 1.3e154), and the division
    is true division, so a width-1 row whose square is a normal float comes
    out exactly +-1. A row of smaller norm, whose squares may underflow, is
    normalised after scaling it by 2**600, and a row whose squares overflow
    after scaling it by 2**-600, so every nonzero finite row comes out unit,
    from subnormal entries up to the largest floats; its ``d`` is its scaled
    norm divided by the scale (inf only where the norm itself exceeds the
    float range). A zero row has ``d = +inf`` and maps to zero. ``out``, a
    ``(U, d)`` pair of buffers of those shapes, receives the result. No
    input validation.
    """
    if out is None:
        out = np.empty(m.shape), np.empty((*m.shape[:-1], 1))
    U, d = out
    with np.errstate(over="ignore", under="ignore"):  # how huge and tiny rows are found
        np.add.reduce(np.multiply(m, m, out=U), axis=-1, keepdims=True, out=d)
    np.sqrt(d, out=d)
    # fmin/fmax skip NaN rows (from non-finite input), as an elementwise test would
    if d.size and (np.fmin.reduce(d, axis=None) < _TINY_NORM
                   or np.fmax.reduce(d, axis=None) == np.inf):
        huge = d == np.inf
        small = d < _TINY_NORM
        np.copyto(d, np.inf, where=small)  # right for zero rows, the common case
        np.divide(m, d, out=U)
        rows = (small | huge)[..., 0]
        flagged = m[rows]
        if np.count_nonzero(flagged):
            scale = np.where(huge[rows], 1.0 / _UPSCALE, _UPSCALE)
            scaled = flagged * scale
            norms = np.sqrt(np.add.reduce(scaled * scaled, axis=-1, keepdims=True))
            norms[norms == 0.0] = np.inf
            with np.errstate(over="ignore"):  # a norm beyond the float range is inf
                d[rows] = norms / scale
            U[rows] = scaled / norms
        return U, d
    return np.divide(m, d, out=U), d
