"""Intersecting-brane background matrices and the off-diagonal fluctuation between them."""

from __future__ import annotations

import math

import numpy as np

from .oscillator import validate_angle


def build_background(thetas: list[float], q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The coordinate matrices X_1, X_2, X_3 of two branes at each angle, as (T, 3, 2N, 2N).

    Both diagonal blocks use the same N-level relative pair (Q, P), as from
    ``make_qp(N, z2)``, with [Q, P] = 2*pi*i*z2 on the interior, so the block
    algebra stays closed under commutators.
    """
    for angle in thetas:
        validate_angle(angle)
    n = q.shape[-1]
    if n < 4:
        raise ValueError(f"truncation size must be >= 4, got {n}")
    # math's sin and cos: numpy's vector ones can differ in the last bit
    sin_t, cos_t = np.array([[math.sin(a), math.cos(a)] for a in thetas]).T[..., None, None]
    xs = np.zeros((len(thetas), 3, 2 * n, 2 * n), dtype=complex)
    xs[:, 0, :n, :n] = xs[:, 0, n:, n:] = p * sin_t
    xs[:, 1, :n, :n], xs[:, 1, n:, n:] = p * cos_t, -p * cos_t
    xs[:, 2, :n, :n] = xs[:, 2, n:, n:] = q
    return xs


def validate_blocks(ts: np.ndarray) -> None:
    """Reject off-diagonal blocks T_1, T_2, T_3 that are not a (3, N, N) stack per trial."""
    shape = ts.shape
    if len(shape) < 3 or shape[-3] != 3 or shape[-2] != shape[-1]:
        raise ValueError(f"fluctuation blocks must be a (3, N, N) stack per trial, got {shape}")


def block_matrices(ts: np.ndarray) -> np.ndarray:
    """The Hermitian 2N x 2N matrices [[0, T_i], [T_i^dag, 0]], stacked as (..., 3, 2N, 2N)."""
    validate_blocks(ts)
    n = ts.shape[-1]
    out = np.zeros((*ts.shape[:-2], 2 * n, 2 * n), dtype=complex)
    out[..., :n, n:] = ts
    out[..., n:, :n] = ts.conj().swapaxes(-1, -2)
    return out
