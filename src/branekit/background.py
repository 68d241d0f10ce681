"""Intersecting-brane background matrices and the off-diagonal fluctuation between them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import make_qp, validate_levels, validate_params

#: Largest truncation of the dense 2N x 2N background; ``identities`` builds
#: one at N // 4, and ``identities --N 4003`` peaks at 405 MB resident.
MAX_DENSE_LEVELS = 1000


@dataclass(frozen=True, eq=False)
class BraneBackground:
    """Two branes intersecting at one angle, on a shared N-level truncation.

    xs stacks the 2N x 2N block-diagonal coordinate matrices X_1, X_2, X_3 as
    one (3, 2N, 2N) array; q_rel and p_rel are the N x N relative coordinates
    with [q_rel, p_rel] = 2*pi*i*z2 on the interior.  All fields are
    immutable after construction.
    """

    theta: float
    z2: float
    R: float
    n_levels: int
    xs: np.ndarray
    q_rel: np.ndarray
    p_rel: np.ndarray


def build_background(theta: float, z2: float, R: float, n_levels: int) -> BraneBackground:
    """Assemble the background from one shared coordinate pair.

    Both diagonal blocks use the same N-level representation, so the block
    algebra stays closed under commutators.
    """
    validate_params(theta, z2, R)
    validate_levels("dense background", n_levels, MAX_DENSE_LEVELS)
    q, p = make_qp(n_levels, z2)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    n = n_levels
    xs = np.zeros((3, 2 * n, 2 * n), dtype=complex)
    xs[:, :n, :n] = p * sin_t, p * cos_t, q
    xs[:, n:, n:] = p * sin_t, -p * cos_t, q
    return BraneBackground(theta=theta, z2=z2, R=R, n_levels=n, xs=xs, q_rel=q, p_rel=p)


@dataclass(frozen=True, eq=False)
class OffDiagonalFluctuation:
    """Off-diagonal interaction blocks T_1, T_2, T_3 between the two branes, (3, N, N) per trial."""

    ts: np.ndarray

    def __post_init__(self) -> None:
        shape = self.ts.shape
        if len(shape) < 3 or shape[-3] != 3 or shape[-2] != shape[-1]:
            raise ValueError(f"fluctuation blocks must be a (3, N, N) stack per trial, got {shape}")

    @property
    def dim(self) -> int:
        return self.ts.shape[-1]

    def block_matrices(self) -> np.ndarray:
        """The Hermitian 2N x 2N matrices [[0, T_i], [T_i^dag, 0]], stacked as (..., 3, 2N, 2N)."""
        n = self.dim
        out = np.zeros((*self.ts.shape[:-2], 2 * n, 2 * n), dtype=complex)
        out[..., :n, n:] = self.ts
        out[..., n:, :n] = self.ts.conj().swapaxes(-1, -2)
        return out
