"""Intersecting-brane background matrices and their block commutators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import InteriorProjector, commutator, make_qp, validate_angle, validate_positive


def _block_diag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    n = upper.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[upper, zero], [zero, lower]])


@dataclass(frozen=True, eq=False)
class BraneBackground:
    """Two branes intersecting at one angle, on a shared N-level truncation.

    x1, x2, x3 are the 2N x 2N block-diagonal coordinate matrices; q_rel and
    p_rel are the N x N relative coordinates with [q_rel, p_rel] = 2*pi*i*z2
    on the interior.  All fields are immutable after construction.
    """

    theta: float
    z2: float
    R: float
    n_levels: int
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    q_rel: np.ndarray
    p_rel: np.ndarray


def build_background(theta: float, z2: float, R: float, n_levels: int) -> BraneBackground:
    """Assemble the background from one shared coordinate pair.

    Both diagonal blocks use the same N-level representation, so the block
    algebra stays closed under commutators.
    """
    validate_angle(theta)
    validate_positive("tension scale R", R)
    if n_levels < 4:
        raise ValueError(f"truncation size must be >= 4, got {n_levels}")
    q, p = make_qp(n_levels, z2)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    x1 = _block_diag(p * sin_t, p * sin_t)
    x2 = _block_diag(p * cos_t, -p * cos_t)
    x3 = _block_diag(q, q)
    return BraneBackground(
        theta=theta, z2=z2, R=R, n_levels=n_levels, x1=x1, x2=x2, x3=x3, q_rel=q, p_rel=p
    )


@dataclass(frozen=True, eq=False)
class OffDiagonalFluctuation:
    """Off-diagonal interaction blocks between the two branes."""

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray

    def __post_init__(self) -> None:
        shape = self.t1.shape
        if self.t2.shape != shape or self.t3.shape != shape:
            raise ValueError("fluctuation blocks must share one shape")
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"fluctuation blocks must be square, got {shape}")

    @property
    def dim(self) -> int:
        return self.t1.shape[0]

    def block_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hermitian 2N x 2N matrices [[0, T], [T^dag, 0]]."""
        out = []
        zero = np.zeros((self.dim, self.dim), dtype=complex)
        for t in (self.t1, self.t2, self.t3):
            out.append(np.block([[zero, t], [t.conj().T, zero]]))
        return tuple(out)


@dataclass(frozen=True)
class BlockConstant:
    """Identity-proportionality of one block of one background commutator."""

    pair: tuple[int, int]
    block: str  # "upper" | "lower"
    constant: complex
    residual: float


@dataclass(frozen=True)
class BackgroundCommutatorReport:
    """Per-block commutator constants plus the squared-sum coefficient.

    squared_sum is 2 * sum over i<j of the upper-block constants squared,
    the per-interior-level coefficient of the squared-commutator trace; it
    equals -8 pi^2 z2^2 independently of the angle.
    """

    checks: tuple[BlockConstant, ...]
    squared_sum: complex
    max_residual: float


def check_background_commutators(bg: BraneBackground) -> BackgroundCommutatorReport:
    """Verify each [X_i, X_j] block is proportional to the identity below the top level."""
    mats = {1: bg.x1, 2: bg.x2, 3: bg.x3}
    n = bg.n_levels
    proj = InteriorProjector(n, 1)
    checks: list[BlockConstant] = []
    squared_sum = 0.0 + 0.0j
    for i, j in ((1, 2), (1, 3), (2, 3)):
        comm = commutator(mats[i], mats[j])
        for name, sl in (("upper", slice(0, n)), ("lower", slice(n, 2 * n))):
            block = comm[sl, sl]
            interior = proj.apply(block)
            constant = complex(np.trace(interior) / proj.interior_dim)
            residual = float(np.max(np.abs(proj.apply(block - constant * np.eye(n)))))
            checks.append(BlockConstant((i, j), name, constant, residual))
            if name == "upper":
                squared_sum += 2.0 * constant**2
    return BackgroundCommutatorReport(
        checks=tuple(checks),
        squared_sum=squared_sum,
        # np.max, unlike the builtin, keeps a NaN residual
        max_residual=float(np.max([check.residual for check in checks])),
    )
