"""Truncated harmonic-oscillator algebra and noncommutative coordinate operators.

Operators are dense complex numpy arrays over the lowest ``dim`` number
states.  A hard cutoff corrupts the ladder algebra only near the top of the
truncation, so every canonical relation is stated on the *interior*: the
levels that remain after masking the top few with an
:class:`InteriorProjector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Keep theta away from pi/2, where the mode-mixing coefficients blow up
#: (the branes become parallel and the construction degenerates).
DEFAULT_ANGLE_GUARD = 1e-3


def validate_angle(theta: float) -> None:
    """Reject intersection angles outside [0, pi/2 - DEFAULT_ANGLE_GUARD]."""
    if not 0.0 <= theta <= math.pi / 2 - DEFAULT_ANGLE_GUARD:
        raise ValueError(
            f"intersection angle {theta!r} outside [0, pi/2 - {DEFAULT_ANGLE_GUARD:g}]"
        )


def validate_positive(name: str, value: float) -> None:
    """Reject a parameter that is not finite and strictly positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def make_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation/creation pair on a ``dim``-level truncation.

    a[m-1, m] = sqrt(m); the creation operator is the conjugate transpose.
    On the interior (top level masked) they satisfy [a, a^dag] = 1.
    """
    if dim < 2:
        raise ValueError(f"truncation size must be >= 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    return a, a.conj().T


def make_qp(dim: int, z2: float) -> tuple[np.ndarray, np.ndarray]:
    """Noncommutative coordinate pair with [Q, P] = 2*pi*i*z2 on the interior.

    Q = sqrt(pi z2) (a + a^dag), P = -i sqrt(pi z2) (a - a^dag); both exactly
    Hermitian by construction.  z2 is the flux density (length^2).
    """
    validate_positive("flux density z2", z2)
    a, a_dag = make_ladder(dim)
    root = math.sqrt(math.pi * z2)
    q = root * (a + a_dag)
    p = -1j * root * (a - a_dag)
    return q, p


def bogoliubov_coefficients(theta: float) -> tuple[float, float]:
    """Mixing coefficients (c_minus, c_plus) of the angled-mode oscillator.

    c_minus = (1 - cos t)/sqrt(4 cos t) multiplies the creation operator,
    c_plus = (1 + cos t)/sqrt(4 cos t) the annihilation operator.  They lie
    on the unit hyperbola c_plus**2 - c_minus**2 = 1, which is what keeps
    the transformed mode canonical.
    """
    validate_angle(theta)
    cos_t = math.cos(theta)
    denom = math.sqrt(4.0 * cos_t)
    return (1.0 - cos_t) / denom, (1.0 + cos_t) / denom


def bogoliubov(dim: int, theta: float) -> np.ndarray:
    """Bogoliubov-rotated annihilation operator A = c_minus a^dag + c_plus a.

    [A, A^dag] = 1 on the interior (margin 2: A mixes neighbouring levels).
    At theta = 0 this is the plain ladder operator.
    """
    c_minus, c_plus = bogoliubov_coefficients(theta)
    a, a_dag = make_ladder(dim)
    return c_minus * a_dag + c_plus * a


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """XY - YX for square operators of matching dimension."""
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


@dataclass(frozen=True)
class InteriorProjector:
    """Diagonal projector keeping levels 0..dim-1-margin.

    Truncation artifacts live within the top ``margin`` levels; masking them
    makes the canonical relations literally assertable.
    """

    dim: int
    margin: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"projector dimension must be >= 2, got {self.dim}")
        if not 0 <= self.margin < self.dim:
            raise ValueError(
                f"margin must satisfy 0 <= margin < dim, got {self.margin} for dim {self.dim}"
            )

    @property
    def interior_dim(self) -> int:
        return self.dim - self.margin

    def mask(self) -> np.ndarray:
        m = np.ones(self.dim)
        if self.margin:
            m[self.dim - self.margin :] = 0.0
        return m

    def matrix(self) -> np.ndarray:
        return np.diag(self.mask()).astype(complex)

    def apply(self, op: np.ndarray) -> np.ndarray:
        """Interior part P op P (entrywise masking, no basis change)."""
        if op.shape != (self.dim, self.dim):
            raise ValueError(f"operator shape {op.shape} does not match dim {self.dim}")
        m = self.mask()
        return op * np.outer(m, m)


def max_interior_residual(
    op: np.ndarray, reference: complex | np.ndarray, margin: int
) -> float:
    """Max-norm of P (op - reference) P; scalar references mean reference * I."""
    dim = op.shape[0]
    proj = InteriorProjector(dim, margin)
    ref = reference if isinstance(reference, np.ndarray) else reference * np.eye(dim)
    return float(np.max(np.abs(proj.apply(op - ref))))
