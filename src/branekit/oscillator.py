"""Truncated harmonic-oscillator algebra and noncommutative coordinate operators.

Operators are dense complex numpy arrays over the lowest ``dim`` number
states; the mass operators of :mod:`branekit.spectrum` are banded and are
built from the ladder entries alone (:func:`ladder_entries`).  A hard cutoff
corrupts the ladder algebra only near the top of the truncation, so every
canonical relation is stated on the *interior*: the levels that remain after
the top few are masked.
"""

from __future__ import annotations

import math

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


def validate_params(theta: float, z2: float, R: float | None = None) -> None:
    """Reject a bad angle, flux density z2 or, when given, tension scale R."""
    validate_angle(theta)
    validate_positive("flux density z2", z2)
    if R is not None:
        validate_positive("tension scale R", R)


def ladder_entries(dim: int) -> np.ndarray:
    """The nonzero entries sqrt(m), m = 1..dim-1, of the annihilation operator."""
    return np.sqrt(np.arange(1, dim, dtype=float))


def make_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation/creation pair on a ``dim``-level truncation.

    a[m-1, m] = sqrt(m); the creation operator is the conjugate transpose.
    On the interior (top level masked) they satisfy [a, a^dag] = 1.
    """
    if dim < 2:
        raise ValueError(f"truncation size must be >= 2, got {dim}")
    a = np.diag(ladder_entries(dim), 1).astype(complex)
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

