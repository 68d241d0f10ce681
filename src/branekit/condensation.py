"""Tachyon potential minimization and the recombination geometry.

After the unstable mode rolls to the potential minimum, the off-diagonal
condensate joins the diagonal backgrounds into two 2x2 blocks whose
eigenvalues trace the recombined branes: an asymmetric hyperbola with the
original branes as asymptotes.  The curve is sampled as arrays over the x0
grid; its numeric route is one stacked 2x2 eigensolve per block kind, read
in ascending order as the (minus, plus) branches, whose gaps are >= 2t > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .oscillator import validate_angle, validate_positive
from .spectrum import mass_scale

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BRANCHES = ("minus", "plus")
ASYMPTOTES = ("asym-minus", "asym-plus")


def _validate_params(theta: float, z2: float, R: float | None = None) -> None:
    validate_angle(theta)
    validate_positive("flux density z2", z2)
    if R is not None:
        validate_positive("tension scale R", R)


def _potential(t: float, scale: float, R: float) -> float:
    """-scale t^2 + R t^4, with scale = mass_scale(theta, z2, R)."""
    return -scale * t**2 + R * t**4


def potential_value(t: float, theta: float, z2: float, R: float) -> float:
    """Tachyon potential -4*pi*z2*R*cos(theta) t^2 + R t^4 at amplitude t >= 0."""
    if t < 0.0:
        raise ValueError(f"mode amplitude must be nonnegative, got {t!r}")
    _validate_params(theta, z2, R)
    return _potential(t, mass_scale(theta, z2, R), R)


def potential_derivative(t: float, theta: float, z2: float, R: float) -> float:
    """Exact first derivative -8*pi*z2*R*cos(theta) t + 4 R t^3."""
    return -2.0 * mass_scale(theta, z2, R) * t + 4.0 * R * t**3


@dataclass(frozen=True)
class TachyonPotential:
    """Quadratic/quartic coefficients and the analytic minimum."""

    quad: float
    quart: float
    tmin: float
    vmin: float


def tachyon_potential(theta: float, z2: float, R: float) -> TachyonPotential:
    tmin, vmin = analytic_minimum(theta, z2, R)
    return TachyonPotential(quad=-mass_scale(theta, z2, R), quart=R, tmin=tmin, vmin=vmin)


def analytic_minimum(theta: float, z2: float, R: float) -> tuple[float, float]:
    """Closed-form minimizer sqrt(2*pi*z2*cos(theta)) and the value there."""
    _validate_params(theta, z2, R)
    arg = 2.0 * math.pi * z2 * math.cos(theta)
    return math.sqrt(arg), -R * arg**2


def golden_section_minimize(f, a: float, b: float, tol: float) -> float:
    """Golden-section search on [a, b], reusing one evaluation per step.

    Stops once the bracket is no wider than ``tol``, or once a step no
    longer narrows it: a ``tol`` below the float spacing is never reached.
    """
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def numeric_minimum(theta: float, z2: float, R: float, tol: float = 1e-8) -> float:
    """Independent one-dimensional minimizer of the tachyon potential.

    Golden-section search on [0, 4*sqrt(2*pi*z2)], then a single Newton step
    off the exact derivative.  In exact arithmetic that interval holds the
    minimum sqrt(2*pi*z2*cos(theta)) for every valid input; raises if the
    potential underflows, so that no probe resolves the dip below V(0) = 0.
    """
    validate_positive("tolerance", tol)
    _validate_params(theta, z2, R)
    hi = 4.0 * math.sqrt(2.0 * math.pi * z2)
    scale = mass_scale(theta, z2, R)

    def f(t: float) -> float:
        return _potential(t, scale, R)

    # Linear probes plus a geometric ladder toward 0: the dip can sit
    # arbitrarily close to 0 when the angle nears the guard.
    probes = [frac * hi for frac in (0.1, 0.25, 0.5, 0.75, 0.9)]
    probes += [hi * 2.0**-k for k in range(2, 50)]
    if min(f(p) for p in probes) >= min(f(0.0), f(hi)):
        raise ValueError(f"tachyon potential underflows at z2={z2!r}: its minimum is not resolved")

    # bring the bracket down far enough that one Newton step lands within tol
    golden_tol = min(hi * 1e-7, math.sqrt(tol) * 1e-2)
    coarse = golden_section_minimize(f, 0.0, hi, tol=golden_tol)
    curvature = -2.0 * scale + 12.0 * R * coarse**2
    return coarse - potential_derivative(coarse, theta, z2, R) / curvature


@dataclass(frozen=True, eq=False)
class CondensedBlocks:
    """Post-condensation 2x2 blocks at brane coordinate x0.

    m1 is real symmetric, m2 Hermitian with purely imaginary off-diagonal;
    both off-diagonal magnitudes square to pi*z2*cos(theta).  An array of
    x0 gives blocks stacked along its shape: x0.shape + (2, 2).
    """

    m1: np.ndarray
    m2: np.ndarray


def condensate_amplitude(theta: float, z2: float) -> float:
    """Off-diagonal magnitude sqrt(pi*z2*cos(theta)) of the condensed blocks."""
    _validate_params(theta, z2)
    return math.sqrt(math.pi * z2 * math.cos(theta))


def condensed_blocks(x0: float | np.ndarray, theta: float, z2: float) -> CondensedBlocks:
    t = condensate_amplitude(theta, z2)
    x_diag = np.multiply(x0, math.sin(theta))
    y_diag = np.multiply(x0, math.cos(theta))
    m1 = np.empty(x_diag.shape + (2, 2), dtype=complex)
    m2 = np.empty_like(m1)
    m1[..., 0, 0] = m1[..., 1, 1] = x_diag
    m1[..., 0, 1] = m1[..., 1, 0] = t
    m2[..., 0, 0], m2[..., 1, 1] = y_diag, -y_diag
    m2[..., 0, 1], m2[..., 1, 0] = 1j * t, -1j * t
    return CondensedBlocks(m1=m1, m2=m2)


def recombined_eigenvalues(
    x0: float | np.ndarray, theta: float, z2: float
) -> tuple[np.ndarray, np.ndarray]:
    """x_d = x0 sin(theta) -/+ t and y_d = -/+ sqrt(x0^2 cos^2(theta) + t^2).

    Returns (x_d, y_d), each shaped x0.shape + (2,) with the branches on the
    last axis in BRANCHES order.  The minus branch pairs the lowered x_d with
    the negative y_d root; only this matched pairing turns the hyperbola
    relation into an identity.  Squares use ``np.float_power`` (libm ``pow``,
    as the scalar ``x**2``): numpy's ``x**2`` is ``x*x``, which can differ in
    the last bit.
    """
    t = condensate_amplitude(theta, z2)
    base = np.multiply(x0, math.sin(theta))
    y = np.sqrt(np.float_power(x0, 2.0) * math.cos(theta) ** 2 + t**2)
    return np.add.outer(base, (-t, t)), np.multiply.outer(y, (-1.0, 1.0))


def hyperbola_residual(x_d: np.ndarray, y_d: np.ndarray, theta: float, z2: float) -> np.ndarray:
    """Gap in the recombination relation, elementwise, branches on the last axis.

    (x_d + t)^2 = tan^2(theta) (y_d^2 - t^2) on the minus branch, with the
    sign of the shift flipped on the plus branch: the shift (t, -t) applies
    along the last axis, in BRANCHES order.  Both sides reduce to
    x0^2 sin^2(theta) when the branches are paired as constructed, so a
    mismatched pairing shows up as a nonzero residual.
    """
    t = condensate_amplitude(theta, z2)
    lhs = np.float_power(np.add(x_d, (t, -t)), 2.0)
    rhs = math.tan(theta) ** 2 * (np.float_power(y_d, 2.0) - t**2)
    return np.abs(lhs - rhs)


class CurvePoint(NamedTuple):
    x0: float
    branch: str
    x_d: float
    y_d: float
    residual: float


@dataclass(frozen=True, eq=False)
class RecombinationCurve:
    """Sampled recombined branches plus the pre-condensation asymptotes."""

    theta: float
    z2: float
    points: tuple[CurvePoint, ...]
    asymptotes: tuple[CurvePoint, ...]
    max_residual: float
    max_eigensolve_gap: float


def _curve_points(grid, branches, x_d, y_d, residual) -> tuple[CurvePoint, ...]:
    """One Python-float point per grid value and branch, from (P, 2) columns."""
    columns = (np.repeat(grid, 2), x_d, y_d, residual)
    x0, x_d, y_d, residual = (np.ravel(column).tolist() for column in columns)
    return tuple(map(CurvePoint._make, zip(x0, branches * len(grid), x_d, y_d, residual)))


def sample_curve(
    x0_min: float, x0_max: float, n_points: int, theta: float, z2: float
) -> RecombinationCurve:
    """Evaluate both branches over an x0 grid with per-point residuals.

    The closed forms are evaluated over the whole grid at once.  The numeric
    route is one stacked 2x2 eigensolve per block kind, and its ascending
    eigenvalues are read as the (minus, plus) branches: the closed-form
    branches never cross, since x_+ - x_- = 2t and y_+ - y_- >= 2t with
    t > 0.  The worst gap between the two routes is reported.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    if not (math.isfinite(x0_min) and math.isfinite(x0_max)):
        raise ValueError(f"grid bounds must be finite, got [{x0_min!r}, {x0_max!r}]")
    if not x0_min < x0_max:
        raise ValueError(f"degenerate grid [{x0_min!r}, {x0_max!r}]")
    grid = np.linspace(x0_min, x0_max, n_points)
    x_d, y_d = recombined_eigenvalues(grid, theta, z2)
    residual = hyperbola_residual(x_d, y_d, theta, z2)
    blocks = condensed_blocks(grid, theta, z2)
    x_vals = np.linalg.eigh(blocks.m1).eigenvalues
    y_vals = np.linalg.eigh(blocks.m2).eigenvalues
    asym_x = np.repeat(grid * math.sin(theta), 2)
    asym_y = np.multiply.outer(grid, (-1.0, 1.0)) * math.cos(theta)
    return RecombinationCurve(
        theta=theta,
        z2=z2,
        points=_curve_points(grid, BRANCHES, x_d, y_d, residual),
        asymptotes=_curve_points(grid, ASYMPTOTES, asym_x, asym_y, np.zeros_like(asym_y)),
        # np.max, unlike the builtin, keeps a NaN residual or gap
        max_residual=float(np.max(residual)),
        max_eigensolve_gap=float(np.max(np.abs([x_vals - x_d, y_vals - y_d]))),
    )


def asymmetry_gap(curve: RecombinationCurve) -> float:
    """Distance witnessing that the curve is not reflection symmetric.

    For every grid point, reflect (x_d -> -x_d while x0 -> -x0) and measure
    the Chebyshev distance to the same-x0 points of both branches; the
    minimum over the curve is 2*sqrt(pi*z2*cos(theta)) for nonzero flux and
    collapses to zero with it, where the branches degenerate to the
    symmetric asymptote pair.
    """
    x0, _, x_d, y_d, _ = zip(*curve.points)
    mirrored = recombined_eigenvalues(-np.array(x0[::2]), curve.theta, curve.z2)
    # axes: grid point, reflected branch, compared branch
    mirrored_x, mirrored_y = (column[:, :, None] for column in mirrored)
    here_x, here_y = np.reshape(x_d, (-1, 1, 2)), np.reshape(y_d, (-1, 1, 2))
    distance = np.maximum(np.abs(-mirrored_x - here_x), np.abs(mirrored_y - here_y))
    return float(np.min(distance))
