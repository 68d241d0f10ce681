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

import numpy as np

from .oscillator import validate_params
from .spectrum import mass_scale

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BRANCHES = ("minus", "plus")
ASYMPTOTES = ("asym-minus", "asym-plus")


def _scaled_potential(s: float, cos_t: float) -> float:
    """-2 cos(theta) s^2 + s^4: the potential in units of R (2*pi*z2)^2 at t = s sqrt(2*pi*z2)."""
    return -2.0 * cos_t * s**2 + s**4


def potential_derivative(t: float, theta: float, z2: float, R: float) -> float:
    """Exact first derivative -8*pi*z2*R*cos(theta) t + 4 (R t^3), where 4 R alone can overflow."""
    return -2.0 * mass_scale(theta, z2, R) * t + 4.0 * (R * t**3)


def analytic_minimum(theta: float, z2: float, R: float) -> tuple[float, float]:
    """Closed-form minimizer sqrt(2*pi*z2*cos(theta)) and the value there."""
    validate_params(theta, z2, R)
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


def numeric_minimum(theta: float, z2: float, R: float) -> float:
    """Independent one-dimensional minimizer of the tachyon potential.

    In the units t = s sqrt(2*pi*z2) the potential is R (2*pi*z2)^2 times
    -2 cos(theta) s^2 + s^4, so the search never sees how small or large z2
    is: golden section on [0, 4], which holds every minimum
    sqrt(cos(theta)) <= 1, then one Newton step off the exact derivative,
    then back to t.  The bracket is narrowed to 1e-8, about where the
    polynomial's float values stop telling points apart near its minimum,
    so the Newton step lands within rounding of it.
    """
    validate_params(theta, z2, R)
    cos_t = math.cos(theta)
    coarse = golden_section_minimize(lambda s: _scaled_potential(s, cos_t), 0.0, 4.0, tol=1e-8)
    slope = -4.0 * cos_t * coarse + 4.0 * coarse**3
    curvature = -4.0 * cos_t + 12.0 * coarse**2
    return (coarse - slope / curvature) * math.sqrt(2.0 * math.pi * z2)


def condensed_blocks(
    x0: float | np.ndarray, theta: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Post-condensation 2x2 blocks (m1, m2) at x0, stacked as x0.shape + (2, 2).

    m1 is real symmetric, m2 Hermitian with purely imaginary off-diagonal,
    both off-diagonal magnitudes the condensate t; nothing is validated.
    """
    x_diag = np.multiply(x0, math.sin(theta))
    y_diag = np.multiply(x0, math.cos(theta))
    m1 = np.empty(x_diag.shape + (2, 2), dtype=complex)
    m2 = np.empty_like(m1)
    m1[..., 0, 0] = m1[..., 1, 1] = x_diag
    m1[..., 0, 1] = m1[..., 1, 0] = t
    m2[..., 0, 0], m2[..., 1, 1] = y_diag, -y_diag
    m2[..., 0, 1], m2[..., 1, 0] = 1j * t, -1j * t
    return m1, m2


def recombined_eigenvalues(
    x0: float | np.ndarray, theta: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """x_d = x0 sin(theta) -/+ t and y_d = -/+ sqrt(x0^2 cos^2(theta) + t^2).

    Returns (x_d, y_d), each shaped x0.shape + (2,) with the branches on the
    last axis in BRANCHES order.  The minus branch pairs the lowered x_d with
    the negative y_d root; only this matched pairing turns the hyperbola
    relation into an identity.  Squares use ``np.float_power`` (libm ``pow``,
    as the scalar ``x**2``): numpy's ``x**2`` is ``x*x``, which can differ in
    the last bit.  t is the condensate; nothing is validated.
    """
    base = np.multiply(x0, math.sin(theta))
    y = np.sqrt(np.float_power(x0, 2.0) * math.cos(theta) ** 2 + t**2)
    return np.add.outer(base, (-t, t)), np.multiply.outer(y, (-1.0, 1.0))


def hyperbola_residual(x_d: np.ndarray, y_d: np.ndarray, theta: float, t: float) -> np.ndarray:
    """Gap in the recombination relation, elementwise, branches on the last axis.

    (x_d + t)^2 = tan^2(theta) (y_d^2 - t^2) on the minus branch, with the
    sign of the shift flipped on the plus branch: the shift (t, -t) applies
    along the last axis, in BRANCHES order.  Both sides reduce to
    x0^2 sin^2(theta) when the branches are paired as constructed, so a
    mismatched pairing shows up as a nonzero residual.  Nothing is validated.
    """
    lhs = np.float_power(np.add(x_d, (t, -t)), 2.0)
    rhs = math.tan(theta) ** 2 * (np.float_power(y_d, 2.0) - t**2)
    return np.abs(lhs - rhs)


@dataclass(frozen=True, eq=False)
class RecombinationCurve:
    """Sampled recombined branches plus the pre-condensation asymptotes.

    ``grid`` holds the x0 values; ``x_d``, ``y_d`` and ``residual`` are
    shaped (len(grid), 2), the branches on the last axis in BRANCHES order,
    and ``asym_x``, ``asym_y`` likewise in ASYMPTOTES order.
    """

    grid: np.ndarray
    x_d: np.ndarray
    y_d: np.ndarray
    residual: np.ndarray
    asym_x: np.ndarray
    asym_y: np.ndarray
    max_residual: float
    max_eigensolve_gap: float

    @property
    def points(self) -> np.ndarray:
        """The branch points (x_d, y_d), one row per grid value and branch (bench counts them)."""
        return np.stack((self.x_d.ravel(), self.y_d.ravel()), axis=-1)


def sample_curve(
    x0_min: float, x0_max: float, n_points: int, theta: float, z2: float
) -> RecombinationCurve:
    """Evaluate both branches over an x0 grid with per-point residuals.

    The closed forms are evaluated over the whole grid at once.  The numeric
    route is one stacked 2x2 eigensolve per block kind, and its ascending
    eigenvalues are read as the (minus, plus) branches: the closed-form
    branches never cross, since x_+ - x_- = 2t and y_+ - y_- >= 2t with
    t > 0, the condensate sqrt(pi*z2*cos(theta)), formed once after the one
    check of theta and z2.  The worst gap between the two routes is reported.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    if not (math.isfinite(x0_min) and math.isfinite(x0_max)):
        raise ValueError(f"grid bounds must be finite, got [{x0_min!r}, {x0_max!r}]")
    if not x0_min < x0_max:
        raise ValueError(f"degenerate grid [{x0_min!r}, {x0_max!r}]")
    validate_params(theta, z2)
    t = math.sqrt(math.pi * z2 * math.cos(theta))
    grid = np.linspace(x0_min, x0_max, n_points)
    x_d, y_d = recombined_eigenvalues(grid, theta, t)
    residual = hyperbola_residual(x_d, y_d, theta, t)
    x_vals, y_vals = map(np.linalg.eigvalsh, condensed_blocks(grid, theta, t))
    return RecombinationCurve(
        grid=grid,
        x_d=x_d,
        y_d=y_d,
        residual=residual,
        asym_x=np.repeat(grid * math.sin(theta), 2).reshape(-1, 2),
        asym_y=np.multiply.outer(grid, (-1.0, 1.0)) * math.cos(theta),
        # np.max, unlike the builtin, keeps a NaN residual or gap
        max_residual=float(np.max(residual)),
        max_eigensolve_gap=float(np.max(np.abs([x_vals - x_d, y_vals - y_d]))),
    )


def asymmetry_gap(curve: RecombinationCurve) -> float:
    """Distance witnessing that the curve is not reflection symmetric.

    Reflecting a branch point (x_d -> -x_d while x0 -> -x0) lands exactly on
    the other branch at the same x0, as x_d is odd and y_d even in x0, in
    floats too; its Chebyshev distance to the curve is the smaller branch
    separation, x_+ - x_- = 2t or y_+ - y_- >= 2t.  The minimum over the curve
    is 2*sqrt(pi*z2*cos(theta)) for nonzero flux and collapses to zero with
    it, where the branches degenerate to the symmetric asymptote pair.
    """
    # np.min, unlike the builtin, keeps a NaN gap
    return float(np.min(np.abs(np.diff([curve.x_d, curve.y_d]))))
