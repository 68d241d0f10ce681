"""Tachyon potential minimization and the recombination geometry.

After the unstable mode rolls to the potential minimum, the off-diagonal
condensate joins the diagonal backgrounds into two 2x2 blocks whose
eigenvalues trace the recombined branes: an asymmetric hyperbola with the
original branes as asymptotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import DEFAULT_ANGLE_GUARD, validate_angle, validate_positive
from .spectrum import mass_scale

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

BRANCH_MINUS = "minus"
BRANCH_PLUS = "plus"


def _validate_params(theta: float, z2: float, R: float | None = None) -> None:
    validate_angle(theta, DEFAULT_ANGLE_GUARD)
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


def numeric_minimum(
    theta: float,
    z2: float,
    R: float,
    tol: float = 1e-8,
    bracket: tuple[float, float] | None = None,
) -> float:
    """Independent one-dimensional minimizer of the tachyon potential.

    Golden-section search on the bracket (default [0, 4*sqrt(2*pi*z2)]),
    then a single Newton step off the exact derivative.  Raises if the
    bracket does not contain an interior minimum.
    """
    validate_positive("tolerance", tol)
    _validate_params(theta, z2, R)
    lo, hi = bracket if bracket is not None else (0.0, 4.0 * math.sqrt(2.0 * math.pi * z2))
    if not lo < hi:
        raise ValueError(f"degenerate bracket [{lo!r}, {hi!r}]")
    scale = mass_scale(theta, z2, R)

    def f(t: float) -> float:
        return _potential(t, scale, R)

    # Linear probes plus a geometric ladder toward the lower end: the dip can
    # sit arbitrarily close to the left endpoint when the angle nears the guard.
    probes = [lo + frac * (hi - lo) for frac in (0.1, 0.25, 0.5, 0.75, 0.9)]
    probes += [lo + (hi - lo) * 2.0**-k for k in range(2, 50)]
    if min(f(p) for p in probes) >= min(f(lo), f(hi)):
        raise ValueError(f"bracket [{lo:g}, {hi:g}] does not contain an interior minimum")

    # bring the bracket down far enough that one Newton step lands within tol
    golden_tol = min((hi - lo) * 1e-7, math.sqrt(tol) * 1e-2)
    coarse = golden_section_minimize(f, lo, hi, tol=golden_tol)
    curvature = -2.0 * scale + 12.0 * R * coarse**2
    return coarse - potential_derivative(coarse, theta, z2, R) / curvature


@dataclass(frozen=True, eq=False)
class CondensedBlocks:
    """Post-condensation 2x2 blocks at brane coordinate x0.

    m1 is real symmetric, m2 Hermitian with purely imaginary off-diagonal;
    both off-diagonal magnitudes square to pi*z2*cos(theta).
    """

    x0: float
    m1: np.ndarray
    m2: np.ndarray


def condensate_amplitude(theta: float, z2: float) -> float:
    """Off-diagonal magnitude sqrt(pi*z2*cos(theta)) of the condensed blocks."""
    _validate_params(theta, z2)
    return math.sqrt(math.pi * z2 * math.cos(theta))


def condensed_blocks(x0: float, theta: float, z2: float) -> CondensedBlocks:
    t = condensate_amplitude(theta, z2)
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    m1 = np.array([[x0 * sin_t, t], [t, x0 * sin_t]], dtype=complex)
    m2 = np.array([[x0 * cos_t, 1j * t], [-1j * t, -x0 * cos_t]], dtype=complex)
    return CondensedBlocks(x0=x0, m1=m1, m2=m2)


@dataclass(frozen=True)
class RecombinedEigenvalues:
    """Closed-form branch eigenvalues of the condensed blocks."""

    x_minus: float
    x_plus: float
    y_minus: float
    y_plus: float

    def branch(self, branch: str) -> tuple[float, float]:
        if branch == BRANCH_MINUS:
            return self.x_minus, self.y_minus
        if branch == BRANCH_PLUS:
            return self.x_plus, self.y_plus
        raise ValueError(f"unknown branch {branch!r}")


def recombined_eigenvalues(x0: float, theta: float, z2: float) -> RecombinedEigenvalues:
    """x_d = x0 sin(theta) -/+ t and y_d = -/+ sqrt(x0^2 cos^2(theta) + t^2).

    The minus branch pairs the lowered x_d with the negative y_d root; only
    this matched pairing turns the hyperbola relation into an identity.
    """
    t = condensate_amplitude(theta, z2)
    base = x0 * math.sin(theta)
    y = math.sqrt(x0**2 * math.cos(theta) ** 2 + t**2)
    return RecombinedEigenvalues(
        x_minus=base - t, x_plus=base + t, y_minus=-y, y_plus=y
    )


def hyperbola_residual(
    x_d: float, y_d: float, theta: float, z2: float, branch: str
) -> float:
    """Gap in the recombination relation for one branch point.

    (x_d + t)^2 = tan^2(theta) (y_d^2 - t^2) on the minus branch, with the
    sign of the shift flipped on the plus branch; both sides reduce to
    x0^2 sin^2(theta) when the branches are paired as constructed, so a
    mismatched pairing shows up as a nonzero residual.
    """
    t = condensate_amplitude(theta, z2)
    if branch == BRANCH_MINUS:
        lhs = (x_d + t) ** 2
    elif branch == BRANCH_PLUS:
        lhs = (x_d - t) ** 2
    else:
        raise ValueError(f"unknown branch {branch!r}")
    rhs = math.tan(theta) ** 2 * (y_d**2 - t**2)
    return abs(lhs - rhs)


def eigensolve_blocks(
    blocks: CondensedBlocks,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numeric route: eigenvalues and eigenvectors of both 2x2 blocks."""
    x_vals, x_vecs = np.linalg.eigh(blocks.m1)
    y_vals, y_vecs = np.linalg.eigh(blocks.m2)
    return x_vals, x_vecs, y_vals, y_vecs


@dataclass(frozen=True)
class CurvePoint:
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


def sample_curve(
    x0_min: float, x0_max: float, n_points: int, theta: float, z2: float
) -> RecombinationCurve:
    """Evaluate both branches over an x0 grid with per-point residuals.

    Branch assignment for the numeric eigensolve route follows eigenvector
    continuity along the grid (overlap with the previous point's vectors),
    not eigenvalue sorting; the closed forms are attached per point and the
    worst gap between the two routes is reported.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 grid points, got {n_points}")
    if not x0_min < x0_max:
        raise ValueError(f"degenerate grid [{x0_min!r}, {x0_max!r}]")
    _validate_params(theta, z2)
    grid = np.linspace(x0_min, x0_max, n_points)

    points: list[CurvePoint] = []
    gaps: list[float] = []
    prev_x_vecs = None
    prev_y_vecs = None
    # Branch order tracks (minus, plus) columns of the eigenvector matrices.
    for x0 in grid:
        closed = recombined_eigenvalues(float(x0), theta, z2)
        x_vals, x_vecs, y_vals, y_vecs = eigensolve_blocks(
            condensed_blocks(float(x0), theta, z2)
        )
        if prev_x_vecs is None:
            x_order = np.argsort(
                [abs(v - closed.x_minus) for v in x_vals]
            )  # seed: match closed forms
            y_order = np.argsort([abs(v - closed.y_minus) for v in y_vals])
            x_cols = (int(x_order[0]), int(1 - x_order[0]))
            y_cols = (int(y_order[0]), int(1 - y_order[0]))
        else:
            overlap_x = np.abs(x_vecs.conj().T @ prev_x_vecs)
            x_first = int(np.argmax(overlap_x[:, 0]))
            x_cols = (x_first, 1 - x_first)
            overlap_y = np.abs(y_vecs.conj().T @ prev_y_vecs)
            y_first = int(np.argmax(overlap_y[:, 0]))
            y_cols = (y_first, 1 - y_first)
        prev_x_vecs = x_vecs[:, list(x_cols)]
        prev_y_vecs = y_vecs[:, list(y_cols)]

        for branch, x_col, y_col in (
            (BRANCH_MINUS, x_cols[0], y_cols[0]),
            (BRANCH_PLUS, x_cols[1], y_cols[1]),
        ):
            x_closed, y_closed = closed.branch(branch)
            gaps.append(abs(float(x_vals[x_col]) - x_closed))
            gaps.append(abs(float(y_vals[y_col]) - y_closed))
            residual = hyperbola_residual(x_closed, y_closed, theta, z2, branch)
            points.append(
                CurvePoint(
                    x0=float(x0), branch=branch, x_d=x_closed, y_d=y_closed, residual=residual
                )
            )

    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    asymptotes = tuple(
        CurvePoint(
            x0=float(x0),
            branch=f"asym-{name}",
            x_d=float(x0) * sin_t,
            y_d=sign * float(x0) * cos_t,
            residual=0.0,
        )
        for x0 in grid
        for name, sign in (("minus", -1.0), ("plus", 1.0))
    )
    return RecombinationCurve(
        theta=theta,
        z2=z2,
        points=tuple(points),
        asymptotes=asymptotes,
        # np.max, unlike the builtin, keeps a NaN residual or gap
        max_residual=float(np.max([p.residual for p in points])),
        max_eigensolve_gap=float(np.max(gaps)),
    )


def asymmetry_gap(curve: RecombinationCurve) -> float:
    """Distance witnessing that the curve is not reflection symmetric.

    For every grid point, reflect (x_d -> -x_d while x0 -> -x0) and measure
    the Chebyshev distance to the same-x0 points of both branches; the
    minimum over the curve is 2*sqrt(pi*z2*cos(theta)) for nonzero flux and
    collapses to zero with it, where the branches degenerate to the
    symmetric asymptote pair.
    """
    theta, z2 = curve.theta, curve.z2
    gap = math.inf
    for point in curve.points:
        mirrored = recombined_eigenvalues(-point.x0, theta, z2)
        reflected = (-mirrored.branch(point.branch)[0], mirrored.branch(point.branch)[1])
        here = recombined_eigenvalues(point.x0, theta, z2)
        for branch in (BRANCH_MINUS, BRANCH_PLUS):
            x_d, y_d = here.branch(branch)
            gap = min(gap, max(abs(reflected[0] - x_d), abs(reflected[1] - y_d)))
    return gap
