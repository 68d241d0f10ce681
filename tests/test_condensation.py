import math

import numpy as np
import pytest

from branekit import (
    analytic_minimum,
    asymmetry_gap,
    condensed_blocks,
    hyperbola_residual,
    mass_scale,
    numeric_minimum,
    potential_derivative,
    recombined_eigenvalues,
    sample_curve,
)
from branekit.condensation import ASYMPTOTES, BRANCHES
from helpers import condensate, potential_value

PI_THIRD = math.pi / 3


def test_potential_at_origin_is_local_maximum():
    assert potential_value(0.0, PI_THIRD, 1.0, 1.0) == 0.0
    eps = 1e-3
    assert potential_value(eps, PI_THIRD, 1.0, 1.0) < 0.0


def test_potential_value_at_root_pi():
    # -2*pi*pi + pi^2 = -pi^2
    value = potential_value(math.sqrt(math.pi), PI_THIRD, 1.0, 1.0)
    assert value == pytest.approx(-math.pi**2, rel=1e-13)


def test_potential_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        potential_value(-0.1, PI_THIRD, 1.0, 1.0)


def test_tiny_flux_is_nearly_pure_quartic():
    t = 1.3
    assert potential_value(t, 0.4, 1e-12, 2.0) == pytest.approx(2.0 * t**4, rel=1e-9)


def test_analytic_minimum_values():
    tmin, vmin = analytic_minimum(PI_THIRD, 1.0, 1.0)
    assert tmin == pytest.approx(math.sqrt(math.pi), abs=1e-14)
    assert vmin == pytest.approx(-math.pi**2, abs=1e-12)
    tmin0, _ = analytic_minimum(0.0, 1.0, 1.0)
    assert tmin0 == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 0.9, 1.2])
@pytest.mark.parametrize("z2", [1e-250, 1e-162, 0.5, 2.0])
def test_numeric_minimum_reproduces_closed_form(theta, z2):
    # the condense gate's bound: relative once the minimum is below 1, where
    # the potential is far below the float range of the raw units
    tmin, _ = analytic_minimum(theta, z2, 1.0)
    assert abs(numeric_minimum(theta, z2, 1.0) - tmin) <= 1e-8 * min(1.0, tmin)


def test_minimizer_independent_of_overall_tension():
    a = numeric_minimum(PI_THIRD, 1.0, 1.0)
    b = numeric_minimum(PI_THIRD, 1.0, 10.0)
    assert a == pytest.approx(b, abs=1e-10)


def test_stationarity_at_analytic_minimum():
    tmin, _ = analytic_minimum(PI_THIRD, 1.0, 1.0)
    scale = 8.0 * math.pi * math.cos(PI_THIRD) * tmin
    assert abs(potential_derivative(tmin, PI_THIRD, 1.0, 1.0)) <= 1e-12 * scale
    assert mass_scale(PI_THIRD, 1.0, 1.0) == pytest.approx(2.0 * math.pi, abs=1e-13)


def test_condensed_blocks_structure():
    m1, m2 = condensed_blocks(0.0, PI_THIRD, condensate(PI_THIRD, 1.0))
    t = math.sqrt(math.pi / 2.0)
    assert m1[0, 1] == pytest.approx(t, abs=1e-14)
    np.testing.assert_array_equal(m1.imag, np.zeros((2, 2)))
    np.testing.assert_array_equal(m1, m1.conj().T)
    np.testing.assert_array_equal(m2, m2.conj().T)
    np.testing.assert_array_equal(m2.real, np.diag(m2.real.diagonal()))
    assert m2[0, 1] == pytest.approx(1j * t, abs=1e-14)
    # equal condensate magnitude in both blocks
    assert abs(m1[0, 1]) == pytest.approx(abs(m2[0, 1]), abs=1e-15)


def test_condensate_vanishes_with_flux():
    m1, m2 = condensed_blocks(1.0, PI_THIRD, condensate(PI_THIRD, 1e-14))
    assert abs(m1[0, 1]) <= 1e-6
    assert abs(m2[0, 1]) <= 1e-6


def test_recombined_eigenvalues_frozen_point():
    t = math.sqrt(math.pi / 2.0)
    x_d, y_d = recombined_eigenvalues(1.0, PI_THIRD, t)
    assert x_d[..., 0] == pytest.approx(math.sqrt(3.0) / 2.0 - t, abs=1e-14)
    assert x_d[..., 1] == pytest.approx(math.sqrt(3.0) / 2.0 + t, abs=1e-14)
    y = math.sqrt(0.25 + math.pi / 2.0)
    assert y_d[..., 0] == pytest.approx(-y, abs=1e-14)
    assert y_d[..., 1] == pytest.approx(y, abs=1e-14)
    # the 5-digit values: 0.86603 -/+ 1.25331 and -/+ 1.34937
    assert x_d[..., 0] == pytest.approx(0.86603 - 1.25331, abs=1e-5)
    assert y_d[..., 1] == pytest.approx(1.34937, abs=1e-5)


def test_recombined_branes_separate_at_origin():
    t = condensate(PI_THIRD, 1.0)
    x_d, y_d = recombined_eigenvalues(0.0, PI_THIRD, t)
    assert x_d[..., 0] == pytest.approx(-t) and x_d[..., 1] == pytest.approx(t)
    assert y_d[..., 0] == pytest.approx(-t) and y_d[..., 1] == pytest.approx(t)


def test_tiny_flux_recovers_intersecting_lines():
    x_d, y_d = recombined_eigenvalues(2.0, PI_THIRD, condensate(PI_THIRD, 1e-16))
    assert x_d[..., 0] == pytest.approx(2.0 * math.sin(PI_THIRD), abs=1e-7)
    assert x_d[..., 1] == pytest.approx(2.0 * math.sin(PI_THIRD), abs=1e-7)
    assert y_d[..., 1] == pytest.approx(2.0 * math.cos(PI_THIRD), abs=1e-7)


@pytest.mark.parametrize("x0", [-2.0, -0.5, 0.0, 0.7, 3.0])
def test_eigensolve_agrees_with_closed_forms(x0):
    t = condensate(PI_THIRD, 1.0)
    closed_x, closed_y = recombined_eigenvalues(x0, PI_THIRD, t)
    m1, m2 = condensed_blocks(x0, PI_THIRD, t)
    x_vals = np.linalg.eigh(m1).eigenvalues
    y_vals = np.linalg.eigh(m2).eigenvalues
    np.testing.assert_allclose(sorted(closed_x), x_vals, atol=1e-12)
    np.testing.assert_allclose(sorted(closed_y), y_vals, atol=1e-12)


def test_eigenvalues_only_solve_matches_eigh_bitwise():
    # the curve solves its blocks for eigenvalues alone; eigh, which also
    # forms the eigenvectors, is the oracle, on grids with |x0| in 1e-3-1e4
    rng = np.random.default_rng(20031007)
    for _ in range(300):
        theta, z2 = float(rng.uniform(0.0, 1.5)), 10.0 ** rng.uniform(-8.0, 8.0)
        x0_max = 10.0 ** rng.uniform(-3.0, 4.0)
        x0_min = -x0_max if rng.random() < 0.5 else x0_max - 10.0 ** rng.uniform(-3.0, 4.0)
        curve = sample_curve(x0_min, x0_max, int(rng.integers(2, 202)), theta, z2)
        m1, m2 = condensed_blocks(curve.grid, theta, condensate(theta, z2))
        x_vals, y_vals = (np.linalg.eigh(m).eigenvalues for m in (m1, m2))
        for m, vals in ((m1, x_vals), (m2, y_vals)):
            assert np.array_equal(np.linalg.eigvalsh(m).view(np.int64), vals.view(np.int64))
        gap = np.max(np.abs([x_vals - curve.x_d, y_vals - curve.y_d]))
        assert curve.max_eigensolve_gap == gap


def test_hyperbola_identity_both_sides():
    t = condensate(PI_THIRD, 1.0)
    x_d, y_d = recombined_eigenvalues(1.0, PI_THIRD, t)
    lhs = (x_d[..., 0] + t) ** 2
    assert lhs == pytest.approx(0.75, abs=1e-13)  # x0^2 sin^2 theta
    residual = hyperbola_residual(x_d, y_d, PI_THIRD, t)
    assert residual[..., 0] <= 1e-12
    assert residual[..., 1] <= 1e-12


def test_hyperbola_mismatched_branch_flags():
    t = condensate(PI_THIRD, 1.0)
    x_d, y_d = recombined_eigenvalues(1.0, PI_THIRD, t)
    # swapped x_d columns: the minus branch's x_d under the plus shift
    residual = hyperbola_residual(x_d[..., ::-1], y_d, PI_THIRD, t)
    assert residual[..., 1] > 0.1


def test_sample_curve_residuals_and_routes():
    curve = sample_curve(-3.0, 3.0, 101, PI_THIRD, 1.0)
    assert curve.x_d.size == curve.y_d.size == curve.residual.size == 202
    assert curve.asym_x.size == curve.asym_y.size == 202
    assert curve.max_residual <= 1e-10
    assert curve.max_eigensolve_gap <= 1e-12


def test_sample_curve_guards():
    with pytest.raises(ValueError):
        sample_curve(-3.0, 3.0, 1, PI_THIRD, 1.0)
    with pytest.raises(ValueError):
        sample_curve(3.0, -3.0, 11, PI_THIRD, 1.0)
    # the curve's only angle check: the closed forms and blocks it calls check nothing
    for theta in (-0.1, math.pi / 2):
        with pytest.raises(ValueError, match="intersection angle"):
            sample_curve(-3.0, 3.0, 11, theta, 1.0)


def test_tiny_flux_curve_coincides_with_asymptotes():
    # each branch degenerates onto the nearer asymptote half-line
    curve = sample_curve(-2.0, 2.0, 21, PI_THIRD, 1e-12)
    for x0, x_d, y_d in zip(np.repeat(curve.grid, 2), curve.x_d.ravel(), curve.y_d.ravel()):
        assert abs(x_d - x0 * math.sin(PI_THIRD)) <= 1e-5
        nearest = min(abs(y_d - sign * x0 * math.cos(PI_THIRD)) for sign in (-1.0, 1.0))
        assert nearest <= 1e-5


def test_large_x0_asymptotics():
    # constant x_d offset from the same-parameter asymptote point, slope -> tan(theta)
    t = condensate(PI_THIRD, 1.0)
    big_x, big_y = recombined_eigenvalues(1e3, PI_THIRD, t)
    assert big_x[..., 0] - 1e3 * math.sin(PI_THIRD) == pytest.approx(-t, abs=1e-12)
    assert big_x[..., 1] - 1e3 * math.sin(PI_THIRD) == pytest.approx(t, abs=1e-12)
    step_x, step_y = recombined_eigenvalues(1e3 + 1e-3, PI_THIRD, t)
    slope = (step_x[..., 0] - big_x[..., 0]) / (step_y[..., 0] - big_y[..., 0])
    assert abs(slope) == pytest.approx(math.tan(PI_THIRD), rel=1e-5)


def test_asymmetry_gap_value():
    curve = sample_curve(-3.0, 3.0, 41, PI_THIRD, 1.0)
    gap = asymmetry_gap(curve)
    assert gap == pytest.approx(2.0 * condensate(PI_THIRD, 1.0), rel=1e-10)
    assert gap > 0.1


def test_asymmetry_collapses_without_flux():
    curve = sample_curve(-3.0, 3.0, 41, PI_THIRD, 1e-12)
    assert asymmetry_gap(curve) <= 1e-5


def test_asymmetry_scales_as_root_flux():
    gaps = [
        asymmetry_gap(sample_curve(-1.0, 1.0, 11, PI_THIRD, z2)) for z2 in (1e-2, 1e-4)
    ]
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=1e-6)


def test_sample_curve_keeps_nan_in_maxima(monkeypatch):
    def nan_eigenvalues(x0, *args):
        nan = np.full(np.shape(x0) + (2,), math.nan)
        return nan, nan

    monkeypatch.setattr("branekit.condensation.recombined_eigenvalues", nan_eigenvalues)
    curve = sample_curve(-3.0, 3.0, 11, math.pi / 3, 1.0)
    assert math.isnan(curve.max_residual)
    assert math.isnan(curve.max_eigensolve_gap)


WITH_R = {
    "analytic_minimum": lambda z2, R: analytic_minimum(0.5, z2, R),
    "numeric_minimum": lambda z2, R: numeric_minimum(0.5, z2, R),
    "potential_value": lambda z2, R: potential_value(1.0, 0.5, z2, R),
}
FLUX_ONLY = {
    "sample_curve": lambda z2: sample_curve(-1.0, 1.0, 3, 0.5, z2),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(WITH_R))
def test_non_finite_flux_or_tension_is_rejected(name, value):
    for z2, R in ((value, 1.0), (1.0, value)):
        with pytest.raises(ValueError, match="finite and positive"):
            WITH_R[name](z2, R)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(FLUX_ONLY))
def test_non_finite_flux_is_rejected(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        FLUX_ONLY[name](value)


# --------------------------------------------------- per-point curve oracle


def _scalar_branches(x0, theta, t):
    """Closed-form (x_d, y_d) per branch at one x0, in math-module floats."""
    base = x0 * math.sin(theta)
    y = math.sqrt(x0**2 * math.cos(theta) ** 2 + t**2)
    return {"minus": (base - t, -y), "plus": (base + t, y)}


def _scalar_residual(x_d, y_d, theta, t, branch):
    lhs = (x_d + t) ** 2 if branch == "minus" else (x_d - t) ** 2
    return abs(lhs - math.tan(theta) ** 2 * (y_d**2 - t**2))


def scalar_curve(x0_min, x0_max, n_points, theta, z2):
    """The curve evaluated one grid point at a time.

    Each point gets its own closed forms (Python ``**``), its own two 2x2
    blocks and one ``eigh`` per block; the ascending eigenvalues are taken
    as the (minus, plus) branches.  Returns the rows, both maxima and the
    asymmetry gap, the latter from a double loop over points and branches.
    """
    t = condensate(theta, z2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    points, asymptotes, gaps = [], [], []
    for x0 in np.linspace(x0_min, x0_max, n_points).tolist():
        m1 = np.array([[x0 * sin_t, t], [t, x0 * sin_t]], dtype=complex)
        m2 = np.array([[x0 * cos_t, 1j * t], [-1j * t, -x0 * cos_t]], dtype=complex)
        x_vals = np.linalg.eigh(m1).eigenvalues.tolist()
        y_vals = np.linalg.eigh(m2).eigenvalues.tolist()
        for i, (branch, (x_d, y_d)) in enumerate(_scalar_branches(x0, theta, t).items()):
            gaps += [abs(x_vals[i] - x_d), abs(y_vals[i] - y_d)]
            points.append((x0, branch, x_d, y_d, _scalar_residual(x_d, y_d, theta, t, branch)))
        for name, sign in (("minus", -1.0), ("plus", 1.0)):
            asymptotes.append((x0, f"asym-{name}", x0 * sin_t, sign * x0 * cos_t, 0.0))

    asymmetry = math.inf
    for x0, branch, *_ in points:
        mirrored = _scalar_branches(-x0, theta, t)[branch]
        reflected = (-mirrored[0], mirrored[1])
        for x_d, y_d in _scalar_branches(x0, theta, t).values():
            asymmetry = min(
                asymmetry, max(abs(reflected[0] - x_d), abs(reflected[1] - y_d))
            )
    max_residual = max(point[4] for point in points)
    return points + asymptotes, max_residual, max(gaps), asymmetry


def curve_rows(curve):
    """The curve's arrays as rows (x0, branch, x_d, y_d, residual), branches then asymptotes."""
    x0 = np.repeat(curve.grid, 2).tolist()
    n = curve.grid.size
    columns = (curve.x_d, curve.y_d, curve.residual, curve.asym_x, curve.asym_y)
    x_d, y_d, residual, asym_x, asym_y = (column.ravel().tolist() for column in columns)
    return [
        *zip(x0, BRANCHES * n, x_d, y_d, residual),
        *zip(x0, ASYMPTOTES * n, asym_x, asym_y, [0.0] * len(x0)),
    ]


def _bits(rows):
    """Rows with every float spelled out bit for bit (keeps the sign of zero)."""
    return [
        tuple((type(v), v.hex()) if isinstance(v, float) else v for v in row) for row in rows
    ]


def _oracle_grids():
    rng = np.random.default_rng(20031005)
    grids = [(-3.0, 3.0, 101, PI_THIRD, 1.0), (-3.0, 3.0, 2, PI_THIRD, 1.0)]
    for i in range(50):
        lo = float(rng.uniform(-8.0, 4.0))
        hi = lo + float(rng.uniform(0.01, 10.0))
        theta = (0.05, 1.45, float(rng.uniform(0.0, 1.5)))[i % 3]
        z2 = 1e-12 if i % 4 == 0 else float(rng.uniform(0.25, 4.0))
        grids.append((lo, hi, (2, 3, 11, 101, 1001)[i % 5], theta, z2))
    # the flux at 10^+-300 and |x0| up to 10^6, where a reflected point's
    # rounding is most fragile; the symmetric ranges put x0 = 0 on odd grids
    rng = np.random.default_rng(20031006)
    for i in range(20):
        hi = 10.0 ** rng.uniform(-3.0, 6.0)
        lo = -hi if i % 2 else hi - 10.0 ** rng.uniform(-3.0, 6.0)
        theta = (0.05, 1.45, float(rng.uniform(0.0, 1.5)))[i % 3]
        z2 = 10.0 ** (rng.uniform(290.0, 300.0) * (1 if i % 4 < 2 else -1))
        grids.append((lo, hi, (2, 3, 11, 101, 1001)[i % 5], theta, z2))
    return grids


@pytest.mark.parametrize("grid", _oracle_grids())
def test_sample_curve_matches_per_point_oracle_bitwise(grid):
    rows, max_residual, max_gap, asymmetry = scalar_curve(*grid)
    curve = sample_curve(*grid)
    assert curve.x_d.shape == curve.asym_x.shape == (grid[2], 2)
    assert _bits(curve_rows(curve)) == _bits(rows)
    assert curve.max_residual == max_residual
    assert curve.max_eigensolve_gap == max_gap
    assert asymmetry_gap(curve) == asymmetry
