"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import math

import numpy as np
import pytest

from branekit import (
    analytic_minimum,
    asymmetry_gap,
    build_background,
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    check_cross_terms,
    check_expansion,
    condensate_amplitude,
    make_qp,
    match_tower,
    momentum_polynomial_fluctuation,
    numeric_minimum,
    numeric_spectrum,
    potential_derivative,
    random_fluctuation,
    random_hermitian,
    route_equivalence_residual,
    sample_curve,
)
from branekit.cli import main
from branekit.config import DEFAULT_TOLERANCES

Z2 = 1.0
R = 1.0
N = 24
MARGIN = 4
TRUST = DEFAULT_TOLERANCES["trust_mass"]


def report(label, ok, detail=""):
    print(f"{label}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{label} failed: {detail}"


def trusted_modes(theta, n_levels=N, margin=MARGIN):
    return [
        m
        for m in numeric_spectrum(build_mass_operator_levels(theta, Z2, R, n_levels), margin, TRUST)
        if m.trusted
    ]


def test_criterion_01_tachyon_line():
    worst = 0.0
    for theta in (0.0, math.pi / 6, math.pi / 3):
        modes = trusted_modes(theta)
        negatives = [m for m in modes if m.value < -1e-6]
        assert len(negatives) == 1, f"tachyon not unique at theta={theta}"
        target = -4.0 * math.pi * Z2 * R * math.cos(theta)
        worst = max(worst, abs(negatives[0].value - target))
    report(
        "criterion 1 (tachyon line, theta in {0, pi/6, pi/3})",
        worst <= 1e-6,
        f"worst abs gap {worst:.2e} vs 1e-6",
    )


def test_criterion_02_mass_tower():
    modes = numeric_spectrum(build_mass_operator_levels(math.pi / 3, Z2, R, N), MARGIN, TRUST)
    match = match_tower(modes, tol_units=1e-6)
    ok = match.horizon >= 8 and not match.unmatched
    # multiplicities counted, not just bounded, within the horizon
    trusted_units = [m.units for m in modes if m.trusted]
    counts_ok = True
    zero_count = sum(1 for u in trusted_units if abs(u) <= 1e-6)
    counts_ok &= zero_count == match.horizon
    for n in range(2, match.horizon + 1):
        hits = sum(1 for u in trusted_units if abs(u - (2 * n - 1)) <= 1e-6)
        counts_ok &= hits == 2
    report(
        "criterion 2 (mass tower multiset to the trust horizon)",
        ok and counts_ok,
        f"horizon {match.horizon} (need >= 8), zero multiplicity {zero_count}",
    )


def test_criterion_03_route_equivalence():
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2 - 0.2, 10):
        params = (float(theta), Z2, R, N)
        residual = route_equivalence_residual(
            build_mass_operator_qp(*params), build_mass_operator_fock(*params), MARGIN
        )
        worst = max(worst, residual)
    report(
        "criterion 3 (route equivalence, 10 angles)",
        worst <= 1e-10,
        f"worst relative residual {worst:.2e} vs 1e-10",
    )


def test_criterion_04_cos_theta_factorization():
    base = sorted(m.units for m in trusted_modes(0.0))
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 3):
        scaled = sorted(m.units for m in trusted_modes(theta))
        assert len(scaled) == len(base), "trusted multiplicity changed with the angle"
        for u_theta, u_zero in zip(scaled, base):
            # raw eigenvalues obey value(theta) = cos(theta) * value(0);
            # in scale units both reduce to the same dimensionless ladder
            denom = max(abs(u_zero), 1.0)
            worst = max(worst, abs(u_theta - u_zero) / denom)
    report(
        "criterion 4 (cos-theta factorization of the trusted spectrum)",
        worst <= 1e-8,
        f"worst relative entrywise gap {worst:.2e} vs 1e-8",
    )


def test_criterion_05_algebraic_identities():
    worst_expansion = 0.0
    worst_linear = 0.0
    for trial in range(100):
        seed = 5000 + trial
        rng = np.random.default_rng(seed)
        dim = 2 + trial % 7
        xs = random_hermitian(rng, 2 * dim)
        (expansion,) = check_expansion(xs[None], random_fluctuation(rng, dim)[None], [seed])
        rel = expansion.residual / max(1.0, abs(expansion.lhs), abs(expansion.rhs))
        worst_expansion = max(worst_expansion, rel)

        bg_dim = 4 + trial % 5
        theta = float(rng.uniform(0.0, math.pi / 2 - 0.2))
        q, p = make_qp(bg_dim, Z2)
        generic = random_fluctuation(rng, bg_dim)[None]
        momentum = momentum_polynomial_fluctuation(p, [rng])
        xs = build_background([theta], q, p)
        linear, _, momentum_linear, _ = check_cross_terms(xs, generic, momentum)
        worst_linear = max(worst_linear, linear.residual, momentum_linear.residual)
    report(
        "criterion 5 (expansion and linear cross term, 100 seeded instances)",
        worst_expansion <= 1e-10 and worst_linear <= 1e-13,
        f"expansion {worst_expansion:.2e} vs 1e-10, cross term {worst_linear:.2e} vs 1e-13",
    )


def test_criterion_06_potential_minimum():
    worst_gap = 0.0
    worst_stationarity = 0.0
    pairs = [(t, z) for t in (0.0, 0.3, 0.6, 0.9, 1.2) for z in (0.5, 2.0)]
    assert len(pairs) == 10
    for theta, z2 in pairs:
        tmin, _ = analytic_minimum(theta, z2, R)
        worst_gap = max(worst_gap, abs(numeric_minimum(theta, z2, R) - tmin))
        scale = 8.0 * math.pi * z2 * R * math.cos(theta) * tmin
        worst_stationarity = max(
            worst_stationarity, abs(potential_derivative(tmin, theta, z2, R)) / scale
        )
    report(
        "criterion 6 (minimizer reproduces the closed form, 10 parameter pairs)",
        worst_gap <= 1e-8 and worst_stationarity <= 1e-12,
        f"minimizer gap {worst_gap:.2e} vs 1e-8, stationarity {worst_stationarity:.2e} vs 1e-12",
    )


def test_criterion_07_recombination_eigenvalues():
    curve = sample_curve(-3.0, 3.0, 101, math.pi / 3, Z2)
    report(
        "criterion 7 (2x2 eigensolve matches closed forms on the grid)",
        curve.max_eigensolve_gap <= 1e-12,
        f"max gap {curve.max_eigensolve_gap:.2e} vs 1e-12",
    )


def test_criterion_08_hyperbola_identity():
    curve = sample_curve(-3.0, 3.0, 101, math.pi / 3, Z2)
    sin2 = math.sin(math.pi / 3) ** 2
    t = condensate_amplitude(math.pi / 3, Z2)
    side_gap = 0.0
    for x0, (x_minus, x_plus) in zip(curve.grid.tolist(), curve.x_d.tolist()):
        for lhs in ((x_minus + t) ** 2, (x_plus - t) ** 2):
            side_gap = max(side_gap, abs(lhs - x0**2 * sin2))
    report(
        "criterion 8 (hyperbola identity at every grid point)",
        curve.max_residual <= 1e-10 and side_gap <= 1e-10,
        f"max residual {curve.max_residual:.2e} vs 1e-10, both sides equal x0^2 sin^2",
    )


def test_criterion_09_asymmetry_witness():
    curve = sample_curve(-3.0, 3.0, 101, math.pi / 3, Z2)
    gap = asymmetry_gap(curve)
    degenerate = asymmetry_gap(sample_curve(-3.0, 3.0, 101, math.pi / 3, 1e-12))
    report(
        "criterion 9 (asymmetric curve, symmetric flux-free limit)",
        gap > 0.1 and degenerate <= 1e-5,
        f"gap {gap:.4f} > 0.1, z2->0 gap {degenerate:.2e}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for name in ("first", "second"):
        spectrum_path = tmp_path / f"spectrum-{name}.json"
        identity_path = tmp_path / f"identities-{name}.csv"
        assert (
            main(
                [
                    "spectrum",
                    "--N",
                    "16",
                    "--format",
                    "structured",
                    "--out",
                    str(spectrum_path),
                ]
            )
            == 0
        )
        assert main(["identities", "--seed", "42", "--out", str(identity_path)]) == 0
        capsys.readouterr()
        outputs.append((spectrum_path.read_bytes(), identity_path.read_bytes()))
    report(
        "criterion 10 (byte-identical reports for identical config)",
        outputs[0] == outputs[1],
    )
