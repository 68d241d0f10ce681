import math

import numpy as np
import pytest

from branekit import (
    build_background,
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    analytic_spectrum,
    fermion_spectrum,
    make_ladder,
    mass_scale,
    match_tower,
    numeric_spectrum,
    reduced_block,
    rotation_u,
    route_equivalence_residual,
    transverse_interior_gap,
    transverse_spectrum,
)
from branekit.oscillator import InteriorProjector
from branekit.spectrum import (
    SECTOR_MASSIVE,
    SECTOR_TACHYON,
    SECTOR_ZERO,
    TRUST_MASS_THRESHOLD,
    MassOperator,
    NumericMode,
    TowerMatch,
)

PI_THIRD = math.pi / 3


def default_background(n_levels=24, theta=PI_THIRD):
    return build_background(theta, 1.0, 1.0, n_levels)


# ------------------------------------------------------------ field rotation


def test_rotation_is_unitary():
    u = rotation_u()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-15)


def test_rotation_action_on_first_field():
    u = rotation_u()
    rotated = u @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        rotated, [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], atol=1e-15
    )


def test_rotation_leaves_third_field_alone():
    u = rotation_u()
    np.testing.assert_allclose(u @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0], atol=1e-15)


# ----------------------------------------------------------- per-level block


def test_reduced_block_tachyon_level():
    block = reduced_block(0, PI_THIRD, 1.0, 1.0)
    np.testing.assert_allclose(block, [[-2.0 * math.pi]], atol=1e-13)


def test_reduced_block_level_one():
    block = reduced_block(1, PI_THIRD, 1.0, 1.0)
    scale = 2.0 * math.pi
    np.testing.assert_allclose(np.linalg.eigvalsh(block), [0.0, scale], atol=1e-12)


def test_reduced_block_level_two():
    scale = mass_scale(PI_THIRD, 1.0, 1.0)
    block = reduced_block(2, PI_THIRD, 1.0, 1.0) / scale
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(
        block, [[1.0, root2, 0.0], [root2, 2.0, 0.0], [0.0, 0.0, 3.0]], atol=1e-14
    )
    np.testing.assert_allclose(np.linalg.eigvalsh(block), [0.0, 3.0, 3.0], atol=1e-13)


def test_reduced_block_rejects_negative_level():
    with pytest.raises(ValueError):
        reduced_block(-1, PI_THIRD, 1.0, 1.0)


@pytest.mark.parametrize("n", range(2, 13))
def test_reduced_block_eigenvectors(n):
    scale = mass_scale(0.8, 1.3, 0.7)
    block = reduced_block(n, 0.8, 1.3, 0.7)
    v1 = np.array([-math.sqrt(n), math.sqrt(n - 1.0), 0.0])
    v2 = np.array([0.0, 0.0, math.sqrt(n)])
    v3 = np.array([math.sqrt(n * (n - 1.0)), float(n), 0.0])
    lam = (2.0 * n - 1.0) * scale
    assert np.max(np.abs(block @ v1)) <= 1e-12 * scale * n
    np.testing.assert_allclose(block @ v2, lam * v2, atol=1e-12 * scale * n)
    np.testing.assert_allclose(block @ v3, lam * v3, atol=1e-12 * scale * n)


# ------------------------------------------------------------ analytic table


def test_analytic_spectrum_structure():
    records = analytic_spectrum(3, PI_THIRD, 1.0, 1.0)
    tachyon = [r for r in records if r.sector == SECTOR_TACHYON]
    assert len(tachyon) == 1
    assert tachyon[0].n == 0
    assert tachyon[0].eigenvalue_units == -1.0
    assert tachyon[0].eigenvalue_raw == pytest.approx(-2.0 * math.pi, abs=1e-13)
    level3 = sorted(r.eigenvalue_units for r in records if r.n == 3)
    assert level3 == [0.0, 5.0, 5.0]


def test_analytic_eigenvector_is_null_vector():
    records = analytic_spectrum(5, PI_THIRD, 1.0, 1.0)
    zero_mode = next(r for r in records if r.n == 5 and r.sector == SECTOR_ZERO)
    block = reduced_block(5, PI_THIRD, 1.0, 1.0)
    residual = np.max(np.abs(block @ np.array(zero_mode.coefficients)))
    assert residual <= 1e-12 * mass_scale(PI_THIRD, 1.0, 1.0) * 5


def test_analytic_spectrum_rejects_negative_horizon():
    with pytest.raises(ValueError):
        analytic_spectrum(-1, PI_THIRD, 1.0, 1.0)


# ------------------------------------------------------------ mass operators


def test_qp_operator_exactly_hermitian():
    op = build_mass_operator_qp(default_background(12))
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-12 * op.scale


def test_qp_operator_zero_angle_blocks():
    bg = build_background(0.0, 1.0, 1.0, 8)
    op = build_mass_operator_qp(bg)
    n = 8
    p2 = 2.0 * bg.p_rel @ bg.p_rel
    q2 = 2.0 * bg.q_rel @ bg.q_rel
    np.testing.assert_allclose(op.matrix[:n, :n], p2, atol=1e-12)
    np.testing.assert_allclose(op.matrix[n : 2 * n, n : 2 * n], q2, atol=1e-12)
    np.testing.assert_allclose(op.matrix[2 * n :, 2 * n :], p2 + q2, atol=1e-12)


def test_qp_operator_tachyon_at_n16():
    op = build_mass_operator_qp(build_background(PI_THIRD, 1.0, 1.0, 16))
    modes = numeric_spectrum(op, 4)
    lowest = min(m.value for m in modes if m.trusted)
    assert lowest == pytest.approx(-2.0 * math.pi, abs=1e-6)


def test_fock_operator_zero_angle_block_and_scale():
    bg = build_background(0.0, 1.0, 1.0, 10)
    op = build_mass_operator_fock(bg)
    a, a_dag = make_ladder(10)
    expected = 4.0 * math.pi * (a_dag @ a - np.eye(10))
    np.testing.assert_allclose(op.matrix[:10, :10], expected, atol=1e-12)
    assert op.scale == pytest.approx(4.0 * math.pi, abs=1e-13)


def test_fock_scale_at_pi_third():
    op = build_mass_operator_fock(default_background(8))
    assert op.scale == pytest.approx(2.0 * math.pi, abs=1e-13)


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2 - 0.2, 10))
def test_route_equivalence(theta):
    bg = build_background(float(theta), 1.0, 1.0, 20)
    residual = route_equivalence_residual(
        build_mass_operator_qp(bg), build_mass_operator_fock(bg), margin=4
    )
    assert residual <= 1e-10


def test_route_equivalence_rejects_mixed_truncations():
    bg1 = default_background(8)
    bg2 = default_background(10)
    with pytest.raises(ValueError):
        route_equivalence_residual(
            build_mass_operator_qp(bg1), build_mass_operator_fock(bg2), margin=2
        )


# ----------------------------------------------------------- numeric spectrum


def test_levels_route_reaches_deep_horizon():
    op = build_mass_operator_levels(default_background(24))
    match = match_tower(numeric_spectrum(op, 4))
    assert match.horizon >= 8
    assert match.all_matched


def test_levels_route_degenerate_zero_count():
    # zero modes across levels are exactly degenerate; the cluster-aware
    # trust count must equal the horizon, not collapse to one survivor
    op = build_mass_operator_levels(default_background(24))
    modes = numeric_spectrum(op, 4)
    match = match_tower(modes)
    zeros = [m for m in modes if m.trusted and abs(m.units) <= 1e-6]
    assert len(zeros) == match.horizon


def test_levels_route_collision_cluster():
    # at N=24 the leftover second-component mode of the cut family n=25 sits
    # at 25 units, exactly degenerate with the genuine n=13 pair; the pair
    # must still be counted twice
    op = build_mass_operator_levels(default_background(24))
    modes = numeric_spectrum(op, 4)
    at_25 = [m for m in modes if abs(m.units - 25.0) <= 1e-6]
    assert len(at_25) == 3
    assert sum(1 for m in at_25 if m.trusted) == 2


def test_fock_route_trusted_tachyon():
    for theta in (0.0, math.pi / 6, PI_THIRD):
        op = build_mass_operator_fock(build_background(theta, 1.0, 1.0, 24))
        modes = numeric_spectrum(op, 4)
        negatives = [m for m in modes if m.trusted and m.units < -1e-6]
        assert len(negatives) == 1
        assert negatives[0].units == pytest.approx(-1.0, abs=1e-6)


def test_fock_route_trusted_subset_of_tower():
    op = build_mass_operator_fock(default_background(24))
    match = match_tower(numeric_spectrum(op, 4))
    assert match.all_matched
    assert match.horizon >= 1


def test_fock_route_exactly_degenerate_zeros():
    # at pi/6 the zero modes of different levels are degenerate to rounding,
    # so the solver hands back heavily mixed vectors; the subspace count
    # must still recover the interior zero modes
    op = build_mass_operator_fock(build_background(math.pi / 6, 1.0, 1.0, 24))
    modes = numeric_spectrum(op, 4)
    match = match_tower(modes)
    zeros = [m for m in modes if m.trusted and abs(m.units) <= 1e-6]
    assert match.all_matched
    assert match.horizon >= 8
    assert len(zeros) >= match.horizon


@pytest.mark.parametrize("theta,z2,R", [(0.0, 1.0, 1.0), (PI_THIRD, 0.5, 2.0)])
def test_tachyon_sector_only_at_level_zero(theta, z2, R):
    records = analytic_spectrum(10, theta, z2, R)
    tachyons = [r for r in records if r.sector == SECTOR_TACHYON]
    assert [(r.n, r.eigenvalue_units) for r in tachyons] == [(0, -1.0)]
    assert all(r.eigenvalue_units >= 0.0 for r in records if r.sector != SECTOR_TACHYON)


def test_numeric_spectrum_rejects_non_hermitian():
    op = build_mass_operator_levels(default_background(8))
    broken = MassOperator(
        basis=op.basis,
        matrix=op.matrix + 1e-3 * np.triu(np.ones_like(op.matrix), 1),
        scale=op.scale,
        n_levels=op.n_levels,
    )
    with pytest.raises(ValueError):
        numeric_spectrum(broken, 2)


@pytest.mark.parametrize("margin", [0, 8])
def test_numeric_spectrum_rejects_bad_margin(margin):
    op = build_mass_operator_levels(default_background(8))
    with pytest.raises(ValueError):
        numeric_spectrum(op, margin)


def test_match_tower_without_tachyon():
    op = build_mass_operator_levels(default_background(12))
    modes = [m for m in numeric_spectrum(op, 3) if m.units > -0.5]
    assert match_tower(modes).horizon == -1


# --------------------------------------------------- transverse and fermions


def test_transverse_values():
    assert transverse_spectrum(0, 0.0)[0].eigenvalue_raw == pytest.approx(1.0)
    record = transverse_spectrum(2, PI_THIRD)[2]
    assert record.eigenvalue_raw == pytest.approx(2.5)
    assert record.eigenvalue_units == pytest.approx(5.0)
    assert record.multiplicity == 6


def test_transverse_matches_interior_eigensolve():
    n = 16
    theta = PI_THIRD
    a, a_dag = make_ladder(n)
    op = math.cos(theta) * (2.0 * a_dag @ a + np.eye(n))
    values = np.linalg.eigvalsh(op)
    expected = np.array([(2.0 * m + 1.0) * math.cos(theta) for m in range(n)])
    assert np.max(np.abs(values[: n - 2] - expected[: n - 2])) <= 1e-10


def dense_transverse_interior_gap(n_levels, margin, theta):
    """The gap from a dense eigensolve of cos(theta)(2 a^dag a + 1)."""
    a, a_dag = make_ladder(n_levels)
    op = math.cos(theta) * (2.0 * a_dag @ a + np.eye(n_levels, dtype=complex))
    values = np.linalg.eigvalsh(op)
    return max(
        abs(float(values[m]) - (2.0 * m + 1.0) * math.cos(theta))
        for m in range(n_levels - margin)
    )


@pytest.mark.parametrize("n_levels", [8, 24, 200])
@pytest.mark.parametrize("theta", [0.0, 0.3, PI_THIRD, 1.4])
def test_transverse_gap_matches_dense_eigensolve(n_levels, theta):
    assert transverse_interior_gap(n_levels, 4, theta) == dense_transverse_interior_gap(
        n_levels, 4, theta
    )


def test_fermion_table():
    records = fermion_spectrum(0, 0.0)
    zero_modes = [r for r in records if r.eigenvalue_raw == 0.0]
    assert len(zero_modes) == 1 and zero_modes[0].multiplicity == 4
    at_one = sorted(r.eigenvalue_raw for r in fermion_spectrum(1, PI_THIRD) if r.n == 1)
    np.testing.assert_allclose(at_one, [1.0, 2.0], atol=1e-14)
    assert all(r.multiplicity == 4 for r in records)


# ------------------------------------------------------- dense-path oracles


def dense_route_equivalence_residual(op_qp, op_fock, margin):
    """Route check on the whole 3N x 3N operators, with kron projectors."""
    n = op_qp.n_levels
    proj = InteriorProjector(n, margin).matrix()
    u_proj = np.kron(rotation_u(), proj)
    full_proj = np.kron(np.eye(3, dtype=complex), proj)
    lhs = u_proj @ op_qp.matrix @ u_proj.conj().T
    rhs = full_proj @ op_fock.matrix @ full_proj
    return float(np.max(np.abs(lhs - rhs)) / op_fock.scale)


def dense_numeric_spectrum(op, margin, mass_threshold=TRUST_MASS_THRESHOLD):
    """Whole-matrix eigh with the per-cluster Gram trust rule."""
    n = op.n_levels
    eigenvalues, eigenvectors = np.linalg.eigh(op.matrix)
    top = np.zeros(3 * n)
    for block in range(3):
        top[block * n + n - margin : (block + 1) * n] = 1.0
    masses = (np.abs(eigenvectors) ** 2 * top[:, None]).sum(axis=0)

    trusted = np.zeros(eigenvalues.size, dtype=bool)
    cluster_tol = 1e-10 * max(op.scale, 1.0)
    start = 0
    while start < eigenvalues.size:
        stop = start + 1
        while stop < eigenvalues.size and eigenvalues[stop] - eigenvalues[stop - 1] <= cluster_tol:
            stop += 1
        idx = np.arange(start, stop)
        if idx.size == 1:
            trusted[idx] = masses[idx] <= mass_threshold
        else:
            vecs = eigenvectors[:, idx]
            gram = vecs.conj().T @ (top[:, None] * vecs)
            interior_directions = int(np.sum(np.linalg.eigvalsh(gram) <= mass_threshold))
            order = idx[np.argsort(masses[idx], kind="stable")]
            trusted[order[:interior_directions]] = True
        start = stop
    return [
        NumericMode(
            value=float(eigenvalues[i]),
            units=float(eigenvalues[i] / op.scale),
            trusted=bool(trusted[i]),
            top_mass=float(masses[i]),
        )
        for i in range(eigenvalues.size)
    ]


def brute_force_match_tower(modes, tol_units=1e-6):
    """Horizon by rescanning every trusted mode for every tower value."""
    trusted_units = sorted(m.units for m in modes if m.trusted)

    def count_near(value):
        return sum(1 for u in trusted_units if abs(u - value) <= tol_units)

    def is_tower_value(u):
        if abs(u + 1.0) <= tol_units or abs(u) <= tol_units:
            return True
        if u < 0:
            return False
        odd = round((u + 1.0) / 2.0)
        return odd >= 1 and abs(u - (2.0 * odd - 1.0)) <= tol_units

    unmatched = tuple(u for u in trusted_units if not is_tower_value(u))
    horizon = 0 if count_near(-1.0) >= 1 else -1
    while horizon >= 0:
        h = horizon + 1
        needed = {0.0: h, 1.0: 1}
        for n in range(2, h + 1):
            needed[2.0 * n - 1.0] = 2
        if any(count_near(v) < c for v, c in needed.items()):
            break
        horizon = h
    return TowerMatch(horizon=horizon, unmatched=unmatched, trusted_count=len(trusted_units))


def assert_same_spectrum(block_modes, dense_modes, scale):
    block_values = np.array([m.value for m in block_modes])
    dense_values = np.array([m.value for m in dense_modes])
    assert np.max(np.abs(block_values - dense_values)) <= 1e-10 * scale
    block, dense = match_tower(block_modes), match_tower(dense_modes)
    assert block.horizon == dense.horizon
    assert block.trusted_count == dense.trusted_count
    np.testing.assert_allclose(block.unmatched, dense.unmatched, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_levels", [6, 12, 24, 40])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 6, PI_THIRD, math.pi / 2 - 0.2])
@pytest.mark.parametrize("build", [build_mass_operator_levels, build_mass_operator_fock])
def test_block_spectrum_matches_dense_oracle(n_levels, theta, build):
    op = build(build_background(theta, 1.3, 0.7, n_levels))
    margin = min(4, n_levels // 3)
    assert_same_spectrum(
        numeric_spectrum(op, margin), dense_numeric_spectrum(op, margin), op.scale
    )


def test_dense_matrix_is_one_component():
    rng = np.random.default_rng(7)
    n = 6
    raw = rng.standard_normal((3 * n, 3 * n)) + 1j * rng.standard_normal((3 * n, 3 * n))
    op = MassOperator(basis="random", matrix=raw + raw.conj().T, scale=1.0, n_levels=n)
    block, dense = numeric_spectrum(op, 2), dense_numeric_spectrum(op, 2)
    assert_same_spectrum(block, dense, op.scale)
    assert [m.trusted for m in block] == [m.trusted for m in dense]


@pytest.mark.parametrize(
    "theta,z2,R,n_levels,margin",
    [
        (0.7, 1.9, 0.4, 5, 1),
        (PI_THIRD, 1.0, 1.0, 8, 4),
        (0.2, 0.3, 3.1, 24, 2),
        (1.2, 2.2, 0.9, 57, 3),
    ],
)
def test_route_residual_equals_dense_oracle(theta, z2, R, n_levels, margin):
    bg = build_background(theta, z2, R, n_levels)
    op_qp, op_fock = build_mass_operator_qp(bg), build_mass_operator_fock(bg)
    assert route_equivalence_residual(op_qp, op_fock, margin) == (
        dense_route_equivalence_residual(op_qp, op_fock, margin)
    )


@pytest.mark.parametrize("tol", [1e-6, 1e-3, 0.5, 1.0])
def test_match_tower_equals_brute_force(tol):
    rng = np.random.default_rng(11)
    for _ in range(150):
        modes = []
        for _ in range(int(rng.integers(0, 40))):
            level = int(rng.integers(0, 12))
            value = -1.0 if level == 0 else float(rng.choice([0.0, 2.0 * level - 1.0]))
            offset = rng.choice(["exact", "+tol", "-tol", "past+tol", "past-tol", "near", "far"])
            if offset == "exact":
                units = value
            elif offset == "+tol":
                units = value + tol
            elif offset == "-tol":
                units = value - tol
            elif offset == "past+tol":
                units = float(np.nextafter(value + tol, math.inf))
            elif offset == "past-tol":
                units = float(np.nextafter(value - tol, -math.inf))
            elif offset == "near":
                units = value + float(rng.uniform(-tol, tol))
            else:
                units = float(rng.uniform(-2.0, 25.0))
            modes.append(NumericMode(units, units, bool(rng.random() < 0.9), 0.0))
        assert match_tower(modes, tol) == brute_force_match_tower(modes, tol)


def test_numeric_spectrum_rejects_nan_operator():
    op = build_mass_operator_levels(default_background(8))
    matrix = op.matrix.copy()
    matrix[3, 3] = math.nan
    broken = MassOperator(op.basis, matrix, op.scale, op.n_levels)
    with pytest.raises(ValueError, match="not Hermitian"):
        numeric_spectrum(broken, 2)


def test_numeric_spectrum_rejects_non_finite_eigenvalue():
    # a finite Hermitian block whose eigenvalue overflows to inf
    n = 4
    matrix = np.diag(np.arange(3.0 * n)).astype(complex)
    matrix[:2, :2] = 1e308
    op = MassOperator(basis="huge", matrix=matrix, scale=1.0, n_levels=n)
    with pytest.raises(ValueError, match="non-finite eigenvalue"):
        numeric_spectrum(op, 1)
