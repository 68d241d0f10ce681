import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from branekit import (
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    analytic_spectrum,
    make_ladder,
    make_qp,
    mass_scale,
    match_tower,
    numeric_spectrum,
    rotation_u,
    route_equivalence_residual,
    transverse_gap,
    transverse_spectrum,
)
from branekit.spectrum import (
    MAX_BAND_LEVELS,
    OFFSETS,
    SECTOR_MASSIVE,
    SECTOR_TACHYON,
    SECTOR_ZERO,
    MassOperator,
    TowerMatch,
)
from branekit.config import TOLERANCES
from helpers import (
    FIELD_BLOCKS,
    InteriorProjector,
    analytic_records,
    bogoliubov,
    field_grid,
    level_eigenvectors,
    record_columns,
    route_residual_by_blocks,
    transverse_records,
)

PI_THIRD = math.pi / 3
MATCH_TOL = TOLERANCES["eigenvalue_match"]
TRUST = TOLERANCES["trust_mass"]


def default_params(n_levels=24, theta=PI_THIRD):
    return theta, 1.0, 1.0, n_levels


# ------------------------------------------------ dense assembly oracles


def to_dense(op):
    """The 3N x 3N matrix held in an operator's band storage."""
    n = op.matrix.shape[-1]
    grid = field_grid(op.matrix)
    matrix = np.zeros((3 * n, 3 * n), dtype=complex)
    levels = np.arange(n)
    for k, offset in enumerate(OFFSETS):
        i = levels[(levels + offset >= 0) & (levels + offset < n)]
        for a in range(3):
            for b in range(3):
                matrix[a * n + i, b * n + i + offset] = grid[a, b, k, i]
    return matrix


def dense_assemble(b11, b12, b21, b22, b33):
    n = b11.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[b11, b12, zero], [b21, b22, zero], [zero, zero, b33]])


def dense_operator_qp(theta, z2, R, n_levels):
    """Unrotated-field operator from dense matrix products of Q and P."""
    cos_t = math.cos(theta)
    q_rel, p_rel = make_qp(n_levels, z2)
    q = math.sqrt(2.0) * q_rel
    p = math.sqrt(2.0) * p_rel
    sigma = 4.0 * math.pi * z2
    eye = np.eye(n_levels, dtype=complex)
    b11 = cos_t**2 * (p @ p)
    b12 = -cos_t * (p @ q - 1j * sigma * eye)
    b21 = -cos_t * (q @ p + 1j * sigma * eye)
    b22 = q @ q
    b33 = cos_t**2 * (p @ p) + q @ q
    return R * dense_assemble(b11, b12, b21, b22, b33)


def dense_rotated_blocks(mode, scale):
    n = mode.shape[0]
    eye = np.eye(n, dtype=complex)
    mode_dag = mode.conj().T
    number = mode_dag @ mode
    return scale * dense_assemble(
        number - eye,
        mode_dag @ mode_dag,
        mode @ mode,
        number + 2.0 * eye,
        2.0 * number + eye,
    )


def dense_operator_fock(theta, z2, R, n_levels):
    """Rotated-field operator from dense products of the Bogoliubov mode."""
    scale = mass_scale(theta, z2, R)
    return dense_rotated_blocks(bogoliubov(n_levels, theta), scale)


def dense_operator_levels(theta, z2, R, n_levels):
    """Rotated-field operator in the number basis, from the dense ladder."""
    scale = mass_scale(theta, z2, R)
    return dense_rotated_blocks(make_ladder(n_levels)[0], scale)


ASSEMBLIES = {
    "qp": (build_mass_operator_qp, dense_operator_qp),
    "fock": (build_mass_operator_fock, dense_operator_fock),
    "levels": (build_mass_operator_levels, dense_operator_levels),
}


@pytest.mark.parametrize("assembly", sorted(ASSEMBLIES))
def test_band_assembly_matches_dense_builder(assembly):
    # the number-basis entries are single ladder products, so they match bit
    # for bit; qp and fock entries on the diagonal add two products, and the
    # dense matrix product may fuse them (BLAS FMA), so those may differ in
    # the last bit: at most 4 ulp of the largest entry in the row
    build, dense_build = ASSEMBLIES[assembly]
    rng = np.random.default_rng(2024)
    eps = np.finfo(float).eps
    for _ in range(12):
        theta = float(rng.uniform(0.0, math.pi / 2 - 0.2))
        z2, R = (float(v) for v in rng.uniform(0.25, 4.0, size=2))
        n_levels = int(rng.integers(5, 301))
        band = to_dense(build(theta, z2, R, n_levels))
        dense = dense_build(theta, z2, R, n_levels)
        if assembly == "levels":
            assert np.array_equal(band, dense)
        else:
            row_max = np.max(np.abs(dense), axis=1, keepdims=True)
            assert np.all(np.abs(band - dense) <= 4.0 * eps * row_max)


@pytest.mark.parametrize("assembly", sorted(ASSEMBLIES))
def test_band_storage_is_linear_in_n(assembly):
    op = ASSEMBLIES[assembly][0](PI_THIRD, 1.0, 1.0, MAX_BAND_LEVELS)
    # the five stored field blocks, three diagonals each: 15 complex entries per level
    assert op.matrix.shape == (len(FIELD_BLOCKS), len(OFFSETS), MAX_BAND_LEVELS)
    assert op.matrix.nbytes / MAX_BAND_LEVELS == 15 * 16


@pytest.mark.parametrize("assembly", sorted(ASSEMBLIES))
def test_builders_reject_sizes_past_the_bound(assembly):
    with pytest.raises(ValueError, match="exceeds its bound"):
        ASSEMBLIES[assembly][0](PI_THIRD, 1.0, 1.0, MAX_BAND_LEVELS + 1)


@pytest.mark.parametrize(
    "theta,z2,R,n_levels",
    [
        (math.pi / 2, 1.0, 1.0, 8),
        (0.3, 0.0, 1.0, 8),
        (0.3, 1.0, math.nan, 8),
        (0.3, 1.0, 1.0, 3),
        (0.3, 1e-300, 1e-300, 8),
    ],
)
@pytest.mark.parametrize("assembly", sorted(ASSEMBLIES))
def test_builders_validate_parameters(assembly, theta, z2, R, n_levels):
    with pytest.raises(ValueError):
        ASSEMBLIES[assembly][0](theta, z2, R, n_levels)


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


def reduced_block(n, theta, z2, R):
    """Closed-form per-level block of the rotated-field operator.

    Acts on the coefficient triple of (level n, level n-2, level n-1); rows
    and columns referencing nonexistent levels are removed, so the block is
    1x1 at n=0 and 2x2 at n=1.  Entries carry the full energy^2 scale.
    """
    if n < 0:
        raise ValueError(f"level index must be nonnegative, got {n}")
    scale = mass_scale(theta, z2, R)
    if n == 0:
        return scale * np.array([[-1.0]])
    if n == 1:
        return scale * np.array([[0.0, 0.0], [0.0, 1.0]])
    off = math.sqrt(n * (n - 1.0))
    return scale * np.array(
        [[n - 1.0, off, 0.0], [off, float(n), 0.0], [0.0, 0.0, 2.0 * n - 1.0]]
    )


@pytest.mark.parametrize("n", range(2, 10))
def test_reduced_block_matches_number_basis_operator(n):
    # the (level n, level n-2, level n-1) rows of fields 1, 2, 3
    n_levels = 12
    dense = to_dense(build_mass_operator_levels(0.8, 1.3, 0.7, n_levels))
    idx = [n, n_levels + n - 2, 2 * n_levels + n - 1]
    np.testing.assert_allclose(
        dense[np.ix_(idx, idx)], reduced_block(n, 0.8, 1.3, 0.7), rtol=1e-14, atol=0.0
    )


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
    v1, v2, v3 = level_eigenvectors(n)
    lam = (2.0 * n - 1.0) * scale
    assert np.max(np.abs(block @ v1)) <= 1e-12 * scale * n
    np.testing.assert_allclose(block @ v2, lam * v2, atol=1e-12 * scale * n)
    np.testing.assert_allclose(block @ v3, lam * v3, atol=1e-12 * scale * n)


# ------------------------------------------------------------ analytic table


def test_analytic_spectrum_structure():
    records = analytic_spectrum(3, PI_THIRD, 1.0, 1.0)
    (tachyon,) = records[records["sector"] == SECTOR_TACHYON]
    assert tachyon["n"] == 0
    assert tachyon["eigenvalue_units"] == -1.0
    assert tachyon["eigenvalue_raw"] == pytest.approx(-2.0 * math.pi, abs=1e-13)
    level3 = sorted(records["eigenvalue_units"][records["n"] == 3].tolist())
    assert level3 == [0.0, 5.0, 5.0]


def test_analytic_eigenvector_is_null_vector():
    records = analytic_spectrum(5, PI_THIRD, 1.0, 1.0)
    (zero_mode,) = records[(records["n"] == 5) & (records["sector"] == SECTOR_ZERO)]
    block = reduced_block(5, PI_THIRD, 1.0, 1.0)
    residual = np.max(np.abs(block @ level_eigenvectors(int(zero_mode["n"]))[0]))
    assert residual <= 1e-12 * mass_scale(PI_THIRD, 1.0, 1.0) * 5


def test_analytic_spectrum_rejects_negative_horizon():
    with pytest.raises(ValueError):
        analytic_spectrum(-1, PI_THIRD, 1.0, 1.0)
    with pytest.raises(ValueError):
        transverse_spectrum(-1, PI_THIRD)


#: The columns of a spectrum report's tower and transverse rows, in order.
MODE_COLUMNS = ("sector", "n", "eigenvalue_units", "eigenvalue_raw", "multiplicity")


def _typed_bits(values: list) -> list:
    """Each Python scalar with its type, a float as its hex digits (keeps the sign of zero)."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


def _assert_table_matches_records(table, records):
    # the row order, each column's dtype kind, and every value's type and bits
    assert table.dtype.names == MODE_COLUMNS
    for column, expected in zip(MODE_COLUMNS, record_columns(records, MODE_COLUMNS)):
        assert table[column].dtype.kind == expected.dtype.kind, column
        assert _typed_bits(table[column].tolist()) == _typed_bits(expected.tolist()), column


# n_max 0-299, so the edges 0, 1 and 2 are always drawn
@pytest.mark.parametrize("n_max", range(300))
def test_closed_form_tables_match_the_per_level_records_bitwise(n_max):
    rng = np.random.default_rng(20261020 + n_max)
    theta = float(rng.uniform(0.0, 1.5))
    z2, R = 10.0 ** rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-3.0, 3.0)
    tower = analytic_spectrum(n_max, theta, z2, R)
    _assert_table_matches_records(tower, analytic_records(n_max, theta, z2, R))
    _assert_table_matches_records(transverse_spectrum(n_max, theta), transverse_records(n_max, theta))


# a finite scale of 1.26e308, where the levels from 2 on overflow, and an infinite one
@pytest.mark.parametrize("z2,R,infinite", [(1e300, 1e7, 8), (1e308, 10.0, 10)])
def test_closed_form_tower_overflows_as_the_records_do(z2, R, infinite):
    # past the float range a raw eigenvalue is inf, as the Python product gives, and a
    # zero mode's stays 0, even under the errors that ``main`` raises on
    with np.errstate(over="raise", invalid="raise"):
        tower = analytic_spectrum(5, 0.0, z2, R)
    _assert_table_matches_records(tower, analytic_records(5, 0.0, z2, R))
    assert np.isinf(tower["eigenvalue_raw"]).sum() == infinite


# ------------------------------------------------------------ mass operators


def test_qp_operator_exactly_hermitian():
    op = build_mass_operator_qp(*default_params(12))
    matrix = to_dense(op)
    assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12 * op.scale


def test_qp_operator_zero_angle_blocks():
    q, p = make_qp(8, 1.0)
    matrix = to_dense(build_mass_operator_qp(0.0, 1.0, 1.0, 8))
    n = 8
    p2 = 2.0 * p @ p
    q2 = 2.0 * q @ q
    np.testing.assert_allclose(matrix[:n, :n], p2, atol=1e-12)
    np.testing.assert_allclose(matrix[n : 2 * n, n : 2 * n], q2, atol=1e-12)
    np.testing.assert_allclose(matrix[2 * n :, 2 * n :], p2 + q2, atol=1e-12)


def test_qp_operator_tachyon_at_n16():
    op = build_mass_operator_qp(PI_THIRD, 1.0, 1.0, 16)
    modes = dense_numeric_spectrum(op, 4)
    lowest = min(m.value for m in modes if m.trusted)
    assert lowest == pytest.approx(-2.0 * math.pi, abs=1e-6)


def test_fock_operator_zero_angle_block_and_scale():
    op = build_mass_operator_fock(0.0, 1.0, 1.0, 10)
    a, a_dag = make_ladder(10)
    expected = 4.0 * math.pi * (a_dag @ a - np.eye(10))
    np.testing.assert_allclose(to_dense(op)[:10, :10], expected, atol=1e-12)
    assert op.scale == pytest.approx(4.0 * math.pi, abs=1e-13)


def test_fock_scale_at_pi_third():
    op = build_mass_operator_fock(*default_params(8))
    assert op.scale == pytest.approx(2.0 * math.pi, abs=1e-13)


@pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2 - 0.2, 10))
def test_route_equivalence(theta):
    params = (float(theta), 1.0, 1.0, 20)
    residual = route_equivalence_residual(
        build_mass_operator_qp(*params), build_mass_operator_fock(*params), margin=4
    )
    assert residual <= 1e-10


def test_route_equivalence_rejects_mixed_truncations():
    with pytest.raises(ValueError):
        route_equivalence_residual(
            build_mass_operator_qp(*default_params(8)),
            build_mass_operator_fock(*default_params(10)),
            margin=2,
        )


@pytest.mark.parametrize("margin", [-1, 8])
def test_route_equivalence_rejects_bad_margin(margin):
    ops = build_mass_operator_qp(*default_params(8)), build_mass_operator_fock(*default_params(8))
    with pytest.raises(ValueError, match="margin must satisfy 0 <= margin < 8"):
        route_equivalence_residual(*ops, margin=margin)


def test_route_equivalence_accepts_zero_margin():
    # margin 0 compares every level, the cutoff rows too, as the dense check does; the
    # per-block oracle uses no BLAS, while the dense products' last bits follow the BLAS kernel
    params = default_params(8)
    op_qp, op_fock = build_mass_operator_qp(*params), build_mass_operator_fock(*params)
    residual = route_equivalence_residual(op_qp, op_fock, margin=0)
    assert repr(residual) == repr(route_residual_by_blocks(op_qp, op_fock, 0))
    dense = dense_route_equivalence_residual(op_qp, op_fock, 0)
    assert abs(residual - dense) <= 1e-15 * dense


# ----------------------------------------------------------- numeric spectrum


def test_levels_route_reaches_deep_horizon():
    op = build_mass_operator_levels(*default_params(24))
    match = match_tower(numeric_spectrum(op, 4, TRUST), MATCH_TOL)
    assert match.horizon >= 8
    assert not match.unmatched


def test_levels_route_degenerate_zero_count():
    # zero modes across levels are exactly degenerate; each level block is
    # solved alone, so the trust count equals the horizon, not one survivor
    op = build_mass_operator_levels(*default_params(24))
    modes = numeric_spectrum(op, 4, TRUST)
    match = match_tower(modes, MATCH_TOL)
    zeros = [m for m in modes if m.trusted and abs(m.units) <= 1e-6]
    assert len(zeros) == match.horizon


def test_levels_route_collision_cluster():
    # at N=24 the leftover second-component mode of the cut family n=25 sits
    # at 25 units, exactly degenerate with the genuine n=13 pair; the pair
    # must still be counted twice
    op = build_mass_operator_levels(*default_params(24))
    modes = numeric_spectrum(op, 4, TRUST)
    at_25 = [m for m in modes if abs(m.units - 25.0) <= 1e-6]
    assert len(at_25) == 3
    assert sum(1 for m in at_25 if m.trusted) == 2


def test_fock_route_trusted_tachyon():
    for theta in (0.0, math.pi / 6, PI_THIRD):
        op = build_mass_operator_fock(theta, 1.0, 1.0, 24)
        modes = dense_numeric_spectrum(op, 4)
        negatives = [m for m in modes if m.trusted and m.units < -1e-6]
        assert len(negatives) == 1
        assert negatives[0].units == pytest.approx(-1.0, abs=1e-6)


def test_fock_route_trusted_subset_of_tower():
    op = build_mass_operator_fock(*default_params(24))
    match = match_tower(dense_numeric_spectrum(op, 4), MATCH_TOL)
    assert not match.unmatched
    assert match.horizon >= 1


def test_fock_route_exactly_degenerate_zeros():
    # at pi/6 the zero modes of different levels are degenerate to rounding,
    # so the solver hands back heavily mixed vectors; the subspace count
    # must still recover the interior zero modes
    op = build_mass_operator_fock(math.pi / 6, 1.0, 1.0, 24)
    modes = dense_numeric_spectrum(op, 4)
    match = match_tower(modes, MATCH_TOL)
    zeros = [m for m in modes if m.trusted and abs(m.units) <= 1e-6]
    assert not match.unmatched
    assert match.horizon >= 8
    assert len(zeros) >= match.horizon


@pytest.mark.parametrize("theta,z2,R", [(0.0, 1.0, 1.0), (PI_THIRD, 0.5, 2.0)])
def test_tachyon_sector_only_at_level_zero(theta, z2, R):
    records = analytic_spectrum(10, theta, z2, R)
    tachyon = records["sector"] == SECTOR_TACHYON
    assert records[tachyon][["n", "eigenvalue_units"]].tolist() == [(0, -1.0)]
    assert (records["eigenvalue_units"][~tachyon] >= 0.0).all()


@pytest.mark.parametrize("n_levels,margin", [(8, 2), (24, 4), (61, 7)])
def test_trust_does_not_depend_on_the_scale(n_levels, margin):
    # the trust rule is stated in scale units, so it reads the same at any z2;
    # rounding noise reorders the zero modes, so flags are compared per value
    readings = []
    for z2 in (1e-16, 1e-12, 1.0, 1e3):
        op = build_mass_operator_levels(PI_THIRD, z2, 1.0, n_levels)
        modes = numeric_spectrum(op, margin, TRUST)
        match = match_tower(modes, MATCH_TOL)
        flags = sorted(zip(np.round(modes.units, 6).tolist(), modes.trusted.tolist()))
        readings.append((flags, match.horizon, match.trusted_count))
    assert readings[1:] == readings[:1] * 3


def test_not_hermitian_exactly_when_the_dense_scan_exceeds_the_bound():
    # level-block entries moved by about the bound 1e-10 * scale, and a
    # diagonal with an imaginary part exactly at the bound and one float past it
    rng = np.random.default_rng(3)
    outcomes = set()
    for draw in range(80):
        n_levels = int(rng.integers(4, 30))
        z2 = float(10.0 ** rng.uniform(-16, 3))
        op = build_mass_operator_levels(float(rng.uniform(0.0, 1.5)), z2, 1.0, n_levels)
        matrix = op.matrix.copy()
        bound = 1e-10 * op.scale
        if draw < 2:
            half = bound / 2 if draw == 0 else float(np.nextafter(bound / 2, math.inf))
            matrix[4, 1, int(rng.integers(n_levels))] += 1j * half
        for _ in range(int(rng.integers(1, 4))):
            delta = bound * 10.0 ** rng.uniform(-1.5, 0.5) * np.exp(2j * math.pi * rng.random())
            field = int(rng.integers(3))
            entry = [
                (FIELD_BLOCKS.index((field, field)), 1, int(rng.integers(n_levels))),
                (1, 0, int(rng.integers(2, n_levels))),
                (2, 2, int(rng.integers(n_levels - 2))),
            ][int(rng.integers(3))]
            matrix[entry] += delta
        broken = MassOperator(matrix, op.scale)
        dense = to_dense(broken)
        over = bool(np.max(np.abs(dense - dense.conj().T)) > bound)
        if draw < 2:
            assert over == (draw == 1)
        outcomes.add(over)
        if over:
            with pytest.raises(ValueError, match="not Hermitian"):
                numeric_spectrum(broken, 1, TRUST)
        else:
            assert len(numeric_spectrum(broken, 1, TRUST)) == 3 * n_levels
    assert outcomes == {False, True}


def test_numeric_spectrum_rejects_non_hermitian():
    op = build_mass_operator_levels(*default_params(8))
    upper = np.zeros_like(op.matrix)
    upper[:, 2] = 1e-3
    broken = MassOperator(matrix=op.matrix + upper, scale=op.scale)
    with pytest.raises(ValueError):
        numeric_spectrum(broken, 2, TRUST)


#: Angles from zero mixing (Fock equals the number basis) to near pi/2.
OTHER_ASSEMBLY_THETAS = [0.0, 1e-9, 1e-7, 1e-4, 0.4, PI_THIRD, math.pi / 2 - 1e-3]


@pytest.mark.parametrize(
    "build,expected",
    [
        pytest.param(build_mass_operator_qp, {"rejected"}, id="build_mass_operator_qp"),
        pytest.param(build_mass_operator_fock, {"rejected", "equal"}, id="build_mass_operator_fock"),
    ],
)
def test_numeric_spectrum_rejects_other_bases(build, expected):
    # the level-block check stands in for a basis tag: another assembly is
    # rejected, unless its mixing rounds to 0 and its band is the number
    # basis band bit for bit, with the same solve
    outcomes = set()
    for theta in OTHER_ASSEMBLY_THETAS:
        levels = build_mass_operator_levels(*default_params(8, theta))
        op = build(*default_params(8, theta))
        try:
            modes = numeric_spectrum(op, 2, TRUST)
        except ValueError as exc:
            assert "couples levels outside its level blocks" in str(exc), theta
            outcomes.add("rejected")
            continue
        assert op.matrix.tobytes() == levels.matrix.tobytes(), theta
        assert modes.tobytes() == numeric_spectrum(levels, 2, TRUST).tobytes()
        outcomes.add("equal")
    assert outcomes == expected


def with_entries(op, entries, value):
    """``op`` with ``value`` written at each band slot of ``entries``."""
    matrix = op.matrix.copy()
    for entry in entries:
        matrix[entry] = value
    return MassOperator(matrix, op.scale)


#: A Hermitian coupling of field 3 at level 3 to level 5 that no level block holds.
OFF_LEVEL_PAIR = ((4, 2, 3), (4, 0, 5))
#: The slots of the field 1 to field 2 coupling bands past the block edge.
PAST_EDGE = [(1, 0, 0), (1, 0, 1), (2, 2, -2), (2, 2, -1)]


def test_numeric_spectrum_rejects_couplings_outside_level_blocks():
    op = build_mass_operator_levels(*default_params(8))
    for value in (0.5, math.nan):
        with pytest.raises(ValueError, match="outside its level blocks"):
            numeric_spectrum(with_entries(op, OFF_LEVEL_PAIR, value), 2, TRUST)


@pytest.mark.parametrize("entry", PAST_EDGE)
def test_numeric_spectrum_rejects_past_edge_couplings(entry):
    op = build_mass_operator_levels(*default_params(8))
    for value in (1e-12, math.nan, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="outside its level blocks"):
            numeric_spectrum(with_entries(op, [entry], value), 2, TRUST)


@pytest.mark.parametrize("entries", [OFF_LEVEL_PAIR, *([entry] for entry in PAST_EDGE)])
def test_numeric_spectrum_accepts_negative_zero_outside_level_blocks(entries):
    # a signed zero is zero: the solve is the clean one, bit for bit
    op = build_mass_operator_levels(*default_params(8))
    clean = numeric_spectrum(op, 2, TRUST)
    for value in (-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)):
        modes = numeric_spectrum(with_entries(op, entries, value), 2, TRUST)
        assert modes.tobytes() == clean.tobytes()


@pytest.mark.parametrize("margin", [0, 8])
def test_numeric_spectrum_rejects_bad_margin(margin):
    op = build_mass_operator_levels(*default_params(8))
    with pytest.raises(ValueError):
        numeric_spectrum(op, margin, TRUST)


def test_spectrum_records_carry_what_the_report_and_bench_read():
    # the bench counts the records and reads each one's .trusted; the report
    # writes the match with json, which cannot encode numpy scalars
    n_levels = 12
    modes = numeric_spectrum(build_mass_operator_levels(*default_params(n_levels)), 3, TRUST)
    assert isinstance(modes, np.recarray) and len(modes) == 3 * n_levels
    assert modes.dtype.names == ("value", "units", "trusted", "top_mass")
    tachyon = modes[0]
    assert (tachyon.units, tachyon.trusted, tachyon.top_mass) == (-1.0, True, 0.0)
    assert tachyon.value == -mass_scale(*default_params()[:3])
    # a tolerance far below the rounding noise leaves unmatched values
    match = match_tower(modes, tol_units=1e-300)
    assert type(match.horizon) is int and type(match.trusted_count) is int
    assert match.unmatched and all(type(u) is float for u in match.unmatched)
    json.dumps(dataclasses.asdict(match))


def test_match_tower_without_tachyon():
    op = build_mass_operator_levels(*default_params(12))
    modes = numeric_spectrum(op, 3, TRUST)
    assert match_tower(modes[modes.units > -0.5], MATCH_TOL).horizon == -1


# ---------------------------------------------------------------- transverse


def test_transverse_values():
    assert transverse_spectrum(0, 0.0)[0]["eigenvalue_raw"] == pytest.approx(1.0)
    record = transverse_spectrum(2, PI_THIRD)[2]
    assert record["eigenvalue_raw"] == pytest.approx(2.5)
    assert record["eigenvalue_units"] == pytest.approx(5.0)
    assert record["multiplicity"] == 6


def test_transverse_matches_interior_eigensolve():
    n = 16
    theta = PI_THIRD
    a, a_dag = make_ladder(n)
    op = math.cos(theta) * (2.0 * a_dag @ a + np.eye(n))
    values = np.linalg.eigvalsh(op)
    expected = np.array([(2.0 * m + 1.0) * math.cos(theta) for m in range(n)])
    assert np.max(np.abs(values[: n - 2] - expected[: n - 2])) <= 1e-10


def dense_transverse_gap(op, margin):
    """The gap from a dense eigensolve of field block 3 of the whole operator."""
    n = op.matrix.shape[-1]
    values = np.linalg.eigvalsh(to_dense(op)[2 * n :, 2 * n :])[: n - margin] / op.scale
    return float(np.max(np.abs(values - (2.0 * np.arange(n - margin) + 1.0))))


@pytest.mark.parametrize("n_levels", [8, 24, 200])
@pytest.mark.parametrize("theta", [0.0, 0.3, PI_THIRD, 1.4])
def test_transverse_gap_matches_dense_eigensolve(n_levels, theta):
    op = build_mass_operator_levels(*default_params(n_levels, theta))
    assert transverse_gap(op, 4) == dense_transverse_gap(op, 4)


def test_transverse_gap_reads_the_solved_field_3_singles():
    # field block 3 holds the last N of numeric_spectrum's 1x1 blocks, read the same way
    op = build_mass_operator_levels(*default_params(24))
    op.matrix[4, 1, 5] += 1e-3 * op.scale
    units = op.matrix[4, 1].real / op.scale
    assert transverse_gap(op, 2) == pytest.approx(1e-3, rel=1e-9)
    assert set(units.tolist()) <= set(numeric_spectrum(op, 2, TRUST).units.tolist())


def test_transverse_gap_keeps_nan():
    op = build_mass_operator_levels(*default_params(24))
    op.matrix[4, 1, 3] = math.nan
    assert math.isnan(transverse_gap(op, 2))


# ------------------------------------------------------- dense-path oracles


def dense_route_equivalence_residual(op_qp, op_fock, margin):
    """Route check on the whole 3N x 3N operators, with kron projectors."""
    n = op_qp.matrix.shape[-1]
    proj = np.diag(InteriorProjector(n, margin).mask()).astype(complex)
    u_proj = np.kron(rotation_u(), proj)
    full_proj = np.kron(np.eye(3, dtype=complex), proj)
    lhs = u_proj @ to_dense(op_qp) @ u_proj.conj().T
    rhs = full_proj @ to_dense(op_fock) @ full_proj
    return float(np.max(np.abs(lhs - rhs)) / op_fock.scale)


def dense_numeric_spectrum(op, margin, mass_threshold=TRUST):
    """Whole-matrix eigh of any basis, with the per-cluster Gram trust rule."""
    n = op.matrix.shape[-1]
    eigenvalues, eigenvectors = np.linalg.eigh(to_dense(op))
    top = np.zeros(3 * n)
    for block in range(3):
        top[block * n + n - margin : (block + 1) * n] = 1.0
    masses = (np.abs(eigenvectors) ** 2 * top[:, None]).sum(axis=0)

    trusted = np.zeros(eigenvalues.size, dtype=bool)
    cluster_tol = 1e-10 * op.scale
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
    return np.rec.fromarrays(
        (eigenvalues, eigenvalues / op.scale, trusted, masses), names="value,units,trusted,top_mass"
    )


def gathered_numeric_spectrum(op, margin, mass_threshold=TRUST):
    """Level blocks gathered by index, one eigh per block size, and the Gram rule.

    A pair of eigenvalues closer than 1e-10 * scale inside a block is one
    cluster, returned as any mixture; it trusts as many of its lowest-mass
    members as the Gram form of its top mass has interior directions.
    """
    band, n = field_grid(op.matrix), op.matrix.shape[-1]
    top = (np.arange(3 * n) % n >= n - margin).astype(float)
    # indices (field * n + level): field 1 at level m couples to field 2 at
    # level m - 2; field 1 at levels 0 and 1, field 2 at the top two levels
    # and all of field 3 stand alone
    singles = np.concatenate([[0, 1, 2 * n - 2, 2 * n - 1], np.arange(2 * n, 3 * n)])
    pairs = np.stack([np.arange(2, n), np.arange(n, 2 * n - 2)], axis=1)
    values, masses, trusted = [], [], []
    for idx in (singles[:, None], pairs):
        rows, cols = idx[:, :, None], idx[:, None, :]
        blocks = band[rows // n, cols // n, (cols % n - rows % n) // 2 + 1, rows % n]
        vals, vecs = np.linalg.eigh(blocks)
        tops = top[idx]
        mass = (np.abs(vecs) ** 2 * tops[:, :, None]).sum(axis=1)
        ok = mass <= mass_threshold
        for k in np.flatnonzero((np.diff(vals, axis=1) <= 1e-10 * op.scale).any(axis=1)):
            gram = vecs[k].conj().T @ (tops[k][:, None] * vecs[k])
            interior_directions = int(np.sum(np.linalg.eigvalsh(gram) <= mass_threshold))
            ok[k] = False
            ok[k, np.argsort(mass[k], kind="stable")[:interior_directions]] = True
        values.append(vals.ravel())
        masses.append(mass.ravel())
        trusted.append(ok.ravel())
    order = np.argsort(np.concatenate(values), kind="stable")
    values, masses, trusted = (np.concatenate(a)[order] for a in (values, masses, trusted))
    return np.rec.fromarrays(
        (values, values / op.scale, trusted, masses), names="value,units,trusted,top_mass"
    )


def test_block_slices_match_gathered_oracle_bitwise():
    # every field bit for bit, over drawn operators, margins and thresholds;
    # some draws carry Hermitian-within-bound noise on the diagonals and on
    # the upper coupling, which eigh does not read
    rng = np.random.default_rng(5)
    for _ in range(240):
        n_levels = int(rng.integers(4, 1002))
        theta = float(rng.uniform(0.0, 1.5))
        z2, R = float(10.0 ** rng.uniform(-16, 3)), float(10.0 ** rng.uniform(-2, 2))
        op = build_mass_operator_levels(theta, z2, R, n_levels)
        if rng.random() < 0.3:
            matrix = op.matrix.copy()
            noise = 1e-12 * op.scale * rng.standard_normal((4, n_levels))
            matrix[[0, 3, 4], 1] += 1j * noise[:3]
            matrix[1, 0, 2:] += noise[3, 2:]
            op = MassOperator(matrix, op.scale)
        margin = int(rng.integers(1, n_levels))
        threshold = float(rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-12, 0)]))
        modes = numeric_spectrum(op, margin, threshold)
        oracle = gathered_numeric_spectrum(op, margin, threshold)
        for field in ("value", "units", "trusted", "top_mass"):
            assert modes[field].tobytes() == oracle[field].tobytes()


def brute_force_match_tower(modes, tol_units):
    """Horizon by rescanning every trusted mode for every tower value."""
    trusted_units = sorted(float(m.units) for m in modes if m.trusted)

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
    assert np.max(np.abs(block_modes.value - dense_modes.value)) <= 1e-10 * scale
    block, dense = match_tower(block_modes, MATCH_TOL), match_tower(dense_modes, MATCH_TOL)
    assert block.horizon == dense.horizon
    assert block.trusted_count == dense.trusted_count
    np.testing.assert_allclose(block.unmatched, dense.unmatched, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_levels", [4, 5, 6, 12, 24, 40])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 6, PI_THIRD, math.pi / 2 - 0.2])
@pytest.mark.parametrize("build", [build_mass_operator_levels])
def test_block_spectrum_matches_dense_oracle(n_levels, theta, build):
    # the level-block solve takes the number basis only; the Fock basis is
    # solved by the dense oracle in the test_fock_route_* tests
    for z2 in (1e-14, 1.3, 1e6):
        op = build(theta, z2, 0.7, n_levels)
        margin = min(4, n_levels // 3)
        modes = numeric_spectrum(op, margin, TRUST)
        assert_same_spectrum(modes, dense_numeric_spectrum(op, margin), op.scale)
        assert match_tower(modes, MATCH_TOL) == brute_force_match_tower(modes, MATCH_TOL)


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
    params = (theta, z2, R, n_levels)
    op_qp, op_fock = build_mass_operator_qp(*params), build_mass_operator_fock(*params)
    assert route_equivalence_residual(op_qp, op_fock, margin) == (
        dense_route_equivalence_residual(op_qp, op_fock, margin)
    )


def test_row_wise_route_check_matches_per_block_oracle_bitwise():
    # N log-uniform in 4-3000, z2 and R across 10^+-300 and 10^+-15, any margin;
    # the last draws overflow the scale, or put a NaN in one field row alone:
    # in M12 (field row 1), M22 (field row 2) or field 3's band
    rng = np.random.default_rng(20030414)
    draws = [
        (
            float(rng.uniform(0.0, 1.5)),
            10.0 ** rng.uniform(-300.0, 300.0),
            10.0 ** rng.uniform(-15.0, 15.0),
            int(np.exp(rng.uniform(math.log(4), math.log(3001)))),
        )
        for _ in range(300)
    ]
    draws += [(0.3, 1e300, 1e15, 50), (1.2, 1e305, 1e10, 9)] + [(0.7, 1.9, 0.4, 30)] * 3
    with np.errstate(all="ignore"):
        for i, params in enumerate(draws):
            op_qp, op_fock = build_mass_operator_qp(*params), build_mass_operator_fock(*params)
            if i >= len(draws) - 3:
                op_qp.matrix[(1, 3, 4)[i % 3], 1, 0] = math.nan
            margin = int(rng.integers(1, params[3]))
            residual = route_equivalence_residual(op_qp, op_fock, margin)
            assert repr(residual) == repr(route_residual_by_blocks(op_qp, op_fock, margin)), params
            assert math.isnan(residual) or i < len(draws) - 5, params

    # the boundary slots: a NaN in every slot whose column leaves the interior,
    # in all five field blocks of both bands, is ignored; one in the last
    # interior slot at offset +2 (level k - 3) is not
    params = (0.7, 1.9, 0.4, 12)
    n = params[3]
    op_qp, op_fock = build_mass_operator_qp(*params), build_mass_operator_fock(*params)
    levels = np.arange(n)
    columns = levels + np.array(OFFSETS)[:, None]
    for margin in (0, 1, n - 2, n - 1):
        k = n - margin
        clean = route_equivalence_residual(op_qp, op_fock, margin)
        assert repr(clean) == repr(route_residual_by_blocks(op_qp, op_fock, margin))
        excluded = ~((levels < k) & (columns >= 0) & (columns < k))
        for j, i in zip(*np.nonzero(excluded)):
            slots = [(block, j, i) for block in range(len(FIELD_BLOCKS))]
            qp, fock = (with_entries(op, slots, math.nan) for op in (op_qp, op_fock))
            residual = route_equivalence_residual(qp, fock, margin)
            assert repr(residual) == repr(route_residual_by_blocks(qp, fock, margin))
            assert repr(residual) == repr(clean), (margin, j, i)
        for block in range(len(FIELD_BLOCKS) if k >= 3 else 0):
            qp = with_entries(op_qp, [(block, 2, k - 3)], math.nan)
            residual = route_equivalence_residual(qp, op_fock, margin)
            assert repr(residual) == repr(route_residual_by_blocks(qp, op_fock, margin)) == "nan"


def test_band_checks_read_the_bands_in_place():
    # neither the route check nor the outside-block check copies a band:
    # each peaks under 1.5 bands of storage at N = 20000
    params = default_params(20000)
    op_qp, op_fock = build_mass_operator_qp(*params), build_mass_operator_fock(*params)
    op_levels = build_mass_operator_levels(*params)
    checks = {
        "route_equivalence_residual": lambda: route_equivalence_residual(op_qp, op_fock, 2),
        "numeric_spectrum": lambda: numeric_spectrum(op_levels, 2, TRUST),
    }
    for name, check in checks.items():
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * op_levels.matrix.nbytes, (name, peak / op_levels.matrix.nbytes)


@pytest.mark.parametrize("tol", [1e-6, 1e-3, 0.5, 1.0])
def test_match_tower_equals_brute_force(tol):
    rng = np.random.default_rng(11)
    for _ in range(150):
        units_drawn, trusted_drawn = [], []
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
            units_drawn.append(units)
            trusted_drawn.append(rng.random() < 0.9)
        values = np.array(units_drawn, dtype=float)
        modes = np.rec.fromarrays(
            (values, values, np.array(trusted_drawn, dtype=bool), 0.0 * values),
            names="value,units,trusted,top_mass",
        )
        assert match_tower(modes, tol) == brute_force_match_tower(modes, tol)


def test_numeric_spectrum_rejects_nan_operator():
    op = build_mass_operator_levels(*default_params(8))
    matrix = op.matrix.copy()
    matrix[0, 1, 3] = math.nan
    broken = MassOperator(matrix, op.scale)
    with pytest.raises(ValueError, match="not Hermitian"):
        numeric_spectrum(broken, 2, TRUST)


def test_numeric_spectrum_rejects_non_finite_eigenvalue():
    # a finite Hermitian level block whose eigenvalue overflows to inf:
    # field 1 at level 2 and field 2 at level 0
    n = 4
    matrix = np.zeros((len(FIELD_BLOCKS), len(OFFSETS), n), dtype=complex)
    matrix[[0, 3, 4], 1] = np.arange(3.0 * n).reshape(3, n)
    matrix[0, 1, 2] = matrix[3, 1, 0] = matrix[1, 0, 2] = matrix[2, 2, 0] = 1e308
    op = MassOperator(matrix=matrix, scale=1.0)
    with pytest.raises(ValueError, match="non-finite eigenvalue"):
        numeric_spectrum(op, 1, TRUST)
