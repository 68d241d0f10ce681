import math

import numpy as np
import pytest

from branekit import (
    block_matrices,
    build_background,
    check_quartic_t,
    check_quartic_ttilde,
    make_qp,
)
from helpers import check_background_commutators, one_background


def _block_diag(upper, lower):
    n = upper.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[upper, zero], [zero, lower]])


def block_assembled_background(theta, z2, n):
    """The X_i one at a time from their two diagonal blocks, with ``np.block``."""
    q, p = make_qp(n, z2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    return np.stack(
        [
            _block_diag(p * sin_t, p * sin_t),
            _block_diag(p * cos_t, -p * cos_t),
            _block_diag(q, q),
        ]
    )


# one to three angles per stack, all on one (Q, P)
@pytest.mark.parametrize("draw", range(60))
def test_background_stack_matches_block_assembly_bitwise(draw):
    rng = np.random.default_rng(20260118 + draw)
    count = 1 + draw % 3
    thetas = [0.0] if draw == 0 else rng.uniform(0.0, math.pi / 2 - 0.01, count).tolist()
    z2 = 10.0 ** rng.uniform(-3.0, 3.0)
    n = 4 + draw % 37
    xs = build_background(thetas, *make_qp(n, z2))
    expected = np.stack([block_assembled_background(theta, z2, n) for theta in thetas])
    assert xs.dtype == expected.dtype and xs.shape == expected.shape
    assert xs.tobytes() == expected.tobytes()


def test_blocks_are_hermitian():
    for mat in one_background(math.pi / 3, 1.0, 8):
        np.testing.assert_array_equal(mat, mat.conj().T)


def test_coordinate_block_matches_qp():
    xs = one_background(math.pi / 3, 1.0, 8)
    q, p = make_qp(8, 1.0)
    np.testing.assert_array_equal(xs[2, :8, :8], q)
    np.testing.assert_array_equal(xs[2, 8:, 8:], q)
    np.testing.assert_allclose(xs[0, :8, :8], p * math.sin(math.pi / 3), atol=1e-15)
    np.testing.assert_allclose(xs[1, 8:, 8:], -p * math.cos(math.pi / 3), atol=1e-15)


def test_zero_angle_is_brane_antibrane():
    xs = one_background(0.0, 1.0, 6)
    _, p = make_qp(6, 1.0)
    np.testing.assert_array_equal(xs[0], np.zeros_like(xs[0]))
    np.testing.assert_array_equal(xs[1, :6, :6], p)
    np.testing.assert_array_equal(xs[1, 6:, 6:], -p)


def test_relative_pair_commutator():
    q, p = make_qp(10, 0.5)
    from helpers import commutator, max_interior_residual

    assert max_interior_residual(commutator(q, p), 2.0j * math.pi * 0.5, margin=1) <= 1e-12


@pytest.mark.parametrize(
    "theta,z2,n",
    [
        (math.pi / 2, 1.0, 8),  # excluded by the angle guard
        (0.3, 0.0, 8),
        (0.3, 1.0, 3),
        (0.5, math.nan, 6),
        (0.5, math.inf, 6),
    ],
)
def test_guards_propagate(theta, z2, n):
    with pytest.raises(ValueError):
        one_background(theta, z2, n)


def test_commutator_constants_at_pi_third():
    report = check_background_commutators(one_background(math.pi / 3, 1.0, 12))
    constants = {(c.pair, c.block): c.constant for c in report.checks}
    two_pi = 2.0 * math.pi
    assert constants[((1, 2), "upper")] == pytest.approx(0.0, abs=1e-12)
    assert constants[((1, 3), "upper")] == pytest.approx(
        -1j * two_pi * math.sin(math.pi / 3), abs=1e-12
    )
    # cos(pi/3) * (-2 pi i z2) = -pi i
    assert constants[((2, 3), "upper")] == pytest.approx(-1j * math.pi, abs=1e-12)
    assert constants[((2, 3), "lower")] == pytest.approx(1j * math.pi, abs=1e-12)
    assert report.max_residual <= 1e-12


def test_zero_angle_kills_first_constant():
    report = check_background_commutators(one_background(0.0, 1.0, 8))
    constants = {(c.pair, c.block): c.constant for c in report.checks}
    assert constants[((1, 3), "upper")] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.2, 0.7, math.pi / 3, 1.3])
@pytest.mark.parametrize("z2", [1.0, 0.3])
def test_squared_sum_is_angle_independent(theta, z2):
    report = check_background_commutators(one_background(theta, z2, 10))
    expected = -8.0 * math.pi**2 * z2**2
    assert abs(report.squared_sum - expected) <= 1e-10 * abs(expected)


def test_fluctuation_blocks_hermitian():
    rng = np.random.default_rng(3)
    ts = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    for mat in block_matrices(np.stack(ts)):
        np.testing.assert_array_equal(mat, mat.conj().T)
        np.testing.assert_array_equal(mat[:4, :4], np.zeros((4, 4)))


# every reader of fluctuation blocks runs the one shape check
BLOCK_READERS = (block_matrices, check_quartic_t, check_quartic_ttilde)


def test_fluctuation_rejects_mismatched_blocks():
    for read in BLOCK_READERS:
        with pytest.raises(ValueError, match=r"\(3, N, N\) stack"):
            read(np.zeros((3, 3, 4), dtype=complex))


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 4, 4), (4, 4, 4), (3, 4), (3, 4, 4, 1)])
def test_fluctuation_rejects_anything_but_three_square_blocks(shape):
    for read in BLOCK_READERS:
        with pytest.raises(ValueError, match=r"\(3, N, N\) stack"):
            read(np.zeros(shape, dtype=complex))


def test_commutator_report_keeps_nan_residual():
    xs = one_background(0.3, 1.0, 8)
    xs[0, 0, 0] = np.nan
    report = check_background_commutators(xs)
    assert np.isnan(report.max_residual)
