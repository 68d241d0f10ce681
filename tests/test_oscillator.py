import math

import numpy as np
import pytest

from branekit import (
    InteriorProjector,
    bogoliubov,
    bogoliubov_coefficients,
    commutator,
    make_ladder,
    make_qp,
    max_interior_residual,
)


def test_smallest_ladder():
    a, a_dag = make_ladder(2)
    np.testing.assert_array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(a_dag, [[0.0, 0.0], [1.0, 0.0]])


def test_three_level_commutator():
    # hand product: a a^dag = diag(1,2,0), a^dag a = diag(0,1,2)
    a, a_dag = make_ladder(3)
    np.testing.assert_allclose(commutator(a, a_dag), np.diag([1.0, 1.0, -2.0]), atol=1e-15)


def test_ladder_amplitude_level_four():
    a, _ = make_ladder(8)
    assert a[3, 4] == 2.0


@pytest.mark.parametrize("bad", [0, 1, -3])
def test_ladder_rejects_tiny_truncation(bad):
    with pytest.raises(ValueError):
        make_ladder(bad)


def test_qp_exactly_hermitian():
    q, p = make_qp(9, 0.7)
    np.testing.assert_array_equal(q, q.conj().T)
    np.testing.assert_array_equal(p, p.conj().T)


@pytest.mark.parametrize("z2", [1.0, 0.25])
@pytest.mark.parametrize("dim", [3, 7, 16])
def test_qp_interior_commutator(z2, dim):
    q, p = make_qp(dim, z2)
    target = 2.0j * math.pi * z2
    assert max_interior_residual(commutator(q, p), target, margin=1) <= 1e-12


def test_qp_two_level_truncation_corner():
    q, p = make_qp(2, 1.0)
    np.testing.assert_allclose(
        commutator(q, p), 2.0j * math.pi * np.diag([1.0, -1.0]), atol=1e-13
    )


@pytest.mark.parametrize("z2", [0.0, -1.0, math.nan, math.inf])
def test_qp_rejects_degenerate_flux(z2):
    with pytest.raises(ValueError):
        make_qp(4, z2)


def test_bogoliubov_identity_angle_is_plain_ladder():
    a, _ = make_ladder(6)
    np.testing.assert_allclose(bogoliubov(6, 0.0), a, atol=1e-15)


def test_bogoliubov_coefficients_at_pi_third():
    c_minus, c_plus = bogoliubov_coefficients(math.pi / 3)
    assert c_minus == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-15)
    assert c_plus == pytest.approx(1.5 / math.sqrt(2.0), abs=1e-15)
    assert c_plus**2 - c_minus**2 == pytest.approx(1.0, abs=1e-15)


def test_coefficient_hyperbola_across_angles():
    thetas = np.linspace(1e-9, math.pi / 2 - 1e-3, 1000)
    worst = max(
        abs(bogoliubov_coefficients(t)[1] ** 2 - bogoliubov_coefficients(t)[0] ** 2 - 1.0)
        for t in thetas
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 3, 1.4])
def test_bogoliubov_interior_commutator(theta):
    mode = bogoliubov(20, theta)
    comm = commutator(mode, mode.conj().T)
    assert max_interior_residual(comm, 1.0, margin=2) <= 1e-12


@pytest.mark.parametrize(
    "theta", [-0.1, math.pi / 2, math.pi / 2 - 1e-4, math.pi / 2 - 5e-4, 2.0]
)
def test_bogoliubov_rejects_bad_angles(theta):
    with pytest.raises(ValueError):
        bogoliubov(8, theta)


def test_self_commutator_vanishes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_array_equal(commutator(x, x), np.zeros((5, 5)))


def test_commutator_trace_is_rounding_level():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        scale = float(np.abs(x).max() * np.abs(y).max()) * 6
        assert abs(np.trace(commutator(x, y))) <= 1e-13 * scale


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(3), np.eye(4))


def test_interior_projector_mask():
    proj = InteriorProjector(dim=5, margin=2)
    np.testing.assert_array_equal(proj.mask(), [1.0, 1.0, 1.0, 0.0, 0.0])
    assert proj.interior_dim == 3


def test_interior_projector_apply_masks_rows_and_columns():
    proj = InteriorProjector(dim=3, margin=1)
    op = np.arange(9, dtype=float).reshape(3, 3)
    masked = proj.apply(op)
    assert masked[2].tolist() == [0.0, 0.0, 0.0]
    assert masked[:, 2].tolist() == [0.0, 0.0, 0.0]
    assert masked[1, 1] == 4.0


@pytest.mark.parametrize("dim,margin", [(5, 5), (5, -1), (1, 0)])
def test_interior_projector_rejects_bad_margin(dim, margin):
    with pytest.raises(ValueError):
        InteriorProjector(dim=dim, margin=margin)


def test_package_exports_no_submodules():
    import types

    import branekit

    assert "spectrum" not in branekit.__all__
    assert all(not isinstance(getattr(branekit, n), types.ModuleType) for n in branekit.__all__)
    assert {"numeric_spectrum", "match_tower", "RunConfig"} <= set(branekit.__all__)
