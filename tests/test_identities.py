import math
import tracemalloc

import numpy as np
import pytest

from branekit import (
    block_matrices,
    check_cross_terms,
    check_expansion,
    check_quartic_t,
    check_quartic_ttilde,
    momentum_polynomial_fluctuation,
    random_fluctuation,
    make_qp,
    rotation_u,
)
from branekit.config import Gate
from branekit.identities import (
    EXACT_TOL,
    IDENTITIES,
    PASS_TOL,
    RECORD,
    VERDICT_EXACT,
    VERDICT_PASS,
    VERDICT_RECORDED,
    VERDICT_VIOLATED,
    VERDICTS,
    _gated,
    _quartic_traces,
    expansion_draws,
    random_complex,
)
from branekit.spectrum import MODES, SECTORS
from helpers import (
    commutator,
    dense_quartic_block_trace,
    one_background,
    random_complex_matrix,
    random_hermitian,
    random_hermitian_matrix,
)


def zero_fluct(n):
    return np.zeros((3, n, n), dtype=complex)


def stacked(*flucts):
    """The fluctuations' blocks as one stack of trials."""
    return np.stack(flucts)


def expansion(xs, fluct, seed=None):
    """``check_expansion`` on one trial: its one row."""
    (report,) = check_expansion(xs[None], fluct[None], [seed])
    return report


def quartic(check, ts, seed=None):
    """The one row of a quartic check."""
    (report,) = check(ts, seed=seed)
    return report


def cross_terms(xs, generic, momentum):
    """``check_cross_terms`` on one trial: linear and cubic, generic then momentum."""
    return check_cross_terms(xs[None], generic[None], momentum[None])


def holds(residual, tol, *scales):
    """One scalar ``Gate``: residual against tol * max(1, |scales|), a NaN scale carried."""
    return Gate("residual", residual, tol * np.max([1.0, *map(abs, scales)])).ok


def momentum_fluct(n, z2, rng):
    """``momentum_polynomial_fluctuation`` of the n-level relative P at z2."""
    return momentum_polynomial_fluctuation(make_qp(n, z2)[1], [rng])[0]


def test_expansion_with_zero_fluctuation():
    rng = np.random.default_rng(0)
    xs = random_hermitian(rng, 8)
    report = expansion(xs, zero_fluct(4))
    assert report["verdict"] == VERDICT_EXACT
    assert report["residual"] <= 1e-10 * max(1.0, abs(report["lhs"]))
    # both sides collapse to the pure-background double trace
    pure = sum(
        np.trace(commutator(xs[i], xs[j]) @ commutator(xs[i], xs[j]))
        for i in range(3)
        for j in range(3)
    )
    assert report["lhs"] == pytest.approx(pure.real, rel=1e-12)


def test_expansion_with_zero_background():
    rng = np.random.default_rng(1)
    fluct = random_fluctuation(rng, 5)
    xs = np.zeros((3, 10, 10), dtype=complex)
    report = expansion(xs, fluct)
    assert report["verdict"] == VERDICT_EXACT


@pytest.mark.parametrize("trial", range(25))
def test_expansion_property(trial):
    rng = np.random.default_rng(1000 + trial)
    dim = 2 + trial % 7
    xs = random_hermitian(rng, 2 * dim)
    report = expansion(xs, random_fluctuation(rng, dim), seed=1000 + trial)
    assert report["verdict"] == VERDICT_EXACT
    assert report["residual"] <= 1e-10 * max(1.0, abs(report["lhs"]), abs(report["rhs"]))


def test_expansion_shape_mismatch():
    rng = np.random.default_rng(2)
    xs = random_hermitian(rng, 6)
    with pytest.raises(ValueError):
        expansion(xs, random_fluctuation(rng, 5))


def test_expansion_rejects_a_seed_count_that_is_not_the_trial_count():
    rng = np.random.default_rng(2)
    xs = np.stack([random_hermitian(rng, 6)] * 2)
    fluct = stacked(random_fluctuation(rng, 3), random_fluctuation(rng, 3))
    with pytest.raises(ValueError):
        check_expansion(xs, fluct, [1])


@pytest.mark.parametrize("coords", [1, 2])
def test_expansion_rejects_a_short_background(coords):
    # one or two coordinates must not broadcast into all three
    rng = np.random.default_rng(13)
    xs = random_hermitian(rng, 8)
    with pytest.raises(ValueError, match="shape mismatch"):
        expansion(xs[:coords], random_fluctuation(rng, 4))


def test_quartic_direct_equal_fields_vanish():
    rng = np.random.default_rng(3)
    t = random_complex(rng, 1, 5, 5)[0]
    report = quartic(check_quartic_t, np.stack([t, t, t]))
    assert report["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert report["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_quartic_direct_rank_one_real_recorded_against_oracle():
    # the closed form does not reproduce the block trace even for rank-one
    # real fields; the oracle (explicit block assembly and trace) decides
    rng = np.random.default_rng(4)
    ts = [
        np.outer(rng.standard_normal(5), rng.standard_normal(5)).astype(complex)
        for _ in range(3)
    ]
    report = quartic(check_quartic_t, np.stack(ts))
    zero = np.zeros((5, 5), dtype=complex)
    oracle = 0.0
    for i in range(3):
        for j in range(3):
            ai = np.block([[zero, ts[i]], [ts[i].conj().T, zero]])
            aj = np.block([[zero, ts[j]], [ts[j].conj().T, zero]])
            comm = ai @ aj - aj @ ai
            oracle += np.trace(comm @ comm).real
    assert report["lhs"] == pytest.approx(oracle, rel=1e-12)
    assert report["verdict"] == VERDICT_RECORDED
    # measured: the forms disagree here
    assert not holds(report["residual"], PASS_TOL, report["lhs"], report["rhs"])


def test_quartic_direct_momentum_class_matches():
    report = quartic(check_quartic_t, momentum_fluct(6, 1.0, np.random.default_rng(5)))
    assert report["residual"] <= 1e-10 * max(1.0, abs(report["lhs"]))


def test_quartic_direct_generic_is_recorded():
    rng = np.random.default_rng(6)
    report = quartic(check_quartic_t, random_fluctuation(rng, 5), seed=6)
    assert report["verdict"] == VERDICT_RECORDED
    assert math.isfinite(report["lhs"]) and math.isfinite(report["rhs"])


def test_quartic_rotated_zero_fields():
    report = quartic(check_quartic_ttilde, zero_fluct(4))
    assert report["lhs"] == 0.0 and report["rhs"] == 0.0


def test_quartic_rotated_single_field_direction():
    # rotated-field configuration with only the unstable direction on:
    # closed form gives -4 t^4 dim, and the block trace agrees exactly
    dim = 6
    t_amp = 0.8
    tilde = np.array([t_amp * np.eye(dim), np.zeros((dim, dim)), np.zeros((dim, dim))])
    u = rotation_u()
    ts = [sum(u.conj().T[i, j] * tilde[j] for j in range(3)) for i in range(3)]
    report = quartic(check_quartic_ttilde, np.stack(ts))
    expected = -4.0 * t_amp**4 * dim
    assert report["rhs"] == pytest.approx(expected, rel=1e-12)
    assert report["lhs"] == pytest.approx(expected, rel=1e-12)
    assert holds(report["residual"], PASS_TOL, report["lhs"], report["rhs"])


def test_quartic_forms_compare_on_one_input():
    # both records of one input share the oracle, so the gap between the
    # forms is the gap between their rhs columns: measured apart on a generic draw
    rng = np.random.default_rng(8)
    fluct = random_fluctuation(rng, 5)
    report = quartic(check_quartic_ttilde, fluct, seed=8)
    direct = quartic(check_quartic_t, fluct, seed=8)
    assert report["lhs"] == direct["lhs"]
    assert not holds(abs(report["rhs"] - direct["rhs"]), PASS_TOL, report["rhs"], direct["rhs"])


def test_cross_terms_linear_always_exact():
    rng = np.random.default_rng(9)
    for theta in (0.0, 0.5, 1.2):
        xs = one_background(theta, 1.0, 5)
        generic, _, momentum, _ = cross_terms(
            xs, random_fluctuation(rng, 5), momentum_fluct(5, 1.0, rng)
        )
        for linear in (generic, momentum):
            assert linear["verdict"] == VERDICT_EXACT
            assert linear["residual"] <= 1e-13


def test_cross_terms_momentum_class():
    xs = one_background(0.9, 1.0, 6)
    rng = np.random.default_rng(10)
    momentum = momentum_fluct(6, 1.0, rng)
    *_, cubic = cross_terms(xs, random_fluctuation(rng, 6), momentum)
    assert cubic["verdict"] == VERDICT_PASS


def test_cross_terms_generic_recorded():
    xs = one_background(0.9, 1.0, 6)
    rng = np.random.default_rng(11)
    _, cubic, _, _ = cross_terms(xs, random_fluctuation(rng, 6), momentum_fluct(6, 1.0, rng))
    assert cubic["verdict"] == VERDICT_RECORDED


def test_cross_terms_dimension_mismatch():
    # either class of blocks must match the background
    xs = one_background(0.9, 1.0, 6)
    rng = np.random.default_rng(12)
    right, wrong = momentum_fluct(6, 1.0, rng), random_fluctuation(rng, 5)
    for generic, momentum in ((wrong, right), (right, wrong)):
        with pytest.raises(ValueError, match="do not match background"):
            cross_terms(xs, generic, momentum)


def test_cross_terms_reject_a_background_one_ulp_from_hermitian():
    # each commutator is formed as P - P^dag, which is [X_i, A_j] only for Hermitian X_i
    xs = one_background(0.9, 1.0, 6)
    rng = np.random.default_rng(14)
    generic, momentum = random_fluctuation(rng, 6), momentum_fluct(6, 1.0, rng)
    cross_terms(xs, generic, momentum)
    entry = xs[0, 0, 1]
    assert entry.imag != 0.0
    xs[0, 0, 1] = complex(entry.real, np.nextafter(entry.imag, math.inf))
    with pytest.raises(ValueError, match="not exactly Hermitian"):
        cross_terms(xs, generic, momentum)


#: residual, tolerance, the sides the bound scales with, and whether the residual holds
VERDICT_ROWS = [
    (0.5, 1.0, (0.2,), True),  # the bound is at least tol
    (2.0, 1e-10, (3e10, -1e9), True),  # scales count by magnitude
    (2.0, 1e-10, (1e10,), False),
    (0.0, 1e-10, (math.nan,), False),  # a NaN scale fails
    (math.nan, 1e-10, (1.0,), False),
    (math.inf, 1e-10, (1.0,), False),
    (math.inf, 1e-10, (math.inf,), False),  # inf <= tol * inf must not pass
    (1.0, 1e-10, (math.inf,), False),
    (0.0, 1e-10, (2.0, math.nan), False),  # also where max(2.0, nan) is 2.0
]


def _scale(sides):
    """The largest magnitude of a trial's sides, a NaN carried, as ``check_expansion`` forms it."""
    return np.maximum.reduce(np.abs(sides))


def _stack_holds(rows):
    """Each row's outcome from one ``_gated`` stack, its residual as lhs and 0 as rhs."""
    residuals, tols, scales = zip(*[(complex(r), t, _scale(s)) for r, t, s, _ in rows])
    count = len(rows)
    seeds, zeros, tols, scales = [None] * count, [0.0] * count, np.array(tols), np.array(scales)
    reports = _gated("expansion", 4, residuals, zeros, tols, scales, VERDICT_EXACT, seeds)
    return (reports["verdict"] == VERDICT_EXACT).tolist()


@pytest.mark.parametrize("residual,tol,scales,expected", VERDICT_ROWS)
def test_verdicts_fail_closed_on_non_finite_values(residual, tol, scales, expected):
    assert bool(Gate("residual", residual, tol * np.maximum(1.0, _scale(scales))).ok) is expected
    # the row as a stack of one, and within one stack of all nine
    assert _stack_holds([(residual, tol, scales, expected)]) == [expected]
    assert _stack_holds(VERDICT_ROWS) == [row[-1] for row in VERDICT_ROWS]


# ------------------------------------------------- per-pair identity oracle


def _pair_blocks(fluct):
    zero = np.zeros(fluct.shape[-2:], dtype=complex)
    return [np.block([[zero, t], [t.conj().T, zero]]) for t in fluct]


def _tr(x):
    return complex(np.trace(x))


def pairwise_expansion(xs, fluct):
    """``check_expansion`` one (i, j) pair at a time, with one ``commutator`` per product."""
    a = _pair_blocks(fluct)
    lhs = rhs = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            full = commutator(xs[i] + a[i], xs[j] + a[j])
            lhs += _tr(full @ full)
            k = commutator(xs[i], xs[j])
            l = commutator(xs[i], a[j])
            m = commutator(a[i], xs[j])
            nn = commutator(a[i], a[j])
            rhs += (
                _tr(k @ k)
                + 4.0 * _tr(k @ l)
                + 2.0 * _tr(k @ nn)
                + 2.0 * _tr(l @ (l + m))
                + 4.0 * _tr(l @ nn)
                + _tr(nn @ nn)
            )
    residual = abs(lhs - rhs)
    verdict = VERDICT_EXACT if holds(residual, PASS_TOL, lhs, rhs) else VERDICT_VIOLATED
    return [(lhs.real, rhs.real, residual, verdict)]


def pairwise_cross_terms(xs, fluct, momentum):
    """``check_cross_terms`` one (i, j) pair at a time, with per-pair scale lists."""
    a = _pair_blocks(fluct)
    linear = cubic = 0.0 + 0.0j
    scales_lin, scales_cub = [], []
    for i in range(3):
        for j in range(3):
            kx = commutator(xs[i], xs[j])
            la = commutator(xs[i], a[j])
            nn = commutator(a[i], a[j])
            linear += _tr(kx @ la)
            cubic += _tr(la @ nn)
            scales_lin.append(float(np.max(np.abs(kx))) * float(np.max(np.abs(la))))
            scales_cub.append(float(np.max(np.abs(la))) * float(np.max(np.abs(nn))))
    dim = xs.shape[-1]
    lin_ok = holds(abs(linear), EXACT_TOL, float(np.max(scales_lin)) * dim)
    if momentum:
        cub_ok = holds(abs(cubic), PASS_TOL, float(np.max(scales_cub)) * dim)
        cub_verdict = VERDICT_PASS if cub_ok else VERDICT_VIOLATED
    else:
        cub_verdict = VERDICT_RECORDED
    return [
        (linear.real, 0.0, abs(linear), VERDICT_EXACT if lin_ok else VERDICT_VIOLATED),
        (cubic.real, 0.0, abs(cubic), cub_verdict),
    ]


def _report_bits(reports):
    """Each row's lhs, rhs, residual and verdict, read as Python scalars by ``tolist``."""
    return _bits(row[3:] for row in reports.tolist())


def _bits(rows):
    """Rows with every float spelled out bit for bit (keeps the sign of zero)."""
    return [
        tuple((type(v), v.hex()) if isinstance(v, float) else v for v in row) for row in rows
    ]


def _with_nan(fluct):
    ts = fluct.copy()
    ts[0, 0, -1] = math.nan
    return ts


# kinds of expansion draw: generic (weighted), zero background, zero
# fluctuation, real background, and a NaN entry in one fluctuation block
EXPANSION_KINDS = ("generic", "generic", "generic", "zero-x", "zero-a", "real-x", "nan")


def _expansion_draw(rng, dim, kind, real):
    """One trial's background stack and fluctuation; a real background if ``real``."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if real:
        xs = scale * rng.standard_normal((3, 2 * dim, 2 * dim))
    else:
        xs = scale * random_hermitian(rng, 2 * dim)
    if kind == "zero-x":
        xs = np.zeros_like(xs)
    fluct = zero_fluct(dim) if kind == "zero-a" else random_fluctuation(rng, dim)
    return xs, _with_nan(fluct) if kind == "nan" else fluct


def _assert_nan_stays_in_its_trial(kinds, reports):
    # the batch holds a NaN trial; every other trial's verdict is its own
    assert "nan" in kinds
    for kind, trial_reports in zip(kinds, reports.reshape(len(kinds), -1), strict=True):
        if kind != "nan":
            rows = trial_reports[["lhs", "verdict"]].tolist()
            assert all(math.isfinite(lhs) and verdict != VERDICT_VIOLATED for lhs, verdict in rows)


# draws 0-174 are one trial each; from 175 on, one stacked batch of every
# kind at one dimension, whose backgrounds are all real on every third draw
@pytest.mark.parametrize("draw", range(200))
def test_expansion_matches_per_pair_oracle_bitwise(draw):
    rng = np.random.default_rng(20031005 + draw)
    dim = 2 + draw % 15
    if draw < 175:
        kinds = [EXPANSION_KINDS[draw % len(EXPANSION_KINDS)]]
    else:
        kinds = list(rng.permutation(EXPANSION_KINDS))
    real = draw >= 175 and draw % 3 == 0
    draws = [_expansion_draw(rng, dim, kind, real or kind == "real-x") for kind in kinds]
    xs = np.stack([x for x, _ in draws])
    seeds = list(range(draw, draw + len(kinds)))
    reports = check_expansion(xs, stacked(*[f for _, f in draws]), seeds)
    assert reports["seed"].tolist() == seeds
    for t, (_, fluct) in enumerate(draws):
        assert _report_bits(reports[t : t + 1]) == _bits(pairwise_expansion(xs[t], fluct))
    if len(kinds) > 1:
        _assert_nan_stays_in_its_trial(kinds, reports)


# draws 0-49 are one trial each; from 50 on, one stacked batch of five
# trials at one dimension, each on its own background, one of them with a NaN.
# Every trial has generic and momentum blocks, zeroed or given a NaN together
@pytest.mark.parametrize("draw", range(70))
def test_cross_terms_match_per_pair_oracle_bitwise(draw):
    rng = np.random.default_rng(20240817 + draw)
    n = 4 + draw % 13
    if draw < 50:
        kinds = [("generic", "generic", "zero", "generic", "nan")[draw % 5]]
    else:
        kinds = list(rng.permutation(["generic", "generic", "zero", "nan", "generic"]))
    bgs, classes = [], ([], [])
    for kind in kinds:
        theta, z2 = float(rng.uniform(0.0, 1.5)), 10.0 ** rng.uniform(-3.0, 3.0)
        for flucts, fluct in zip(classes, (random_fluctuation(rng, n), momentum_fluct(n, z2, rng))):
            if kind == "zero":
                fluct = zero_fluct(n)
            elif kind == "nan":
                fluct = _with_nan(fluct)
            flucts.append(fluct)
        bgs.append(one_background(theta, z2, n))
    reports = check_cross_terms(np.stack(bgs), *map(np.stack, classes))
    assert len(reports) == 4 * len(kinds)
    # trial-major: each trial's generic linear and cubic rows, then its momentum ones
    for momentum, flucts in enumerate(classes):
        class_reports = reports.reshape(len(kinds), 2, 2)[:, momentum]
        for t, (bg, fluct) in enumerate(zip(bgs, flucts)):
            expected = pairwise_cross_terms(bg, fluct, momentum)
            assert _report_bits(class_reports[t]) == _bits(expected)
        if len(kinds) > 1:
            _assert_nan_stays_in_its_trial(kinds, class_reports)


@pytest.mark.parametrize(
    "dtype,field,names",
    [(RECORD, "identity", IDENTITIES), (RECORD, "verdict", VERDICTS), (MODES, "sector", SECTORS)],
)
def test_string_fields_hold_every_name_whole(dtype, field, names):
    # numpy cuts a string longer than its field without a word
    rows = np.empty(len(names), dtype)
    rows[field] = names
    assert rows[field].tolist() == list(names)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_one_draw_per_stack_matches_the_per_matrix_draws_bitwise(n):
    # a (3, 2, n, n) draw is the six n x n draws of three matrices in order
    one, per_matrix = np.random.default_rng(n), np.random.default_rng(n)
    pairs = [
        (random_complex(one, 3, n, n), [random_complex_matrix(per_matrix, n) for _ in range(3)]),
        (random_hermitian(one, n), [random_hermitian_matrix(per_matrix, n) for _ in range(3)]),
        (
            random_complex(one, 3, 4),
            [per_matrix.standard_normal(4) + 1j * per_matrix.standard_normal(4) for _ in range(3)],
        ),
    ]
    # an expansion trial's one draw: its background, then its blocks
    xs, ts = expansion_draws([one], n)
    pairs += [
        (xs[0], [random_hermitian_matrix(per_matrix, 2 * n) for _ in range(3)]),
        (ts[0], [random_complex_matrix(per_matrix, n) for _ in range(3)]),
    ]
    for got, expected in pairs:
        expected = np.stack(expected)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    # both generators are left at the same state
    assert one.standard_normal() == per_matrix.standard_normal()


# draws 0-49 are one fluctuation each; from 50 on, a stack of three trials
@pytest.mark.parametrize("draw", range(60))
def test_block_matrices_match_per_block_assembly_bitwise(draw):
    rng = np.random.default_rng(20260117 + draw)
    n = 1 + draw % 12
    flucts = []
    for k in range(1 if draw < 50 else 3):
        if (draw + k) % 5 == 2:
            flucts.append(zero_fluct(n))
        elif (draw + k) % 5 == 4:
            flucts.append(_with_nan(random_fluctuation(rng, n)))
        else:
            flucts.append(random_fluctuation(rng, n))
    expected = np.stack([np.stack(_pair_blocks(f)) for f in flucts])
    fluct = stacked(*flucts)
    if draw < 50:
        fluct, expected = flucts[0], expected[0]
    got = block_matrices(fluct)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("draw", range(20))
def test_momentum_polynomial_matches_the_per_coefficient_sum_bitwise(draw):
    rng = np.random.default_rng(20260301 + draw)
    theta, z2 = float(rng.uniform(0.0, 1.5)), 10.0 ** rng.uniform(-3.0, 3.0)
    n = 4 + draw % 13
    _, p = make_qp(n, z2)
    seeds = range(draw, draw + 1 + draw % 3)  # one to three generators
    got = momentum_polynomial_fluctuation(p, [np.random.default_rng(s) for s in seeds])
    assert got.shape == (len(seeds), 3, n, n)
    # each block's cubic in P, its terms added to 0 in order, from one draw per part
    powers = [np.eye(n, dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ p)
    for blocks, seed in zip(got, seeds):
        per_part = np.random.default_rng(seed)
        coeffs = [per_part.standard_normal(4) + 1j * per_part.standard_normal(4) for _ in range(3)]
        expected = np.stack([sum(c * p for c, p in zip(cs, powers)) for cs in coeffs])
        assert blocks.tobytes() == expected.tobytes()


def _peak_bytes(call):
    """The ``tracemalloc`` peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_momentum_polynomial_keeps_no_stack_of_powers():
    # four powers and the (3, n, n) sum: the (3, 4, n, n) terms stack read 20 n^2 entries
    n = 400
    _, p = make_qp(n, 1.3)
    peak = _peak_bytes(lambda: momentum_polynomial_fluctuation(p, [np.random.default_rng(0)]))
    assert peak < 12 * n * n * 16


# the fluctuation classes ``cmd_identities`` checks the quartic forms on
QUARTIC_CLASSES = ("equal", "rank-one", "momentum-polynomial", "generic", "zero")


def _quartic_draw(draw):
    """One draw's blocks T_i: each class at N 1-60 (4-60 for momentum), scale 10^+-3."""
    rng = np.random.default_rng(20261019 + draw)
    kind, n = QUARTIC_CLASSES[draw % 5], 1 + draw // 5 % 60
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "momentum-polynomial":
        rng.uniform(0.0, 1.5)  # the background's angle, which P does not depend on
        return momentum_fluct(max(n, 4), scale, rng)
    if kind == "equal":
        ts = random_complex(rng, 1, n, n)[[0, 0, 0]]
    elif kind == "rank-one":
        ts = np.stack([np.outer(*rng.standard_normal((2, n))) for _ in range(3)]).astype(complex)
    elif kind == "generic":
        ts = random_complex(rng, 3, n, n)
    else:
        ts = np.zeros((3, n, n), dtype=complex)
    return scale * ts


@pytest.mark.parametrize("draw", range(300))
def test_quartic_block_trace_matches_the_dense_nine_commutator_trace(draw):
    # each Tr [A_i, A_j]^2 is -||[A_i, A_j]||_F^2, so the sum cannot cancel
    ts = _quartic_draw(draw)
    block, dense = _quartic_traces(ts)[0], dense_quartic_block_trace(ts)
    assert abs(block - dense) <= 1e-14 * abs(dense)
    assert block.real <= 0.0


def test_quartic_block_trace_forms_no_doubled_matrix():
    # the dense 2N x 2N matrices and their commutators read 24 n^2 entries
    n = 400
    fluct = random_fluctuation(np.random.default_rng(0), n)
    assert _peak_bytes(lambda: check_quartic_t(fluct)) <= 8 * n * n * 16
