"""Randomized and exact checks of the block-matrix trace identities.

Two of the identities are pure algebra and must hold for every input: the
commutator-square expansion, and the vanishing of the linear cross term
(a block-off-diagonal matrix has zero trace).  The two quartic-trace
formulas are claims under test: each is evaluated against the direct block
trace and the result is recorded, never assumed.
"""

from __future__ import annotations

import numpy as np

from .background import block_matrices, validate_blocks
from .config import Gate
from .spectrum import rotation_u

VERDICT_EXACT = "exact"
VERDICT_PASS = "pass"
VERDICT_RECORDED = "recorded"
VERDICT_VIOLATED = "violated"
VERDICTS = (VERDICT_EXACT, VERDICT_PASS, VERDICT_RECORDED, VERDICT_VIOLATED)

EXPANSION, CROSS_LINEAR, CROSS_CUBIC = "expansion", "cross-linear", "cross-cubic"
QUARTIC_DIRECT, QUARTIC_ROTATED = "quartic-direct", "quartic-rotated"
IDENTITIES = (EXPANSION, CROSS_LINEAR, CROSS_CUBIC, QUARTIC_DIRECT, QUARTIC_ROTATED)

EXACT_TOL = 1e-13
PASS_TOL = 1e-10

#: A row of an ``identities`` report, one identity evaluated on one input; a seed
#: is an int or None, and a string field is as wide as the longest of its names.
_STRINGS = [np.array(names).dtype for names in (IDENTITIES, VERDICTS)]
RECORD = np.dtype(
    {
        "names": ("identity", "seed", "dim", "lhs", "rhs", "residual", "verdict"),
        "formats": (_STRINGS[0], object, int, float, float, float, _STRINGS[1]),
    }
)


#: The pairs (i, j), i != j, in the per-pair loop's order, which each sum over them keeps;
#: the pairs i < j, whose commutators serve (j, i) too; and the sign that turns each pair's
#: commutator i < j into its own, as [x_j, x_i] = -[x_i, x_j].
_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_UPPER = ((0, 1), (0, 2), (1, 2))
_SIGN = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def _commutator(x: np.ndarray, y: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """[x, y] of two (..., n, n) stacks; of Hermitian ones as P - P^dag from one product P = x y."""
    p = x @ y
    p -= p.conj().swapaxes(-1, -2) if hermitian else y @ x
    return p


def _traces(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1)


def _sum(values: np.ndarray) -> list[complex]:
    """Each trial's (T, 6) pair values added in pair order to +0.

    That sum, like the per-pair loop's Python complex, never becomes -0, so the
    exact zeros of the pairs i = j would leave it unchanged.
    """
    total = 0j
    for column in values.T:
        total = total + column
    return total.tolist()


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=(-2, -1))


def _rows(identity: str, dim: int, lhs: list, rhs: list, verdict: str, seeds=None) -> np.ndarray:
    """A ``RECORD`` per trial: real parts, complex |lhs - rhs|, each trial's seed or one for all."""
    rows = np.empty(len(lhs), RECORD)
    rows["identity"], rows["seed"], rows["dim"], rows["verdict"] = identity, seeds, dim, verdict
    rows["lhs"], rows["rhs"] = np.real(lhs), np.real(rhs)
    rows["residual"] = [abs(left - right) for left, right in zip(lhs, rhs)]
    return rows


def _gated(
    identity: str, dim: int, lhs: list, rhs: list, tol: float, scales, holds: str, seeds=None
) -> np.ndarray:
    """Per trial ``holds`` where |lhs - rhs| <= tol * max(1, scale), else violated: one ``Gate``.

    ``np.maximum`` carries a NaN scale into the bound, and ``Gate`` fails a bound
    that is not finite, so neither a NaN scale nor an infinite residual passes.
    """
    rows = _rows(identity, dim, lhs, rhs, holds, seeds)
    ok = Gate(identity, rows["residual"], tol * np.maximum(1.0, scales)).ok
    rows["verdict"][~ok] = VERDICT_VIOLATED
    return rows


def random_complex(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """``count`` arrays of ``shape`` from one draw, each its real part, then its imaginary part."""
    g = rng.standard_normal((count, 2, *shape))
    return g[:, 0] + 1j * g[:, 1]


def random_fluctuation(rng: np.random.Generator, n: int) -> np.ndarray:
    return random_complex(rng, 3, n, n)


def expansion_draws(rngs: list[np.random.Generator], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each generator's backgrounds X_i, the Hermitian parts of 2n x 2n ``random_complex`` draws,
    then its blocks T_i, n x n, from one draw; stacked as (T, 3, 2n, 2n) and (T, 3, n, n)."""
    g = np.stack([rng.standard_normal(30 * n * n) for rng in rngs])
    xs = g[:, : 24 * n * n].reshape(-1, 3, 2, 2 * n, 2 * n)
    ts = g[:, 24 * n * n :].reshape(-1, 3, 2, n, n)
    xs, ts = (x[:, :, 0] + 1j * x[:, :, 1] for x in (xs, ts))
    return (xs + xs.conj().swapaxes(-1, -2)) / 2.0, ts


def momentum_polynomial_fluctuation(p: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """Blocks T_1, T_2, T_3, (T, 3, N, N), each a complex cubic polynomial of the N x N relative P.

    One stack per generator, all from one set of powers.
    """
    powers = [np.eye(p.shape[-1], dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ p)
    coeffs = np.stack([random_complex(rng, 3, 4) for rng in rngs])[..., None, None]
    return sum(coeffs[:, :, k] * powers[k] for k in range(4))


def check_expansion(xs: np.ndarray, ts: np.ndarray, seeds: list[int | None]) -> np.ndarray:
    """Expand Tr[(X_i+A_i),(X_j+A_j)]^2 and compare term by term, one ``RECORD`` per trial.

    xs stacks the trials' backgrounds as (T, 3, 2N, 2N), ts their blocks T_i as (T, 3, N, N).
    Each product is formed once: the pairs i = j add exact zeros, and a term of i > j is that
    of j < i or its negation.  Holds for every input; a violation beyond rounding is reported.
    """
    a = block_matrices(ts)
    if xs.ndim != 4 or xs.shape != a.shape:
        raise ValueError(f"background/fluctuation shape mismatch: {xs.shape} vs {a.shape}")
    if len(seeds) != len(ts):
        raise ValueError(f"{len(seeds)} seeds for {len(ts)} trials")
    xa = xs + a
    terms = np.empty((7, len(ts), 6), complex)  # the lhs, then the rhs's terms; trial, pair
    for i, j in _UPPER:
        k, nn, full = (_commutator(x[:, i], x[:, j]) for x in (xs, a, xa))
        l = _commutator(xs[:, i], a[:, j]), _commutator(xs[:, j], a[:, i])
        shared = _traces(full @ full), _traces(k @ k), 2.0 * _traces(k @ nn), _traces(nn @ nn)
        for s, own, other in (_PAIRS.index((i, j)), *l), (_PAIRS.index((j, i)), *l[::-1]):
            terms[:, :, s] = (
                shared[0],
                shared[1],
                4.0 * _SIGN[s] * _traces(k @ own),
                shared[2],
                2.0 * _traces(own @ (own - other)),  # [A_i, X_j] is -[X_j, A_i]
                4.0 * _SIGN[s] * _traces(own @ nn),
                shared[3],
            )
    lhs = _sum(terms[0])
    rhs = _sum(terms[1] + terms[2] + terms[3] + terms[4] + terms[5] + terms[6])
    scales = np.maximum([abs(v) for v in lhs], [abs(v) for v in rhs])
    return _gated(EXPANSION, ts.shape[-1], lhs, rhs, PASS_TOL, scales, VERDICT_EXACT, seeds)


def _quartic_traces(ts: np.ndarray) -> tuple[complex, complex]:
    """The direct oracle and the unrotated-field closed form, from the same blocks.

    The oracle is the sum over i,j of Tr [A_i, A_j][A_i, A_j], A_i = [[0, T_i], [T_i^dag, 0]].
    [A_i, A_j] is block-diagonal, with blocks D = T_i T_j^dag - T_j T_i^dag and
    T_i^dag T_j - T_j^dag T_i.  The pairs i = j add zero and (j, i) repeats
    (i, j), so the sum is twice both blocks' traces over the pairs i < j.
    Summed as numpy scalars, so a sum past the float range raises, not inf.
    The closed form is 4 sum_{i<j} Tr D^2.
    """
    total, direct = np.complex128(0.0), 0.0 + 0.0j
    for i, j in ((0, 1), (0, 2), (1, 2)):
        upper = ts[i] @ ts[j].conj().T - ts[j] @ ts[i].conj().T
        lower = ts[i].conj().T @ ts[j] - ts[j].conj().T @ ts[i]
        square = np.trace(upper @ upper)
        total += square + np.trace(lower @ lower)
        direct += 4.0 * complex(square)
    return complex(2.0 * total), direct


def check_quartic_t(ts: np.ndarray, seed: int | None = None) -> np.ndarray:
    """Quartic trace in the unrotated fields, against the block-trace oracle.

    rhs follows the stated closed form
    4[(T1 T2^dag - T2 T1^dag)^2 + (T1 T3^dag - T3 T1^dag)^2 + (T2 T3^dag - T3 T2^dag)^2]
    taken literally; its one ``RECORD`` records how it compares.
    """
    validate_blocks(ts)
    lhs, rhs = _quartic_traces(ts)
    return _rows(QUARTIC_DIRECT, ts.shape[-1], [lhs], [rhs], VERDICT_RECORDED, seed)


def check_quartic_ttilde(ts: np.ndarray, seed: int | None = None) -> np.ndarray:
    """Quartic trace in the rotated fields, against the same oracle.

    Rotates the fields and evaluates the stated rotated-field closed form
    -4[(Tt1^dag Tt1 + Tt2^dag Tt2)^2 + 2(Tt1^dag Tt3 - Tt3^dag Tt1)(Tt2^dag Tt3 - Tt3^dag Tt2)].
    In an ``identities`` report this record follows the ``check_quartic_t``
    record of the same input, so the two forms compare row by row.
    """
    validate_blocks(ts)
    lhs, _ = _quartic_traces(ts)
    u = rotation_u()
    tt = [sum(u[i, j] * ts[j] for j in range(3)) for i in range(3)]
    quad = tt[0].conj().T @ tt[0] + tt[1].conj().T @ tt[1]
    cross1 = tt[0].conj().T @ tt[2] - tt[2].conj().T @ tt[0]
    cross2 = tt[1].conj().T @ tt[2] - tt[2].conj().T @ tt[1]
    rhs = -4.0 * (complex(np.trace(quad @ quad)) + 2.0 * complex(np.trace(cross1 @ cross2)))
    return _rows(QUARTIC_ROTATED, ts.shape[-1], [lhs], [rhs], VERDICT_RECORDED, seed)


def check_cross_terms(xs: np.ndarray, generic: np.ndarray, momentum: np.ndarray) -> np.ndarray:
    """Cross terms between background and fluctuation, stacked as for ``check_expansion``.

    The linear term sum Tr[X_i,X_j][X_i,A_j] vanishes exactly at finite
    dimension (the integrand is block-off-diagonal).  The cubic term
    sum Tr[X_i,A_j][A_i,A_j] is asserted at the pass tolerance only for the
    ``momentum`` blocks, built from the relative momentum; for the ``generic``
    ones it is recorded without a claim.  Both are (T, 3, N, N) stacks on the
    backgrounds xs.  Returns four ``RECORD``s per trial, in trial order: the
    generic blocks' linear and cubic terms, then the momentum blocks'.  Each
    commutator is P - P^dag of one product P, so a background that is not
    exactly Hermitian (a NaN entry included) is a ``ValueError``.
    """
    for ts in (generic, momentum):
        validate_blocks(ts)
        if xs.ndim != 4 or xs.shape != (*ts.shape[:-2], 2 * ts.shape[-1], 2 * ts.shape[-1]):
            raise ValueError(f"fluctuation blocks {ts.shape} do not match background {xs.shape}")
    if not np.array_equal(xs, xs.conj().swapaxes(-1, -2)):
        raise ValueError("background is not exactly Hermitian")
    # generic or momentum, trial, ...: each operand is Hermitian, so each commutator is P - P^dag
    a = block_matrices(np.stack((generic, momentum)))
    n, dim, count = generic.shape[-1], xs.shape[-1], len(xs)
    # linear or cubic, class, trial, pair: each term, and its commutators' max |entry| product
    terms, scales = np.empty((2, 2, count, 6), complex), np.empty((2, 2, count, 6))
    for i, j in _UPPER:
        kx = _commutator(xs[:, i], xs[:, j], hermitian=True)
        nn = _commutator(a[:, :, i], a[:, :, j], hermitian=True)
        kx_max, nn_max = _max_abs(kx), _max_abs(nn)
        for p, q in (i, j), (j, i):
            s, la = _PAIRS.index((p, q)), _commutator(xs[:, p], a[:, :, q], hermitian=True)
            # np.trace, as np.einsum returns inf where np.errstate(over="raise") should raise
            terms[..., s] = _SIGN[s] * _traces(kx @ la), _SIGN[s] * _traces(la @ nn)
            la_max = _max_abs(la)
            scales[..., s] = kx_max * la_max, la_max * nn_max
    # both classes at once, the generic trials, then the momentum ones
    (linear, cubic), zeros = (_sum(t.reshape(-1, 6)) for t in terms), [0.0] * 2 * count
    lin_scales, cub_scales = scales.reshape(2, 2 * count, 6).max(axis=-1) * dim
    rows = np.empty((2, 2 * count), RECORD)  # linear or cubic, class and trial
    rows[0] = _gated(CROSS_LINEAR, n, linear, zeros, EXACT_TOL, lin_scales, VERDICT_EXACT)
    rows[1, :count] = _rows(CROSS_CUBIC, n, cubic[:count], zeros[:count], VERDICT_RECORDED)
    rows[1, count:] = _gated(
        CROSS_CUBIC, n, cubic[count:], zeros[count:], PASS_TOL, cub_scales[count:], VERDICT_PASS
    )
    return rows.reshape(2, 2, count).transpose(2, 1, 0).ravel()
