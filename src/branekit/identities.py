"""Randomized and exact checks of the block-matrix trace identities.

Two of the identities are pure algebra and must hold for every input: the
commutator-square expansion, and the vanishing of the linear cross term
(a block-off-diagonal matrix has zero trace).  The two quartic-trace
formulas are claims under test: each is evaluated against the direct block
trace and the result is recorded, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import block_matrices, validate_blocks
from .config import Gate
from .spectrum import rotation_u

VERDICT_EXACT = "exact"
VERDICT_PASS = "pass"
VERDICT_RECORDED = "recorded"
VERDICT_VIOLATED = "violated"

EXACT_TOL = 1e-13
PASS_TOL = 1e-10


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity evaluation on one input."""

    identity: str
    seed: int | None
    dim: int
    lhs: float
    rhs: float
    residual: float
    verdict: str


#: The pairs (i, j), i != j, in the per-pair loop's order.  For each pair: where
#: (j, i) is, where its pair with i < j is, and the sign that turns a commutator
#: within one stack at that pair into its own, as [x_j, x_i] = -[x_i, x_j].
_I, _J, _SWAP, _SYM = [0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1], [2, 4, 0, 5, 1, 3], [0, 1, 0, 2, 1, 2]
_SIGN = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def _upper(x: np.ndarray) -> np.ndarray:
    """[x_i, x_j], i < j, of a (..., 3, n, n) stack, from one product x_i x_j per pair i != j."""
    p = x[..., _I, :, :] @ x[..., _J, :, :]
    return p[..., [0, 1, 3], :, :] - p[..., [2, 4, 5], :, :]


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x_i, y_j] for the pairs i != j of two (..., 3, n, n) stacks."""
    xi, yj = x[..., _I, :, :], y[..., _J, :, :]
    return xi @ yj - yj @ xi


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


def _report(
    identity: str, seed: int | None, dim: int, lhs: complex, rhs: complex, verdict: str
) -> IdentityReport:
    """The real parts of both sides and the complex residual |lhs - rhs|."""
    return IdentityReport(identity, seed, dim, lhs.real, rhs.real, abs(lhs - rhs), verdict)


def _gated(
    identity: str, seeds: list, dim: int, lhs: list, rhs: list, tol: float, scales, holds: str
) -> tuple[IdentityReport, ...]:
    """Per trial ``holds`` where |lhs - rhs| <= tol * max(1, scale), else violated: one ``Gate``.

    ``np.maximum`` carries a NaN scale into the bound, and ``Gate`` fails a bound
    that is not finite, so neither a NaN scale nor an infinite residual passes.
    """
    residuals = [abs(left - right) for left, right in zip(lhs, rhs)]
    ok = Gate(identity, np.array(residuals), tol * np.maximum(1.0, scales)).ok.tolist()
    verdicts = [holds if k else VERDICT_VIOLATED for k in ok]
    rows = zip(seeds, lhs, rhs, residuals, verdicts, strict=True)
    return tuple(IdentityReport(identity, s, dim, l.real, r.real, res, v) for s, l, r, res, v in rows)


def random_complex(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """``count`` arrays of ``shape`` from one draw, each its real part, then its imaginary part."""
    g = rng.standard_normal((count, 2, *shape))
    return g[:, 0] + 1j * g[:, 1]


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, 3, n, n)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def random_fluctuation(rng: np.random.Generator, n: int) -> np.ndarray:
    return random_complex(rng, 3, n, n)


def momentum_polynomial_fluctuation(p: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """Blocks T_1, T_2, T_3, (T, 3, N, N), each a complex cubic polynomial of the N x N relative P.

    One stack per generator, all from one set of powers.
    """
    powers = [np.eye(p.shape[-1], dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ p)
    coeffs = np.stack([random_complex(rng, 3, 4) for rng in rngs])[..., None, None]
    return sum(coeffs[:, :, k] * powers[k] for k in range(4))


def check_expansion(
    xs: np.ndarray, ts: np.ndarray, seeds: list[int | None]
) -> tuple[IdentityReport, ...]:
    """Expand Tr[(X_i+A_i),(X_j+A_j)]^2 and compare term by term, one report per trial.

    xs stacks the trials' backgrounds as (T, 3, 2N, 2N), ts their blocks T_i as (T, 3, N, N).
    Each product is formed once: the pairs i = j add exact zeros, and a term of i > j is that
    of j < i or its negation.  Holds for every input; a violation beyond rounding is reported.
    """
    a = block_matrices(ts)
    if xs.ndim != 4 or xs.shape != a.shape:
        raise ValueError(f"background/fluctuation shape mismatch: {xs.shape} vs {a.shape}")
    k, nn, full, l = _upper(xs), _upper(a), _upper(xs + a), _cross(xs, a)
    lhs = _sum(_traces(full @ full)[..., _SYM])
    rhs = _sum(
        _traces(k @ k)[..., _SYM]
        + 4.0 * _SIGN * _traces(k[..., _SYM, :, :] @ l)
        + 2.0 * _traces(k @ nn)[..., _SYM]
        + 2.0 * _traces(l @ (l - l[..., _SWAP, :, :]))  # [A_i, X_j] is -[X_j, A_i]
        + 4.0 * _SIGN * _traces(l @ nn[..., _SYM, :, :])
        + _traces(nn @ nn)[..., _SYM]
    )
    scales = np.maximum([abs(v) for v in lhs], [abs(v) for v in rhs])
    return _gated("expansion", seeds, ts.shape[-1], lhs, rhs, PASS_TOL, scales, VERDICT_EXACT)


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


def check_quartic_t(ts: np.ndarray, seed: int | None = None) -> IdentityReport:
    """Quartic trace in the unrotated fields, against the block-trace oracle.

    rhs follows the stated closed form
    4[(T1 T2^dag - T2 T1^dag)^2 + (T1 T3^dag - T3 T1^dag)^2 + (T2 T3^dag - T3 T2^dag)^2]
    taken literally; the report records how it compares.
    """
    validate_blocks(ts)
    lhs, rhs = _quartic_traces(ts)
    return _report("quartic-direct", seed, ts.shape[-1], lhs, rhs, VERDICT_RECORDED)


def check_quartic_ttilde(ts: np.ndarray, seed: int | None = None) -> IdentityReport:
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
    return _report("quartic-rotated", seed, ts.shape[-1], lhs, rhs, VERDICT_RECORDED)


def check_cross_terms(
    xs: np.ndarray, generic: np.ndarray, momentum: np.ndarray
) -> tuple[IdentityReport, ...]:
    """Cross terms between background and fluctuation, stacked as for ``check_expansion``.

    The linear term sum Tr[X_i,X_j][X_i,A_j] vanishes exactly at finite
    dimension (the integrand is block-off-diagonal).  The cubic term
    sum Tr[X_i,A_j][A_i,A_j] is asserted at the pass tolerance only for the
    ``momentum`` blocks, built from the relative momentum; for the ``generic``
    ones it is recorded without a claim.  Both are (T, 3, N, N) stacks on the
    backgrounds xs.  Returns each generic trial's linear and cubic reports,
    then each momentum trial's.
    """
    blocks = []
    for ts in (generic, momentum):
        blocks.append(block_matrices(ts))
        if xs.ndim != 4 or xs.shape != blocks[-1].shape:
            raise ValueError(f"fluctuation blocks {ts.shape} do not match background {xs.shape}")
    kx = _upper(xs)
    kx_max, n, dim = _max_abs(kx)[..., _SYM], generic.shape[-1], xs.shape[-1]
    reports = []
    for a, asserted in zip(blocks, (False, True)):
        la, nn = _cross(xs, a), _upper(a)
        linear = _sum(_SIGN * _traces(kx[..., _SYM, :, :] @ la))
        cubic = _sum(_SIGN * _traces(la @ nn[..., _SYM, :, :]))
        la_max, seeds, zeros = _max_abs(la), [None] * len(linear), [0.0] * len(linear)
        lin_scales = (kx_max * la_max).max(axis=-1) * dim
        lin = _gated("cross-linear", seeds, n, linear, zeros, EXACT_TOL, lin_scales, VERDICT_EXACT)
        if asserted:
            cub_scales = (la_max * _max_abs(nn)[..., _SYM]).max(axis=-1) * dim
            cub = _gated("cross-cubic", seeds, n, cubic, zeros, PASS_TOL, cub_scales, VERDICT_PASS)
        else:
            cub = [_report("cross-cubic", None, n, v, 0.0, VERDICT_RECORDED) for v in cubic]
        reports += [report for pair in zip(lin, cub) for report in pair]
    return tuple(reports)
