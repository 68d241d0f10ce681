"""Randomized and exact checks of the block-matrix trace identities.

Two of the identities are pure algebra and must hold for every input: the
commutator-square expansion, and the vanishing of the linear cross term
(a block-off-diagonal matrix has zero trace).  The two quartic-trace
formulas are claims under test: each is evaluated against the direct block
trace and the result is recorded, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .background import BraneBackground, OffDiagonalFluctuation
from .oscillator import commutator
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
    extra: tuple[tuple[str, float], ...] = ()


def _tr(x: np.ndarray) -> complex:
    return complex(np.trace(x))


def _pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The nine commutators [x_i, y_j] of two (3, n, n) stacks, as a (3, 3, n, n) array."""
    return x[:, None] @ y[None] - y[None] @ x[:, None]


def _trace_sum(*terms: np.ndarray) -> complex:
    """Sum of the terms' traces over the nine (i, j) pairs, in the per-pair loop's order.

    Each pair adds its traces left to right, and the pairs accumulate in (i, j)
    order into a Python complex.  A power-of-two factor on a term scales its
    trace exactly, so it may sit on the matrix instead of the trace.
    """
    traces = [np.trace(term, axis1=2, axis2=3) for term in terms]
    total = 0.0 + 0.0j
    for value in sum(traces[1:], traces[0]).ravel().tolist():
        total += value
    return total


def _scale(x: np.ndarray, y: np.ndarray) -> float:
    """Largest max|x_ij| * max|y_ij| over the pairs, as Python floats: past the range is inf."""
    x_max, y_max = (np.abs(c).max(axis=(2, 3)).ravel().tolist() for c in (x, y))
    return float(np.max([a * b for a, b in zip(x_max, y_max)]))


def _holds(residual: float, tol: float, *scales: complex) -> bool:
    """Whether residual <= tol * max(1, |scales|), failing on anything non-finite.

    ``np.max`` keeps a NaN scale, and a bound that is not finite fails, so an
    infinite residual cannot pass an infinite bound.
    """
    bound = tol * float(np.max([1.0, *(abs(v) for v in scales)]))
    return math.isfinite(bound) and residual <= bound


def _agree(lhs: complex, rhs: complex) -> bool:
    """Whether |lhs - rhs| <= PASS_TOL * max(1, |lhs|, |rhs|)."""
    return _holds(abs(lhs - rhs), PASS_TOL, lhs, rhs)


def _report(
    identity: str, seed: int | None, dim: int, lhs: complex, rhs: complex, verdict: str, extra=()
) -> IdentityReport:
    """The real parts of both sides and the complex residual |lhs - rhs|."""
    return IdentityReport(identity, seed, dim, lhs.real, rhs.real, abs(lhs - rhs), verdict, extra)


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard-normal real and imaginary parts, independently."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


def random_fluctuation(rng: np.random.Generator, n: int) -> OffDiagonalFluctuation:
    return OffDiagonalFluctuation(np.stack([random_complex(rng, n) for _ in range(3)]))


def momentum_polynomial_fluctuation(
    bg: BraneBackground, rng: np.random.Generator
) -> OffDiagonalFluctuation:
    """Fluctuation whose blocks are complex cubic polynomials of the relative P."""
    powers = [np.eye(bg.n_levels, dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ bg.p_rel)
    coeffs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    blocks = [sum(c * p for c, p in zip(cs, powers)) for cs in coeffs]
    return OffDiagonalFluctuation(np.stack(blocks))


def check_expansion(
    xs: np.ndarray, fluct: OffDiagonalFluctuation, seed: int | None = None
) -> IdentityReport:
    """Expand Tr[(X_i+A_i),(X_j+A_j)]^2 and compare term by term.

    xs is the (3, 2N, 2N) background stack.  Holds for every input; a
    violation beyond rounding is reported as such.
    """
    a = fluct.block_matrices()
    if xs.shape != a.shape:
        raise ValueError(f"background/fluctuation shape mismatch: {xs.shape} vs {a.shape}")
    full = _pairs(xs + a, xs + a)
    k, l, m, nn = _pairs(xs, xs), _pairs(xs, a), _pairs(a, xs), _pairs(a, a)
    lhs = _trace_sum(full @ full)
    rhs = _trace_sum(
        k @ k, 4.0 * (k @ l), 2.0 * (k @ nn), 2.0 * (l @ (l + m)), 4.0 * (l @ nn), nn @ nn
    )
    verdict = VERDICT_EXACT if _agree(lhs, rhs) else VERDICT_VIOLATED
    return _report("expansion", seed, fluct.dim, lhs, rhs, verdict)


def _quartic_block_trace(fluct: OffDiagonalFluctuation) -> complex:
    """Direct oracle: sum over i,j of Tr [A_i, A_j][A_i, A_j].

    One pair at a time: ``identities`` calls it at N // 4 levels, where nine
    stacked commutators would more than double the peak memory.
    """
    a_mats = fluct.block_matrices()
    total = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            c = commutator(a_mats[i], a_mats[j])
            total += _tr(c @ c)
    return total


def _direct_form_rhs(ts: np.ndarray) -> complex:
    """Unrotated-field closed form 4 sum_{i<j} Tr (T_i T_j^dag - T_j T_i^dag)^2."""
    rhs = 0.0 + 0.0j
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = ts[i] @ ts[j].conj().T - ts[j] @ ts[i].conj().T
        rhs += 4.0 * _tr(d @ d)
    return rhs


def check_quartic_t(fluct: OffDiagonalFluctuation, seed: int | None = None) -> IdentityReport:
    """Quartic trace in the unrotated fields, against the block-trace oracle.

    rhs follows the stated closed form
    4[(T1 T2^dag - T2 T1^dag)^2 + (T1 T3^dag - T3 T1^dag)^2 + (T2 T3^dag - T3 T2^dag)^2]
    taken literally; the report records how it compares.
    """
    lhs = _quartic_block_trace(fluct)
    rhs = _direct_form_rhs(fluct.ts)
    matched = (("matched", float(_agree(lhs, rhs))),)
    return _report("quartic-direct", seed, fluct.dim, lhs, rhs, VERDICT_RECORDED, matched)


def check_quartic_ttilde(fluct: OffDiagonalFluctuation, seed: int | None = None) -> IdentityReport:
    """Quartic trace in the rotated fields, against the same oracle.

    Rotates the fields, evaluates the stated rotated-field closed form
    -4[(Tt1^dag Tt1 + Tt2^dag Tt2)^2 + 2(Tt1^dag Tt3 - Tt3^dag Tt1)(Tt2^dag Tt3 - Tt3^dag Tt2)],
    and also records the gap to the unrotated-field closed form so the two
    conventions can be compared on identical inputs.
    """
    lhs = _quartic_block_trace(fluct)
    u = rotation_u()
    ts = fluct.ts
    tt = [sum(u[i, j] * ts[j] for j in range(3)) for i in range(3)]
    quad = tt[0].conj().T @ tt[0] + tt[1].conj().T @ tt[1]
    cross1 = tt[0].conj().T @ tt[2] - tt[2].conj().T @ tt[0]
    cross2 = tt[1].conj().T @ tt[2] - tt[2].conj().T @ tt[1]
    rhs = -4.0 * (_tr(quad @ quad) + 2.0 * _tr(cross1 @ cross2))
    direct_rhs = _direct_form_rhs(ts).real
    extra = (
        ("matched", float(_agree(lhs, rhs))),
        ("direct_form_rhs", direct_rhs),
        ("form_gap", abs(rhs - direct_rhs)),
    )
    return _report("quartic-rotated", seed, fluct.dim, lhs, rhs, VERDICT_RECORDED, extra)


def check_cross_terms(
    bg: BraneBackground, fluct: OffDiagonalFluctuation, fluctuation_class: str = "generic"
) -> tuple[IdentityReport, IdentityReport]:
    """Cross terms between background and fluctuation.

    The linear term sum Tr[X_i,X_j][X_i,A_j] vanishes exactly at finite
    dimension (the integrand is block-off-diagonal).  The cubic term
    sum Tr[X_i,A_j][A_i,A_j] is asserted at the pass tolerance only for
    fluctuations built from the relative momentum
    (fluctuation_class="momentum-polynomial"); for "generic" ones it is
    recorded without a claim.  Any other class is an error.
    """
    if fluctuation_class not in ("generic", "momentum-polynomial"):
        raise ValueError(f"unknown fluctuation class {fluctuation_class!r}")
    if fluct.dim != bg.n_levels:
        raise ValueError(f"fluctuation dim {fluct.dim} does not match background {bg.n_levels}")
    x, a = bg.xs, fluct.block_matrices()
    kx, la, nn = _pairs(x, x), _pairs(x, a), _pairs(a, a)
    linear = _trace_sum(kx @ la)
    cubic = _trace_sum(la @ nn)
    dim = 2 * bg.n_levels
    lin_ok = _holds(abs(linear), EXACT_TOL, _scale(kx, la) * dim)
    momentum = fluctuation_class == "momentum-polynomial"
    if momentum:
        cub_ok = _holds(abs(cubic), PASS_TOL, _scale(la, nn) * dim)
        cub_verdict = VERDICT_PASS if cub_ok else VERDICT_VIOLATED
    else:
        cub_verdict = VERDICT_RECORDED
    lin_verdict = VERDICT_EXACT if lin_ok else VERDICT_VIOLATED
    extra = (("fluctuation_class", float(momentum)),)
    return (
        _report("cross-linear", None, bg.n_levels, linear, 0.0, lin_verdict),
        _report("cross-cubic", None, bg.n_levels, cubic, 0.0, cub_verdict, extra),
    )
