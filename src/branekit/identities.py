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


def _scale(*values: complex) -> float:
    return max(1.0, *(abs(v) for v in values))


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard-normal real and imaginary parts, independently."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


def random_fluctuation(rng: np.random.Generator, n: int) -> OffDiagonalFluctuation:
    return OffDiagonalFluctuation(
        random_complex(rng, n), random_complex(rng, n), random_complex(rng, n)
    )


def momentum_polynomial_fluctuation(
    bg: BraneBackground, rng: np.random.Generator
) -> OffDiagonalFluctuation:
    """Fluctuation whose blocks are complex cubic polynomials of the relative P."""
    powers = [np.eye(bg.n_levels, dtype=complex)]
    for _ in range(3):
        powers.append(powers[-1] @ bg.p_rel)
    blocks = []
    for _ in range(3):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        blocks.append(sum(c * p for c, p in zip(coeffs, powers)))
    return OffDiagonalFluctuation(*blocks)


def check_expansion(
    xs: tuple[np.ndarray, np.ndarray, np.ndarray],
    fluct: OffDiagonalFluctuation,
    seed: int | None = None,
) -> IdentityReport:
    """Expand Tr[(X_i+A_i),(X_j+A_j)]^2 and compare term by term.

    Holds for every input; a violation beyond rounding is reported as such.
    """
    a_mats = fluct.block_matrices()
    if xs[0].shape != a_mats[0].shape:
        raise ValueError(
            f"background/fluctuation shape mismatch: {xs[0].shape} vs {a_mats[0].shape}"
        )
    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            full = commutator(xs[i] + a_mats[i], xs[j] + a_mats[j])
            lhs += _tr(full @ full)
            k = commutator(xs[i], xs[j])
            l = commutator(xs[i], a_mats[j])
            m = commutator(a_mats[i], xs[j])
            nn = commutator(a_mats[i], a_mats[j])
            rhs += (
                _tr(k @ k)
                + 4.0 * _tr(k @ l)
                + 2.0 * _tr(k @ nn)
                + 2.0 * _tr(l @ (l + m))
                + 4.0 * _tr(l @ nn)
                + _tr(nn @ nn)
            )
    residual = abs(lhs - rhs)
    ok = residual <= PASS_TOL * _scale(lhs, rhs)
    return IdentityReport(
        identity="expansion",
        seed=seed,
        dim=fluct.dim,
        lhs=lhs.real,
        rhs=rhs.real,
        residual=residual,
        verdict=VERDICT_EXACT if ok else VERDICT_VIOLATED,
    )


def _quartic_block_trace(fluct: OffDiagonalFluctuation) -> complex:
    """Direct oracle: sum over i,j of Tr [A_i, A_j][A_i, A_j]."""
    a_mats = fluct.block_matrices()
    total = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            c = commutator(a_mats[i], a_mats[j])
            total += _tr(c @ c)
    return total


def _direct_form_rhs(ts: tuple[np.ndarray, np.ndarray, np.ndarray]) -> complex:
    """Unrotated-field closed form 4 sum_{i<j} Tr (T_i T_j^dag - T_j T_i^dag)^2."""
    rhs = 0.0 + 0.0j
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = ts[i] @ ts[j].conj().T - ts[j] @ ts[i].conj().T
        rhs += 4.0 * _tr(d @ d)
    return rhs


def check_quartic_t(
    t1: np.ndarray,
    t2: np.ndarray,
    t3: np.ndarray,
    seed: int | None = None,
) -> IdentityReport:
    """Quartic trace in the unrotated fields, against the block-trace oracle.

    rhs follows the stated closed form
    4[(T1 T2^dag - T2 T1^dag)^2 + (T1 T3^dag - T3 T1^dag)^2 + (T2 T3^dag - T3 T2^dag)^2]
    taken literally; the report records how it compares.
    """
    fluct = OffDiagonalFluctuation(t1, t2, t3)
    lhs = _quartic_block_trace(fluct)
    rhs = _direct_form_rhs((t1, t2, t3))
    residual = abs(lhs - rhs)
    matched = residual <= PASS_TOL * _scale(lhs, rhs)
    return IdentityReport(
        identity="quartic-direct",
        seed=seed,
        dim=fluct.dim,
        lhs=lhs.real,
        rhs=rhs.real,
        residual=residual,
        verdict=VERDICT_RECORDED,
        extra=(("matched", 1.0 if matched else 0.0),),
    )


def check_quartic_ttilde(
    t1: np.ndarray,
    t2: np.ndarray,
    t3: np.ndarray,
    seed: int | None = None,
) -> IdentityReport:
    """Quartic trace in the rotated fields, against the same oracle.

    Rotates the fields, evaluates the stated rotated-field closed form
    -4[(Tt1^dag Tt1 + Tt2^dag Tt2)^2 + 2(Tt1^dag Tt3 - Tt3^dag Tt1)(Tt2^dag Tt3 - Tt3^dag Tt2)],
    and also records the gap to the unrotated-field closed form so the two
    conventions can be compared on identical inputs.
    """
    fluct = OffDiagonalFluctuation(t1, t2, t3)
    lhs = _quartic_block_trace(fluct)
    u = rotation_u()
    ts = (t1, t2, t3)
    tt = [sum(u[i, j] * ts[j] for j in range(3)) for i in range(3)]
    quad = tt[0].conj().T @ tt[0] + tt[1].conj().T @ tt[1]
    cross1 = tt[0].conj().T @ tt[2] - tt[2].conj().T @ tt[0]
    cross2 = tt[1].conj().T @ tt[2] - tt[2].conj().T @ tt[1]
    rhs = -4.0 * (_tr(quad @ quad) + 2.0 * _tr(cross1 @ cross2))
    residual = abs(lhs - rhs)
    matched = residual <= PASS_TOL * _scale(lhs, rhs)
    direct_rhs = _direct_form_rhs(ts).real
    return IdentityReport(
        identity="quartic-rotated",
        seed=seed,
        dim=fluct.dim,
        lhs=lhs.real,
        rhs=rhs.real,
        residual=residual,
        verdict=VERDICT_RECORDED,
        extra=(
            ("matched", 1.0 if matched else 0.0),
            ("direct_form_rhs", direct_rhs),
            ("form_gap", abs(rhs - direct_rhs)),
        ),
    )


def check_cross_terms(
    bg: BraneBackground,
    fluct: OffDiagonalFluctuation,
    fluctuation_class: str = "generic",
) -> tuple[IdentityReport, IdentityReport]:
    """Cross terms between background and fluctuation.

    The linear term sum Tr[X_i,X_j][X_i,A_j] vanishes exactly at finite
    dimension (the integrand is block-off-diagonal).  The cubic term
    sum Tr[X_i,A_j][A_i,A_j] is asserted at the pass tolerance only for
    fluctuations built from the relative momentum
    (fluctuation_class="momentum-polynomial"); for anything else it is
    recorded without a claim.
    """
    if fluct.dim != bg.n_levels:
        raise ValueError(
            f"fluctuation dim {fluct.dim} does not match background {bg.n_levels}"
        )
    xs = (bg.x1, bg.x2, bg.x3)
    a_mats = fluct.block_matrices()
    linear = 0.0 + 0.0j
    cubic = 0.0 + 0.0j
    scale_lin = 0.0
    scale_cub = 0.0
    for i in range(3):
        for j in range(3):
            kx = commutator(xs[i], xs[j])
            la = commutator(xs[i], a_mats[j])
            nn = commutator(a_mats[i], a_mats[j])
            linear += _tr(kx @ la)
            cubic += _tr(la @ nn)
            scale_lin = max(scale_lin, float(np.max(np.abs(kx))) * float(np.max(np.abs(la))))
            scale_cub = max(scale_cub, float(np.max(np.abs(la))) * float(np.max(np.abs(nn))))
    dim = 2 * bg.n_levels
    lin_res = abs(linear)
    lin_ok = lin_res <= EXACT_TOL * max(1.0, scale_lin * dim)
    linear_report = IdentityReport(
        identity="cross-linear",
        seed=None,
        dim=bg.n_levels,
        lhs=linear.real,
        rhs=0.0,
        residual=lin_res,
        verdict=VERDICT_EXACT if lin_ok else VERDICT_VIOLATED,
    )
    cub_res = abs(cubic)
    if fluctuation_class == "momentum-polynomial":
        cub_ok = cub_res <= PASS_TOL * max(1.0, scale_cub * dim)
        verdict = VERDICT_PASS if cub_ok else VERDICT_VIOLATED
    else:
        verdict = VERDICT_RECORDED
    cubic_report = IdentityReport(
        identity="cross-cubic",
        seed=None,
        dim=bg.n_levels,
        lhs=cubic.real,
        rhs=0.0,
        residual=cub_res,
        verdict=verdict,
        extra=(("fluctuation_class", 1.0 if fluctuation_class == "momentum-polynomial" else 0.0),),
    )
    return linear_report, cubic_report
