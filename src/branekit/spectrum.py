"""Quadratic fluctuation operator, its three assemblies, and the mode spectrum.

The off-diagonal fluctuation between the branes has a 3N x 3N Hermitian mass
operator whose N x N field blocks M11, M12, M21, M22 and M33 are the only
nonzero ones: field 3 couples to neither of fields 1 and 2.  Each is a product
of two of the ladder-like operators a, a^dag, Q, P and A, which are tridiagonal
with a zero diagonal, so it has entries only on the diagonals at offsets -2, 0
and 2.  A :class:`MassOperator` stores just those, 15 numbers per level.
It is assembled three ways:

* ``build_mass_operator_qp`` writes it in the unrotated fields from the
  relative coordinates Q, P ("T" basis).
* ``build_mass_operator_fock`` writes it in the rotated fields from the
  Bogoliubov mode A ("Ttilde" basis), in the *same* Fock basis as Q and P.
  Conjugating the first operator by the 3x3 field rotation reproduces this
  one exactly on the interior, which is the route-equivalence check.
* ``build_mass_operator_levels`` writes the rotated-field operator in the
  number basis of its own oscillator (A acts as the plain ladder there).
  In that basis truncation artifacts stay within two levels of the cutoff,
  so the trusted spectral window is widest; this is the assembly used for
  numeric spectrum verification.

In the number basis the operator is a direct sum of 1x1 and 2x2 level
blocks, which ``numeric_spectrum`` reads off the band and solves one by one,
so degeneracies across levels never mix and trust is decided per eigenvector.
It returns one numpy record array of ``value``, ``units``, ``trusted`` and
``top_mass``; ``match_tower`` reads its ``units`` and ``trusted`` columns whole.
The closed-form tables ``analytic_spectrum`` and ``transverse_spectrum`` are
arrays too, one ``MODES`` row per spectral line, whose fields are the
report's columns.
The dense assemblies, route check and whole-matrix solve, with its trust rule
for degenerate clusters, are the test oracles all of this is checked against.

All eigenvalues are reported both raw (energy^2) and in units of the natural
scale 4*pi*z2*R*cos(theta), in which the closed-form tower reads: -1 once at
level 0; 0 and +1 at level 1; 0 once and (2n-1) twice for every level n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import bogoliubov_coefficients, ladder_entries, validate_params

SECTOR_TACHYON = "offdiag-tachyon"
SECTOR_ZERO = "offdiag-zero"
SECTOR_MASSIVE = "offdiag-massive"
SECTOR_TRANSVERSE = "transverse"
SECTORS = (SECTOR_TACHYON, SECTOR_ZERO, SECTOR_MASSIVE, SECTOR_TRANSVERSE)

#: A row of the closed-form tables; the sector field is as wide as the longest sector name.
MODES = np.dtype(
    {
        "names": ("sector", "n", "eigenvalue_units", "eigenvalue_raw", "multiplicity"),
        "formats": (np.array(SECTORS).dtype, int, float, float, int),
    }
)

#: Largest truncation the mass-operator builders accept.  Storage is linear
#: in N; a whole ``spectrum`` run at this size peaks well under 1 GB.
MAX_BAND_LEVELS = 100_000

#: Diagonal offsets held by the band storage of a :class:`MassOperator`.
OFFSETS = (-2, 0, 2)

#: The identity in band storage, broadcast over the levels.
_EYE = np.array([[0.0], [1.0], [0.0]])


def rotation_u() -> np.ndarray:
    """Unitary 3x3 rotation from the unrotated to the rotated fields.

    Rows: (1, -i, 0)/sqrt2, (-1, -i, 0)/sqrt2, (0, 0, 1).
    """
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [[s, -1j * s, 0.0], [-s, -1j * s, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )


@dataclass(frozen=True, eq=False)
class MassOperator:
    """Hermitian 3N x 3N fluctuation operator with its natural energy^2 unit.

    ``matrix`` is band storage, not a dense matrix: an array of shape
    (5, 3, N) whose entry [j, k, i] is entry (i, i + OFFSETS[k]) of the j-th
    of M11, M12, M21, M22, M33; the first four reshape to the 2x2 grid of
    fields 1 and 2 as a view.  Positions past the edge of a block hold zero.
    """

    matrix: np.ndarray
    scale: float


def mass_scale(theta: float, z2: float, R: float) -> float:
    """Natural unit of the fluctuation operator: 4*pi*z2*R*cos(theta)."""
    return 4.0 * math.pi * z2 * R * math.cos(theta)


def _checked_scale(theta: float, z2: float, R: float, n_levels: int) -> float:
    """The mass scale, once every builder's checks pass, before it allocates."""
    validate_params(theta, z2, R)
    if n_levels < 4:
        raise ValueError(f"truncation size must be >= 4, got {n_levels}")
    if n_levels > MAX_BAND_LEVELS:
        raise ValueError(
            f"mass operator truncation size {n_levels} exceeds its bound {MAX_BAND_LEVELS}"
        )
    scale = mass_scale(theta, z2, R)
    if scale == 0.0:
        raise ValueError(f"mass scale 4*pi*z2*R*cos(theta) underflows to 0 (z2={z2!r}, R={R!r})")
    return scale


def _product(x: tuple, y: tuple) -> np.ndarray:
    """Diagonals (offsets -2, 0, 2) of XY, for tridiagonal X and Y with zero diagonal.

    An operand is the pair (lower, upper) with X[i+1, i] = lower[i] and
    X[i, i+1] = upper[i].  Each entry of XY is a sum of at most two
    products, the same ones the dense matrix product adds.
    """
    (x_lower, x_upper), (y_lower, y_upper) = x, y
    out = np.zeros((3, x_lower.size + 1), dtype=complex)
    out[0, 2:] = x_lower[1:] * y_lower[:-1]
    out[1, 1:] = x_lower * y_upper
    out[1, :-1] += x_upper * y_lower
    out[2, :-2] = x_upper[:-1] * y_upper[1:]
    return out


def build_mass_operator_qp(theta: float, z2: float, R: float, n_levels: int) -> MassOperator:
    """Mass operator in the unrotated fields, from the relative coordinates.

    The relative pair is the difference of two independent canonical pairs
    and therefore carries twice the single-brane commutator; the blocks are
    built from the sqrt(2)-scaled Q, P so that [Q, P] = 4*pi*i*z2.  The
    off-diagonal blocks carry a single power of cos(theta): with that
    normalization the rotated assembly below is the exact conjugate of this
    operator on the interior, and the lowest interior eigenvalue is
    -4*pi*z2*R*cos(theta).
    """
    scale = _checked_scale(theta, z2, R, n_levels)
    cos_t = math.cos(theta)
    # Q = g (a + a^dag) and P = -i g (a - a^dag), g = sqrt(2 pi z2) sqrt(m)
    g = (math.sqrt(2.0) * (math.sqrt(math.pi * z2) * ladder_entries(n_levels))).astype(complex)
    q = (g, g)
    p = (1j * g, -1j * g)
    sigma = 4.0 * math.pi * z2
    pp, qq = _product(p, p), _product(q, q)
    b11 = cos_t**2 * pp
    b12 = -cos_t * (_product(p, q) - 1j * sigma * _EYE)
    b21 = -cos_t * (_product(q, p) + 1j * sigma * _EYE)
    b33 = cos_t**2 * pp + qq
    return MassOperator(R * np.stack([b11, b12, b21, qq, b33]), scale)


def _rotated_blocks(c_minus: float, c_plus: float, n_levels: int, scale: float) -> np.ndarray:
    """Band storage of the rotated-field operator for the mode c_minus a^dag + c_plus a."""
    root = ladder_entries(n_levels).astype(complex)
    mode = (c_minus * root, c_plus * root)
    mode_dag = (mode[1].conj(), mode[0].conj())
    number = _product(mode_dag, mode)
    b12, b21 = _product(mode_dag, mode_dag), _product(mode, mode)
    return scale * np.stack([number - _EYE, b12, b21, number + 2.0 * _EYE, 2.0 * number + _EYE])


def build_mass_operator_fock(theta: float, z2: float, R: float, n_levels: int) -> MassOperator:
    """Mass operator in the rotated fields, same Fock basis as Q and P."""
    scale = _checked_scale(theta, z2, R, n_levels)
    return MassOperator(_rotated_blocks(*bogoliubov_coefficients(theta), n_levels, scale), scale)


def build_mass_operator_levels(theta: float, z2: float, R: float, n_levels: int) -> MassOperator:
    """Rotated-field mass operator in its own oscillator's number basis.

    The rotated mode acts as the plain ladder on its eigenfunctions, so the
    assembly only differs from ``build_mass_operator_fock`` by the basis.
    Cutoff artifacts are confined to the top two levels per block here,
    which makes this the assembly of choice for spectrum verification.
    """
    scale = _checked_scale(theta, z2, R, n_levels)
    return MassOperator(_rotated_blocks(0.0, 1.0, n_levels, scale), scale)


def route_equivalence_residual(
    op_qp: MassOperator, op_fock: MassOperator, margin: int
) -> float:
    """Interior max-residual of the field rotation, relative to the scale.

    Conjugates the unrotated-field operator by (U x interior projector) and
    compares against the rotated-field operator on the same interior.  U is
    diag(U2, 1), so field 3 is compared as it is.  Each slot of the result
    reads only its own slot of the stored blocks, so the bands are read in
    place on the interior levels, a field row a at a time: X_ad = sum_c
    U2[a,c] M_cd, then sum_d X_ad conj(U2[b,d]), the grouping of the dense
    product (U x P) M (U x P)^dag, which keeps the residual identical to it.
    The slots whose column leaves the interior are zeroed.
    """
    n = op_fock.matrix.shape[-1]
    if op_qp.matrix.shape[-1] != n:
        raise ValueError("operators live on different truncations")
    if not 0 <= margin < n:
        raise ValueError(f"margin must satisfy 0 <= margin < {n}, got {margin}")
    k = n - margin
    m, f = op_qp.matrix[..., :k], op_fock.matrix[..., :k]
    m2, f2 = m[:4].reshape(2, 2, 3, k), f[:4].reshape(2, 2, 3, k)
    u = rotation_u()[:2, :2]
    u_dag = u.conj().T[:, :, None, None]
    row_residuals = []
    for a in range(3):
        if a < 2:
            row = u[a, 0] * m2[0] + u[a, 1] * m2[1]
            row = row[0] * u_dag[0] + row[1] * u_dag[1] - f2[a]
        else:
            row = m[4] - f[4]  # field 3, which U leaves as it is
        # columns below 0 (offset -2) and from k on (offset +2)
        row[..., 0, :2] = row[..., 2, max(0, k - 2) :] = 0.0
        row_residuals.append(np.max(np.abs(row)))
    # np.max, unlike the builtin, keeps a NaN residual
    return float(np.max(row_residuals) / op_fock.scale)


def analytic_spectrum(n_max: int, theta: float, z2: float, R: float) -> np.ndarray:
    """Closed-form off-diagonal tower up to level n_max, one ``MODES`` row per mode.

    Level 0 holds the tachyon at -1; level n >= 1 a zero mode, then massive
    modes at 2n - 1: one at level 1, a degenerate pair above it.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    levels = np.arange(n_max + 1)
    n = np.repeat(levels, np.minimum(levels, 2) + 1)
    zero = np.diff(n, prepend=0) > 0  # the first row of each level past 0
    units = np.where(zero, 0.0, 2.0 * n - 1.0)
    table = np.empty(n.size, MODES)
    table["sector"] = np.where(zero, SECTOR_ZERO, np.where(n > 0, SECTOR_MASSIVE, SECTOR_TACHYON))
    table["n"], table["eigenvalue_units"], table["multiplicity"] = n, units, 1
    # a product past the float range is inf, as with Python floats; a zero mode's stays 0
    with np.errstate(over="ignore", invalid="ignore"):
        table["eigenvalue_raw"] = np.where(zero, 0.0, units * mass_scale(theta, z2, R))
    return table


def transverse_spectrum(n_max: int, theta: float) -> np.ndarray:
    """Six transverse directions: (2n+1)cos(theta) per level, multiplicity 6.

    eigenvalue_units is in the 4*pi*z2*R*cos(theta) convention (2n+1);
    eigenvalue_raw carries the bare (2n+1)cos(theta) number, which leaves
    the flux-tension prefactor off.  Both conventions are in circulation,
    so both are emitted.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    n, cos_t = np.arange(n_max + 1), math.cos(theta)
    table = np.empty(n.size, MODES)
    table["sector"], table["n"], table["multiplicity"] = SECTOR_TRANSVERSE, n, 6
    table["eigenvalue_units"], table["eigenvalue_raw"] = 2.0 * n + 1.0, (2.0 * n + 1.0) * cos_t
    return table


def transverse_gap(op: MassOperator, margin: int) -> float:
    """Worst interior gap of field block 3 to the transverse line (2n+1), in scale units.

    Field block 3 of the number-basis operator is scale*(2 a^dag a + 1), the
    transverse operator.  Its diagonal entries are 1x1 level blocks, read as
    ``numeric_spectrum`` reads them (real part over the scale) and compared
    on the levels n < N - margin.  A NaN entry gives a NaN gap.
    """
    levels = np.arange(op.matrix.shape[-1] - margin)
    units = op.matrix[4, 1, : levels.size].real / op.scale
    return float(np.max(np.abs(units - (2.0 * levels + 1.0))))


def numeric_spectrum(op: MassOperator, margin: int, mass_threshold: float) -> np.recarray:
    """Eigendecomposition of a number-basis operator by level block, with trust flags.

    The level blocks are read off the band storage by slices: field 1 at
    level m couples to field 2 at level m - 2, and every other level stands
    alone.  A 1x1 block's eigenvalue is its real diagonal entry; the 2x2
    blocks are solved in one stacked ``eigh`` call.  Returns a record array
    of 3N eigenvalues in ascending order, with the fields ``value``
    (energy^2), ``units`` (value / scale), ``trusted`` and ``top_mass`` (the
    squared norm on the top ``margin`` levels).

    Trust is per eigenvector: one is trusted when at most ``mass_threshold``
    of its squared norm sits on the top ``margin`` levels of each field
    block.  Each block is solved alone, so degeneracies across levels never
    mix eigenvectors, and a block's eigenvalues 0 and (2m - 1) * scale never
    form a cluster.  Raises ``ValueError`` on a non-Hermitian operator
    (beyond 1e-10 * scale), an entry outside the level blocks (as the other
    assemblies hold at a nonzero mixing) or a non-finite eigenvalue; an
    eigensolver failure raises numpy's ``LinAlgError``, a ``ValueError`` too.
    """
    band, n = op.matrix, op.matrix.shape[-1]
    diagonals = band[[0, 3, 4], 1]
    upper, lower = band[1, 0, 2:], band[2, 2, :-2]
    herm = np.max(np.abs(np.append(diagonals - diagonals.conj(), upper - lower.conj())))
    if not herm <= 1e-10 * op.scale:
        raise ValueError(f"mass operator is not Hermitian (residual {herm:g})")
    # everything else must be zero, the past-edge slots of the coupling bands too
    kept = sum(map(np.count_nonzero, (diagonals, upper, lower)))
    if np.count_nonzero(band) != kept:
        raise ValueError("the operator couples levels outside its level blocks")
    if not 0 < margin < n:
        raise ValueError(f"margin must satisfy 0 < margin < {n}, got {margin}")

    top = (np.arange(n) >= n - margin).astype(float)
    # 1x1 blocks: field 1 at levels 0 and 1, field 2 at the top two, field 3
    single_values = np.concatenate([diagonals[0, :2], diagonals[1, -2:], diagonals[2]]).real
    single_masses = np.concatenate([top[:2], top[-2:], top])
    # 2x2 blocks [[field 1 at level m, upper], [lower, field 2 at level m - 2]]
    blocks = np.stack([diagonals[0, 2:], upper, lower, diagonals[1, :-2]], axis=1)
    pair_values, vecs = np.linalg.eigh(blocks.reshape(-1, 2, 2))
    pair_masses = np.abs(vecs[:, 0]) ** 2 * top[2:, None] + np.abs(vecs[:, 1]) ** 2 * top[:-2, None]
    del blocks, vecs  # freed before the result is built

    values = np.concatenate([single_values, pair_values.ravel()])
    if not np.isfinite(values).all():
        raise ValueError("non-finite eigenvalue in the operator")
    order = np.argsort(values, kind="stable")
    values, masses = values[order], np.concatenate([single_masses, pair_masses.ravel()])[order]
    return np.rec.fromarrays(
        (values, values / op.scale, masses <= mass_threshold, masses),
        names="value,units,trusted,top_mass",
    )


@dataclass(frozen=True)
class TowerMatch:
    """Reconciliation of trusted numeric eigenvalues with the closed forms."""

    horizon: int
    unmatched: tuple[float, ...]
    trusted_count: int


def _count_near(units: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Number of sorted ``units`` with abs(u - v) <= tol, for each target v.

    A computed gap of at most tol means an exact gap below 2 * tol, and
    rounding is monotone, so the searchsorted +-2 * tol window holds every
    match; the exact test inside it keeps values on the tolerance edge
    counted as a scan would.
    """
    lo = np.searchsorted(units, targets - 2.0 * tol, side="left")
    sizes = np.searchsorted(units, targets + 2.0 * tol, side="right") - lo
    owner = np.repeat(np.arange(targets.size), sizes)
    window = np.arange(owner.size) + (lo + sizes - np.cumsum(sizes))[owner]
    near = np.abs(units[window] - targets[owner]) <= tol
    return np.bincount(owner[near], minlength=targets.size)


def match_tower(modes: np.recarray, tol_units: float) -> TowerMatch:
    """Largest level to which trusted eigenvalues reproduce the tower.

    The horizon is the largest H such that every tower eigenvalue from
    levels <= H appears among the trusted modes with at least its analytic
    multiplicity; trusted modes not near any tower value are reported as
    unmatched (the degenerate pair is compared as a multiset, unordered).
    Raising the horizon to h adds two requirements only: h zero modes, and
    the value 2h-1 once at h = 1 and twice beyond, so every level below the
    zero count is checked at once and the horizon is the first that fails.
    """
    units = np.sort(modes.units[modes.trusted])
    odd = np.rint((units + 1.0) / 2.0)  # half to even, as round()
    tower = (
        (np.abs(units + 1.0) <= tol_units)
        | (np.abs(units) <= tol_units)
        | ((units >= 0) & (odd >= 1) & (np.abs(units - (2.0 * odd - 1.0)) <= tol_units))
    )
    tachyons, zeros = _count_near(units, np.array([-1.0, 0.0]), tol_units)
    horizon = -1
    if tachyons >= 1:
        levels = np.arange(zeros)
        found = _count_near(units, 2.0 * levels + 1.0, tol_units) >= np.minimum(levels + 1, 2)
        horizon = int(np.argmin(np.append(found, False)))
    return TowerMatch(
        horizon=horizon, unmatched=tuple(units[~tower].tolist()), trusted_count=units.size
    )
