"""Quadratic fluctuation operator, its two assemblies, and the mode spectrum.

The off-diagonal fluctuation between the branes has a 3N x 3N Hermitian mass
operator.  It is assembled three ways:

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

``numeric_spectrum`` solves each assembly per connected component of its
nonzero pattern (1x1 and 2x2 level blocks in the number basis), not as one
dense 3N x 3N matrix; the whole-matrix solve is kept in the tests as the
oracle it is checked against.

All eigenvalues are reported both raw (energy^2) and in units of the natural
scale 4*pi*z2*R*cos(theta), in which the closed-form tower reads: -1 once at
level 0; 0 and +1 at level 1; 0 once and (2n-1) twice for every level n >= 2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .background import BraneBackground
from .oscillator import InteriorProjector, bogoliubov, make_ladder

SECTOR_TACHYON = "offdiag-tachyon"
SECTOR_ZERO = "offdiag-zero"
SECTOR_MASSIVE = "offdiag-massive"
SECTOR_TRANSVERSE = "transverse"
SECTOR_FERMION = "fermion"

BASIS_QP = "T"
BASIS_FOCK = "Ttilde"
BASIS_LEVELS = "Ttilde-number"

#: Squared-norm fraction on the top truncation levels above which an
#: eigenvector is considered contaminated by the cutoff.
TRUST_MASS_THRESHOLD = 1e-6


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
    """Hermitian 3N x 3N fluctuation operator with its natural energy^2 unit."""

    basis: str
    matrix: np.ndarray
    scale: float
    n_levels: int


def _assemble(b11, b12, b21, b22, b33) -> np.ndarray:
    n = b11.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return np.block([[b11, b12, zero], [b21, b22, zero], [zero, zero, b33]])


def mass_scale(theta: float, z2: float, R: float) -> float:
    """Natural unit of the fluctuation operator: 4*pi*z2*R*cos(theta)."""
    return 4.0 * math.pi * z2 * R * math.cos(theta)


def build_mass_operator_qp(bg: BraneBackground) -> MassOperator:
    """Mass operator in the unrotated fields, from the relative coordinates.

    The relative pair is the difference of two independent canonical pairs
    and therefore carries twice the single-brane commutator; the blocks are
    built from the sqrt(2)-scaled Q, P so that [Q, P] = 4*pi*i*z2.  The
    off-diagonal blocks carry a single power of cos(theta): with that
    normalization the rotated assembly below is the exact conjugate of this
    operator on the interior, and the lowest interior eigenvalue is
    -4*pi*z2*R*cos(theta).
    """
    cos_t = math.cos(bg.theta)
    q = math.sqrt(2.0) * bg.q_rel
    p = math.sqrt(2.0) * bg.p_rel
    sigma = 4.0 * math.pi * bg.z2
    eye = np.eye(bg.n_levels, dtype=complex)
    b11 = cos_t**2 * (p @ p)
    b12 = -cos_t * (p @ q - 1j * sigma * eye)
    b21 = -cos_t * (q @ p + 1j * sigma * eye)
    b22 = q @ q
    b33 = cos_t**2 * (p @ p) + q @ q
    matrix = bg.R * _assemble(b11, b12, b21, b22, b33)
    return MassOperator(
        basis=BASIS_QP,
        matrix=matrix,
        scale=mass_scale(bg.theta, bg.z2, bg.R),
        n_levels=bg.n_levels,
    )


def _fock_blocks(mode: np.ndarray, scale: float) -> np.ndarray:
    n = mode.shape[0]
    eye = np.eye(n, dtype=complex)
    mode_dag = mode.conj().T
    number = mode_dag @ mode
    return scale * _assemble(
        number - eye,
        mode_dag @ mode_dag,
        mode @ mode,
        number + 2.0 * eye,
        2.0 * number + eye,
    )


def build_mass_operator_fock(bg: BraneBackground) -> MassOperator:
    """Mass operator in the rotated fields, same Fock basis as Q and P."""
    scale = mass_scale(bg.theta, bg.z2, bg.R)
    mode = bogoliubov(bg.n_levels, bg.theta)
    return MassOperator(
        basis=BASIS_FOCK,
        matrix=_fock_blocks(mode, scale),
        scale=scale,
        n_levels=bg.n_levels,
    )


def build_mass_operator_levels(bg: BraneBackground) -> MassOperator:
    """Rotated-field mass operator in its own oscillator's number basis.

    The rotated mode acts as the plain ladder on its eigenfunctions, so the
    assembly only differs from ``build_mass_operator_fock`` by the basis.
    Cutoff artifacts are confined to the top two levels per block here,
    which makes this the assembly of choice for spectrum verification.
    """
    scale = mass_scale(bg.theta, bg.z2, bg.R)
    ladder, _ = make_ladder(bg.n_levels)
    return MassOperator(
        basis=BASIS_LEVELS,
        matrix=_fock_blocks(ladder, scale),
        scale=scale,
        n_levels=bg.n_levels,
    )


def route_equivalence_residual(
    op_qp: MassOperator, op_fock: MassOperator, margin: int
) -> float:
    """Interior max-residual of the field rotation, relative to the scale.

    Conjugates the unrotated-field operator by (U x interior projector) and
    compares against the rotated-field operator masked to the same interior.
    The rotation only mixes the three N x N field blocks, so the conjugate is
    formed block by block on the interior: X_ad = sum_c U[a,c] M_cd, then
    sum_d X_ad conj(U[b,d]).  That is the grouping of the dense product
    (U x P) M (U x P)^dag, which keeps the residual identical to it.
    """
    if op_qp.n_levels != op_fock.n_levels:
        raise ValueError("operators live on different truncations")
    n = op_qp.n_levels
    k = InteriorProjector(n, margin).interior_dim
    u = rotation_u()
    m = op_qp.matrix.reshape(3, n, 3, n)[:, :k, :, :k]
    f = op_fock.matrix.reshape(3, n, 3, n)[:, :k, :, :k]
    x = [[sum(u[a, c] * m[c, :, d, :] for c in range(3)) for d in range(3)] for a in range(3)]
    block_residuals = [
        np.max(np.abs(sum(x[a][d] * u[b, d].conjugate() for d in range(3)) - f[a, :, b, :]))
        for a in range(3)
        for b in range(3)
    ]
    return float(np.max(block_residuals) / op_fock.scale)


def reduced_block(n: int, theta: float, z2: float, R: float) -> np.ndarray:
    """Per-level block of the rotated-field operator.

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


@dataclass(frozen=True)
class ModeRecord:
    """One spectral line: sector, level, eigenvalue in both conventions."""

    sector: str
    n: int
    eigenvalue_units: float
    eigenvalue_raw: float
    multiplicity: int
    coefficients: tuple[float, float, float] | None = None


def analytic_spectrum(
    n_max: int, theta: float, z2: float, R: float
) -> list[ModeRecord]:
    """Closed-form off-diagonal tower up to level n_max.

    Eigenvector coefficients are over the (level n, level n-2, level n-1)
    components: the zero mode is (-sqrt n, sqrt(n-1), 0), the degenerate
    massive pair (0, 0, sqrt n) and (sqrt(n(n-1)), n, 0).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    scale = mass_scale(theta, z2, R)
    records = [ModeRecord(SECTOR_TACHYON, 0, -1.0, -scale, 1, (1.0, 0.0, 0.0))]
    if n_max >= 1:
        records.append(ModeRecord(SECTOR_ZERO, 1, 0.0, 0.0, 1, (1.0, 0.0, 0.0)))
        records.append(ModeRecord(SECTOR_MASSIVE, 1, 1.0, scale, 1, (0.0, 0.0, 1.0)))
    for n in range(2, n_max + 1):
        root_n = math.sqrt(n)
        units = 2.0 * n - 1.0
        records.append(
            ModeRecord(SECTOR_ZERO, n, 0.0, 0.0, 1, (-root_n, math.sqrt(n - 1.0), 0.0))
        )
        records.append(
            ModeRecord(SECTOR_MASSIVE, n, units, units * scale, 1, (0.0, 0.0, root_n))
        )
        records.append(
            ModeRecord(
                SECTOR_MASSIVE,
                n,
                units,
                units * scale,
                1,
                (math.sqrt(n * (n - 1.0)), float(n), 0.0),
            )
        )
    return records


def transverse_spectrum(n_max: int, theta: float) -> list[ModeRecord]:
    """Six transverse directions: (2n+1)cos(theta) per level, multiplicity 6.

    eigenvalue_units is in the 4*pi*z2*R*cos(theta) convention (2n+1);
    eigenvalue_raw carries the bare (2n+1)cos(theta) number, which leaves
    the flux-tension prefactor off.  Both conventions are in circulation,
    so both are emitted.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    cos_t = math.cos(theta)
    return [
        ModeRecord(SECTOR_TRANSVERSE, n, 2.0 * n + 1.0, (2.0 * n + 1.0) * cos_t, 6)
        for n in range(n_max + 1)
    ]


def transverse_interior_gap(n_levels: int, margin: int, theta: float) -> float:
    """Worst interior gap of the truncated transverse operator to (2n+1)cos(theta).

    The operator cos(theta)(2 a^dag a + 1) is diagonal in the number basis,
    so its eigenvalues are read off the diagonal, with a^dag a formed as
    sqrt(n)^2 the way the ladder product forms it; levels 0..n_levels-1-margin
    are compared.
    """
    cos_t = math.cos(theta)
    levels = np.arange(n_levels - margin, dtype=float)
    diagonal = cos_t * (2.0 * np.sqrt(levels) ** 2 + 1.0)
    return float(np.max(np.abs(diagonal - (2.0 * levels + 1.0) * cos_t)))


def fermion_spectrum(n_max: int, theta: float) -> list[ModeRecord]:
    """Fermionic eigenvalue table: (2n+2)cos(theta) x4 and 2n cos(theta) x4.

    Analytic table only; no fermionic operator is constructed.  Conventions
    as in :func:`transverse_spectrum`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    cos_t = math.cos(theta)
    records = []
    for n in range(n_max + 1):
        records.append(
            ModeRecord(SECTOR_FERMION, n, 2.0 * n + 2.0, (2.0 * n + 2.0) * cos_t, 4)
        )
        records.append(ModeRecord(SECTOR_FERMION, n, 2.0 * n, 2.0 * n * cos_t, 4))
    return records


@dataclass(frozen=True)
class NumericMode:
    """One numeric eigenvalue with its cutoff-contamination verdict."""

    value: float
    units: float
    trusted: bool
    top_mass: float


def _components(matrix: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern, grouped by size.

    Returns one (count, size) index array per component size; each row
    lists one component's indices in ascending order.  Labels start as the
    indices and shrink to the smallest index reachable, by neighbour minima
    plus pointer jumping, so chains converge in about log(length) sweeps.
    """
    pattern = matrix != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    labels = np.arange(matrix.shape[0])
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, rows, labels[cols])
        lowered = lowered[lowered]
        if np.array_equal(lowered, labels):
            break
        labels = lowered
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    sizes = np.diff(starts, append=order.size)
    return [
        order[starts[sizes == size][:, None] + np.arange(size)]
        for size in sorted(set(sizes.tolist()))
    ]


def _cluster_trust(
    values: np.ndarray,
    vectors: np.ndarray,
    top: np.ndarray,
    masses: np.ndarray,
    mass_threshold: float,
    cluster_tol: float,
) -> np.ndarray:
    """Trust flags of one component's eigenpairs, decided per cluster.

    The solver returns arbitrary mixtures inside a degenerate subspace, so a
    cluster (eigenvalues closer than ``cluster_tol``) counts its independent
    interior directions, the eigenvalues of the top-mass Gram form below the
    threshold, and trusts that many of its lowest-mass members.
    """
    trusted = np.zeros(values.size, dtype=bool)
    start = 0
    while start < values.size:
        stop = start + 1
        while stop < values.size and values[stop] - values[stop - 1] <= cluster_tol:
            stop += 1
        idx = np.arange(start, stop)
        if idx.size == 1:
            trusted[idx] = masses[idx] <= mass_threshold
        else:
            vecs = vectors[:, idx]
            gram = vecs.conj().T @ (top[:, None] * vecs)
            interior_directions = int(
                np.sum(np.linalg.eigvalsh(gram) <= mass_threshold)
            )
            order = idx[np.argsort(masses[idx], kind="stable")]
            trusted[order[:interior_directions]] = True
        start = stop
    return trusted


def numeric_spectrum(
    op: MassOperator,
    margin: int,
    mass_threshold: float = TRUST_MASS_THRESHOLD,
) -> list[NumericMode]:
    """Eigendecomposition by connected component, with per-mode trust flags.

    The operator is split into the connected components of its nonzero
    pattern: 1x1 and 2x2 blocks for the number-basis assembly, four parity
    blocks for the Fock-basis one, a single block for a dense matrix.
    Components of equal size are solved in one stacked ``eigh`` call.

    An eigenvector is trusted when at most ``mass_threshold`` of its squared
    norm sits on the top ``margin`` levels of each field block.  Inside a
    component, trust is decided per degenerate cluster (eigenvalues closer
    than 1e-10 * scale) by counting the independent interior directions of
    the cluster; for isolated eigenvalues this reduces to the plain rule.
    Modes come back in ascending order.  Raises ``ValueError`` on a
    non-Hermitian operator or a non-finite eigenvalue.
    """
    matrix = op.matrix
    n = op.n_levels
    herm = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not herm <= 1e-10 * max(op.scale, 1.0):
        raise ValueError(f"mass operator is not Hermitian (residual {herm:g})")
    if not 0 < margin < n:
        raise ValueError(f"margin must satisfy 0 < margin < {n}, got {margin}")

    top = np.zeros(3 * n)
    for block in range(3):
        top[block * n + n - margin : (block + 1) * n] = 1.0
    cluster_tol = 1e-10 * max(op.scale, 1.0)

    values, masses, trusted = [], [], []
    for idx in _components(matrix):
        try:
            vals, vecs = np.linalg.eigh(matrix[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
            raise RuntimeError(f"eigensolver failed on {op.basis} operator: {exc}") from exc
        if not np.isfinite(vals).all():
            raise ValueError(f"non-finite eigenvalue in the {op.basis} operator")
        tops = top[idx]
        mass = (np.abs(vecs) ** 2 * tops[:, :, None]).sum(axis=1)
        ok = mass <= mass_threshold
        # only components holding a near-degenerate pair need the cluster rule
        for k in np.flatnonzero((np.diff(vals, axis=1) <= cluster_tol).any(axis=1)):
            ok[k] = _cluster_trust(
                vals[k], vecs[k], tops[k], mass[k], mass_threshold, cluster_tol
            )
        values.append(vals.ravel())
        masses.append(mass.ravel())
        trusted.append(ok.ravel())

    values, masses, trusted = (np.concatenate(a) for a in (values, masses, trusted))
    return [
        NumericMode(
            value=float(values[i]),
            units=float(values[i] / op.scale),
            trusted=bool(trusted[i]),
            top_mass=float(masses[i]),
        )
        for i in np.argsort(values, kind="stable")
    ]


@dataclass(frozen=True)
class TowerMatch:
    """Reconciliation of trusted numeric eigenvalues with the closed forms."""

    horizon: int
    unmatched: tuple[float, ...]
    trusted_count: int

    @property
    def all_matched(self) -> bool:
        return not self.unmatched


def _count_near(units: list[float], value: float, tol: float) -> int:
    """Number of sorted ``units`` with abs(u - value) <= tol.

    A computed gap of at most tol means an exact gap below 2 * tol, and
    rounding is monotone, so the bisected +-2 * tol window holds every
    match; the exact test inside it keeps values on the tolerance edge
    counted as before.
    """
    window = units[bisect_left(units, value - 2.0 * tol) : bisect_right(units, value + 2.0 * tol)]
    return sum(1 for u in window if abs(u - value) <= tol)


def match_tower(
    modes: list[NumericMode], tol_units: float = 1e-6
) -> TowerMatch:
    """Largest level to which trusted eigenvalues reproduce the tower.

    The horizon is the largest H such that every tower eigenvalue from
    levels <= H appears among the trusted modes with at least its analytic
    multiplicity; trusted modes not near any tower value are reported as
    unmatched (the degenerate pair is compared as a multiset, unordered).
    Raising the horizon to h adds two requirements only: h zero modes, and
    the value 2h-1 once at h = 1 and twice beyond.
    """
    trusted_units = sorted(m.units for m in modes if m.trusted)

    def is_tower_value(u: float) -> bool:
        if abs(u + 1.0) <= tol_units or abs(u) <= tol_units:
            return True
        if u < 0:
            return False
        odd = round((u + 1.0) / 2.0)
        return odd >= 1 and abs(u - (2.0 * odd - 1.0)) <= tol_units

    unmatched = tuple(u for u in trusted_units if not is_tower_value(u))
    horizon = 0 if _count_near(trusted_units, -1.0, tol_units) >= 1 else -1
    if horizon == 0:
        zeros = _count_near(trusted_units, 0.0, tol_units)
        while (
            zeros >= horizon + 1
            and _count_near(trusted_units, 2.0 * horizon + 1.0, tol_units)
            >= min(horizon + 1, 2)
        ):
            horizon += 1
    return TowerMatch(
        horizon=horizon, unmatched=unmatched, trusted_count=len(trusted_units)
    )
