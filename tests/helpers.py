"""Operators, closed forms and draws that only the tests call.

The interior projector masks the top levels of a truncation, where the
cutoff corrupts the ladder algebra; the interior residual and the background
commutator check state the canonical relations on the levels it keeps.  The
Bogoliubov mode is the dense Fock oracle's mode; the potential, the
condensate and the eigenvectors are the closed forms the tests check the
program's routes against.  Each validates its inputs as the program does.
The per-matrix draws are the oracle of the identity suite's one-call draws,
and the per-block route check that of the row-wise one, the dense
nine-commutator trace that of the quartic checks' block trace, and the
per-level record loops that of the closed-form tables.
"""

import math
from dataclasses import dataclass

import numpy as np

from branekit.background import block_matrices, build_background
from branekit.condensation import _scaled_potential
from branekit.identities import random_complex
from branekit.oscillator import (
    bogoliubov_coefficients,
    make_ladder,
    make_qp,
    validate_params,
)
from branekit.spectrum import (
    OFFSETS,
    SECTOR_MASSIVE,
    SECTOR_TACHYON,
    SECTOR_TRANSVERSE,
    SECTOR_ZERO,
    mass_scale,
    rotation_u,
)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """XY - YX for square operators of matching dimension."""
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


@dataclass(frozen=True)
class InteriorProjector:
    """Diagonal projector keeping levels 0..dim-1-margin.

    Truncation artifacts live within the top ``margin`` levels; masking them
    makes the canonical relations literally assertable.
    """

    dim: int
    margin: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"projector dimension must be >= 2, got {self.dim}")
        if not 0 <= self.margin < self.dim:
            raise ValueError(
                f"margin must satisfy 0 <= margin < dim, got {self.margin} for dim {self.dim}"
            )

    @property
    def interior_dim(self) -> int:
        return self.dim - self.margin

    def mask(self) -> np.ndarray:
        m = np.ones(self.dim)
        if self.margin:
            m[self.dim - self.margin :] = 0.0
        return m

    def apply(self, op: np.ndarray) -> np.ndarray:
        """Interior part P op P (entrywise masking, no basis change)."""
        if op.shape != (self.dim, self.dim):
            raise ValueError(f"operator shape {op.shape} does not match dim {self.dim}")
        m = self.mask()
        return op * np.outer(m, m)


@dataclass(frozen=True)
class BlockConstant:
    """Identity-proportionality of one block of one background commutator."""

    pair: tuple[int, int]
    block: str  # "upper" | "lower"
    constant: complex
    residual: float


@dataclass(frozen=True)
class BackgroundCommutatorReport:
    """Per-block commutator constants plus the squared-sum coefficient.

    squared_sum is 2 * sum over i<j of the upper-block constants squared,
    the per-interior-level coefficient of the squared-commutator trace; it
    equals -8 pi^2 z2^2 independently of the angle.
    """

    checks: tuple[BlockConstant, ...]
    squared_sum: complex
    max_residual: float


def one_background(theta: float, z2: float, n: int) -> np.ndarray:
    """``build_background`` at one angle on the n-level pair ``make_qp(n, z2)``, as (3, 2N, 2N)."""
    (xs,) = build_background([theta], *make_qp(n, z2))
    return xs


def check_background_commutators(xs: np.ndarray) -> BackgroundCommutatorReport:
    """Verify each [X_i, X_j] block is proportional to the identity below the top level.

    xs is the (3, 2N, 2N) background stack.
    """
    n = xs.shape[-1] // 2
    proj = InteriorProjector(n, 1)
    checks: list[BlockConstant] = []
    squared_sum = 0.0 + 0.0j
    for i, j in ((1, 2), (1, 3), (2, 3)):
        comm = commutator(xs[i - 1], xs[j - 1])
        for name, sl in (("upper", slice(0, n)), ("lower", slice(n, 2 * n))):
            block = comm[sl, sl]
            interior = proj.apply(block)
            constant = complex(np.trace(interior) / proj.interior_dim)
            residual = float(np.max(np.abs(proj.apply(block - constant * np.eye(n)))))
            checks.append(BlockConstant((i, j), name, constant, residual))
            if name == "upper":
                squared_sum += 2.0 * constant**2
    return BackgroundCommutatorReport(
        checks=tuple(checks),
        squared_sum=squared_sum,
        # np.max, unlike the builtin, keeps a NaN residual
        max_residual=float(np.max([check.residual for check in checks])),
    )


def bogoliubov(dim: int, theta: float) -> np.ndarray:
    """Bogoliubov-rotated annihilation operator A = c_minus a^dag + c_plus a.

    [A, A^dag] = 1 on the interior (margin 2: A mixes neighbouring levels).
    At theta = 0 this is the plain ladder operator.
    """
    c_minus, c_plus = bogoliubov_coefficients(theta)
    a, a_dag = make_ladder(dim)
    return c_minus * a_dag + c_plus * a


def max_interior_residual(op: np.ndarray, reference: complex | np.ndarray, margin: int) -> float:
    """Max-norm of P (op - reference) P; scalar references mean reference * I."""
    dim = op.shape[0]
    proj = InteriorProjector(dim, margin)
    ref = reference if isinstance(reference, np.ndarray) else reference * np.eye(dim)
    return float(np.max(np.abs(proj.apply(op - ref))))


def condensate(theta: float, z2: float) -> float:
    """Off-diagonal magnitude sqrt(pi*z2*cos(theta)) of the condensed blocks."""
    validate_params(theta, z2)
    return math.sqrt(math.pi * z2 * math.cos(theta))


def potential_value(t: float, theta: float, z2: float, R: float) -> float:
    """Tachyon potential -4*pi*z2*R*cos(theta) t^2 + R t^4 at amplitude t >= 0.

    Evaluated in the units ``numeric_minimum`` searches in; the unit is
    applied one factor at a time, so a finite potential stays finite.
    """
    if t < 0.0:
        raise ValueError(f"mode amplitude must be nonnegative, got {t!r}")
    validate_params(theta, z2, R)
    unit = 2.0 * math.pi * z2
    return R * unit * (unit * _scaled_potential(t / math.sqrt(unit), math.cos(theta)))


def level_eigenvectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigenvectors of the level-n block, n >= 2.

    Over the (level n, level n-2, level n-1) components: the zero mode
    (-sqrt n, sqrt(n-1), 0) and the degenerate massive pair (0, 0, sqrt n)
    and (sqrt(n(n-1)), n, 0), at eigenvalue (2n-1) in scale units.
    """
    if n < 2:
        raise ValueError(f"the level blocks with three components start at n = 2, got {n}")
    return (
        np.array([-math.sqrt(n), math.sqrt(n - 1.0), 0.0]),
        np.array([0.0, 0.0, math.sqrt(n)]),
        np.array([math.sqrt(n * (n - 1.0)), float(n), 0.0]),
    )


def random_complex_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """One n x n matrix: a standard-normal draw for its real part, then one for its imaginary part."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Three n x n Hermitian matrices from one draw, the Hermitian parts of ``random_complex``."""
    g = random_complex(rng, 3, n, n)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def random_hermitian_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex_matrix(rng, n)
    return (g + g.conj().T) / 2.0


#: The field blocks (a, b) a mass operator's band stores, in its order.
FIELD_BLOCKS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))


def field_grid(band: np.ndarray) -> np.ndarray:
    """The band storage of all nine field blocks M_ab, as [a, b, k, i], zero where none is stored."""
    grid = np.zeros((3, 3) + band.shape[1:], dtype=band.dtype)
    for (a, b), block in zip(FIELD_BLOCKS, band, strict=True):
        grid[a, b] = block
    return grid


def route_residual_by_blocks(op_qp, op_fock, margin: int) -> float:
    """The route check one field block (a, b) at a time, each sum a Python ``sum``.

    X_ad = sum_c U[a,c] M_cd, then sum_d X_ad conj(U[b,d]) on the masked
    band diagonals of all nine field blocks, with the full 3x3 rotation, and
    the largest of the nine block maxima relative to the scale: the form
    ``route_equivalence_residual`` had before it went row-wise.
    """
    n = op_fock.matrix.shape[-1]
    if op_qp.matrix.shape[-1] != n:
        raise ValueError("operators live on different truncations")
    k = InteriorProjector(n, margin).interior_dim
    levels = np.arange(n)
    columns = levels + np.array(OFFSETS)[:, None]
    interior = (levels < k) & (columns >= 0) & (columns < k)
    m = np.where(interior, field_grid(op_qp.matrix), 0.0)
    f = np.where(interior, field_grid(op_fock.matrix), 0.0)
    u = rotation_u()
    x = [[sum(u[a, c] * m[c, d] for c in range(3)) for d in range(3)] for a in range(3)]
    block_residuals = [
        np.max(np.abs(sum(x[a][d] * u[b, d].conjugate() for d in range(3)) - f[a, b]))
        for a in range(3)
        for b in range(3)
    ]
    return float(np.max(block_residuals) / op_fock.scale)


def dense_quartic_block_trace(ts: np.ndarray) -> complex:
    """Sum over i, j of Tr [A_i, A_j][A_i, A_j] from the dense 2N x 2N matrices A_i.

    All nine commutators, one at a time, with no use of the block structure.
    """
    a_mats = block_matrices(ts)
    total = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            c = commutator(a_mats[i], a_mats[j])
            total += complex(np.trace(c @ c))
    return total


@dataclass(frozen=True)
class ModeRecord:
    """One spectral line: sector, level, eigenvalue in both conventions."""

    sector: str
    n: int
    eigenvalue_units: float
    eigenvalue_raw: float
    multiplicity: int


def analytic_records(n_max: int, theta: float, z2: float, R: float) -> list[ModeRecord]:
    """The closed-form off-diagonal tower up to level n_max, one record per line, level by level.

    Level n >= 1 holds a zero mode and massive modes at 2n - 1: one at level
    1, a degenerate pair above it.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    scale = mass_scale(theta, z2, R)
    records = [ModeRecord(SECTOR_TACHYON, 0, -1.0, -scale, 1)]
    for n in range(1, n_max + 1):
        units = 2.0 * n - 1.0
        massive = ModeRecord(SECTOR_MASSIVE, n, units, units * scale, 1)
        records += (ModeRecord(SECTOR_ZERO, n, 0.0, 0.0, 1), massive)
        if n > 1:
            records.append(massive)
    return records


def transverse_records(n_max: int, theta: float) -> list[ModeRecord]:
    """Six transverse directions, one record per level: (2n+1) and (2n+1)cos(theta)."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    cos_t = math.cos(theta)
    return [
        ModeRecord(SECTOR_TRANSVERSE, n, 2.0 * n + 1.0, (2.0 * n + 1.0) * cos_t, 6)
        for n in range(n_max + 1)
    ]


def record_columns(records: list, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Each named attribute of the records as one array, as the report once read them."""
    return tuple(np.array([getattr(r, name) for r in records]) for name in names)
