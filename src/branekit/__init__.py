"""Numerical toolkit for intersecting noncommutative branes at finite truncation.

Builds the truncated operator algebra of a pair of branes intersecting at one
angle, reconstructs the off-diagonal fluctuation spectrum two independent
ways, verifies the block-trace identities behind the quadratic and quartic
action, and traces the recombined geometry after the unstable mode condenses.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .background import block_matrices, build_background
from .condensation import (
    RecombinationCurve,
    analytic_minimum,
    asymmetry_gap,
    condensed_blocks,
    hyperbola_residual,
    numeric_minimum,
    potential_derivative,
    recombined_eigenvalues,
    sample_curve,
)
from .config import RunConfig, build_config, read_config_file
from .identities import (
    check_cross_terms,
    check_expansion,
    check_quartic_t,
    check_quartic_ttilde,
    momentum_polynomial_fluctuation,
    random_fluctuation,
)
from .oscillator import (
    DEFAULT_ANGLE_GUARD,
    bogoliubov_coefficients,
    make_ladder,
    make_qp,
)
from .spectrum import (
    MassOperator,
    TowerMatch,
    analytic_spectrum,
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    mass_scale,
    match_tower,
    numeric_spectrum,
    rotation_u,
    route_equivalence_residual,
    transverse_gap,
    transverse_spectrum,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
