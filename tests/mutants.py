"""Mutant catalogue of the verdict code and the array float formatter, run on demand.

pytest does not collect this file (its name does not match ``test_*.py``).
Each mutant replaces one expression in one file under ``src``.  For each,
``src``, ``tests`` and ``pyproject.toml`` are copied to a temporary
directory, the mutant is applied there and the tier-1 suite runs with
``-x``: the mutant is killed when a test fails.  The unmutated copy runs
first and must pass.  ``test_every_mutant_anchor_occurs_once_in_its_file``,
which checks this catalogue against the unmutated ``src``, is left out of
those runs, since a mutant removes its own anchor.  From the repository root:

    python3 tests/mutants.py            # every mutant, 10-30 s each
    python3 tests/mutants.py gate-ok-2x tachyon-not-unique

It prints ``killed`` with the first failing test, or ``survived``, per
mutant.  A known survivor carries its reason.  The exit status is 1 when
the unmutated copy fails or a mutant survives that is not known to.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    known: str = ""  # why it survives, for a known survivor


MUTANTS = (
    # the one comparison every exit-code verdict goes through
    Mutant(
        "gate-ok-2x",
        "src/branekit/config.py",
        "self.value <= self.bound",
        "self.value <= 2 * self.bound",
    ),
    Mutant(
        "gate-ok-10x",
        "src/branekit/config.py",
        "self.value <= self.bound",
        "self.value <= 10 * self.bound",
    ),
    Mutant(
        "gate-ok-infinite-bound",
        "src/branekit/config.py",
        "return (self.value <= self.bound) & (abs(self.bound) < math.inf)",
        "return self.value <= self.bound",
    ),
    # call sites of the gates of spectrum and curve
    Mutant(
        "tachyon-not-unique",
        "src/branekit/cli.py",
        "if len(trusted_negative) == 1 else math.nan",
        "if len(trusted_negative) >= 1 else math.nan",
    ),
    Mutant(
        "transverse-1e3x",
        "src/branekit/cli.py",
        "transverse_gap(op_levels, config.margin_k), match_tol)",
        "transverse_gap(op_levels, config.margin_k), 1e3 * match_tol)",
    ),
    Mutant(
        "hyperbola-10x",
        "src/branekit/cli.py",
        'TOLERANCES["hyperbola"]',
        '10 * TOLERANCES["hyperbola"]',
    ),
    Mutant(
        "eigensolve-1e3x",
        "src/branekit/cli.py",
        'TOLERANCES["block_eigensolve"]',
        '1e3 * TOLERANCES["block_eigensolve"]',
    ),
    # identities records that no honest input brings near their bounds
    Mutant(
        "cross-linear-pass-tol",
        "src/branekit/identities.py",
        "linear, zeros, EXACT_TOL, lin_scales",
        "linear, zeros, PASS_TOL, lin_scales",
        "a structural zero: [X_i, X_j][X_i, A_j] is block-off-diagonal, so traceless",
    ),
    Mutant(
        "cross-cubic-scale-1e6",
        "src/branekit/identities.py",
        "PASS_TOL, cub_scales[count:], VERDICT_PASS",
        "PASS_TOL, cub_scales[count:] * 1e6, VERDICT_PASS",
        "a structural zero: [X_i, A_j][A_i, A_j] is block-off-diagonal, so traceless",
    ),
    Mutant(
        "expansion-1e-6",
        "src/branekit/identities.py",
        "lhs, rhs, PASS_TOL, scales, VERDICT_EXACT",
        "lhs, rhs, 1e-6, scales, VERDICT_EXACT",
        "the expansion is bilinearity, which holds for any matrices to rounding",
    ),
    Mutant(
        "tower-odd-from-zero",
        "src/branekit/spectrum.py",
        "(odd >= 1)",
        "(odd >= 0)",
        "equivalent: with units >= 0, odd = 0 needs units = 0, which the zero test counts",
    ),
    # the other spectrum gates: the solve's input checks, trust and the tower
    Mutant(
        "hermitian-10x",
        "src/branekit/spectrum.py",
        "if not herm <= 1e-10 * op.scale:",
        "if not herm <= 1e-9 * op.scale:",
    ),
    Mutant(
        "trust-mass-strict",
        "src/branekit/spectrum.py",
        "masses <= mass_threshold",
        "masses < mass_threshold",
    ),
    Mutant(
        "outside-blocks-slack",
        "src/branekit/spectrum.py",
        "if np.count_nonzero(band) != kept:",
        "if np.count_nonzero(band) > kept + 1:",
    ),
    Mutant(
        "outside-blocks-removed",
        "src/branekit/spectrum.py",
        "if np.count_nonzero(band) != kept:",
        "if False:",
    ),
    Mutant(
        "finite-eigenvalues-any",
        "src/branekit/spectrum.py",
        "if not np.isfinite(values).all():",
        "if not np.isfinite(values).any():",
    ),
    Mutant(
        "count-near-window-low-1x",
        "src/branekit/spectrum.py",
        "targets - 2.0 * tol",
        "targets - 1.0 * tol",
    ),
    Mutant(
        "count-near-window-high-1x",
        "src/branekit/spectrum.py",
        "targets + 2.0 * tol",
        "targets + 1.0 * tol",
    ),
    Mutant(
        "tower-without-tachyon",
        "src/branekit/spectrum.py",
        "if tachyons >= 1:",
        "if tachyons >= 0:",
    ),
    Mutant(
        "tower-multiplicity-1",
        "src/branekit/spectrum.py",
        "np.minimum(levels + 1, 2)",
        "np.minimum(levels + 1, 1)",
    ),
    Mutant(
        "route-edge-k-1",
        "src/branekit/spectrum.py",
        "max(0, k - 2)",
        "max(0, k - 1)",
    ),
    Mutant(
        "route-edge-k-3",
        "src/branekit/spectrum.py",
        "max(0, k - 2)",
        "max(0, k - 3)",
    ),
    Mutant(
        "route-builtin-max",
        "src/branekit/spectrum.py",
        "float(np.max(row_residuals) / op_fock.scale)",
        "float(max(row_residuals) / op_fock.scale)",
    ),
    Mutant(
        "route-field-3-dropped",
        "src/branekit/spectrum.py",
        "for a in range(3):",
        "for a in range(2):",
    ),
    Mutant(
        "transverse-line-shift",
        "src/branekit/spectrum.py",
        "units - (2.0 * levels + 1.0)",
        "units - (2.0 * levels + 1.0 + 5e-7)",
    ),
    # the closed-form tables a spectrum report lists
    Mutant(
        "tower-pair-from-level-2-dropped",
        "src/branekit/spectrum.py",
        "np.minimum(levels, 2) + 1",
        "np.minimum(levels, 1) + 1",
    ),
    Mutant(
        "transverse-multiplicity-5",
        "src/branekit/spectrum.py",
        "SECTOR_TRANSVERSE, n, 6",
        "SECTOR_TRANSVERSE, n, 5",
    ),
    # the bounds of the spectrum, identities and condense gates in cli
    Mutant(
        "route-bound-10x",
        "src/branekit/cli.py",
        'TOLERANCES["route_equivalence"])',
        '10 * TOLERANCES["route_equivalence"])',
    ),
    Mutant(
        "tower-bound-1",
        "src/branekit/cli.py",
        'Gate("tower", len(match.unmatched), 0)',
        'Gate("tower", len(match.unmatched), 1)',
    ),
    Mutant(
        "tachyon-negative-2x",
        "src/branekit/cli.py",
        "modes.units < -match_tol",
        "modes.units < -2 * match_tol",
    ),
    Mutant(
        "violated-bound-1",
        "src/branekit/cli.py",
        ".count(VERDICT_VIOLATED), 0)",
        ".count(VERDICT_VIOLATED), 1)",
    ),
    Mutant(
        "minimizer-max",
        "src/branekit/cli.py",
        "min(1.0, tmin)",
        "max(1.0, tmin)",
    ),
    Mutant(
        "minimizer-absolute",
        "src/branekit/cli.py",
        'TOLERANCES["minimizer"] * min(1.0, tmin)',
        'TOLERANCES["minimizer"]',
    ),
    Mutant(
        "stationarity-floor-0.1",
        "src/branekit/cli.py",
        "max(1.0, stationarity_scale)",
        "max(0.1, stationarity_scale)",
    ),
    Mutant(
        "stationarity-min",
        "src/branekit/cli.py",
        "max(1.0, stationarity_scale)",
        "min(1.0, stationarity_scale)",
    ),
    # the condensate, the curve's closed forms and blocks, and the numeric minimizer
    Mutant(
        "hyperbola-shift-swapped",
        "src/branekit/condensation.py",
        "np.add(x_d, (t, -t))",
        "np.add(x_d, (-t, t))",
    ),
    Mutant(
        "minimizer-newton-dropped",
        "src/branekit/condensation.py",
        "(coarse - slope / curvature)",
        "coarse",
    ),
    Mutant(
        "condensate-2x-flux",
        "src/branekit/condensation.py",
        "math.sqrt(math.pi * z2 * math.cos(theta))",
        "math.sqrt(2.0 * math.pi * z2 * math.cos(theta))",
    ),
    Mutant(
        "block-m1-offdiagonal-2x",
        "src/branekit/condensation.py",
        "m1[..., 0, 1] = m1[..., 1, 0] = t",
        "m1[..., 0, 1] = m1[..., 1, 0] = 2 * t",
    ),
    # the check that makes P - P^dag the cross terms' commutator
    Mutant(
        "cross-terms-hermitian-check-dropped",
        "src/branekit/identities.py",
        "if not np.array_equal(xs, xs.conj().swapaxes(-1, -2)):",
        "if False:",
    ),
    # the NaN-scale bound every identities verdict goes through
    Mutant(
        "holds-nan-scale",
        "src/branekit/identities.py",
        "tol * np.maximum(1.0, scales)",
        "tol * np.fmax(1.0, scales)",
    ),
    # the array form of "%.15g" that writes the rows of long reports
    Mutant(
        "fixed-exponent-15",
        "src/branekit/cli.py",
        "(rounded < 1e15)",
        "(rounded <= 1e15)",
    ),
    Mutant(
        "fixed-ties-kept",
        "src/branekit/cli.py",
        " & (remainder != 0.5)",
        "",
    ),
    Mutant(
        "fixed-trailing-zero-kept",
        "src/branekit/cli.py",
        "decimals + 1, len(integral)",
        "decimals + 2, len(integral)",
    ),
)


#: Checks this catalogue against the unmutated ``src``; a mutated copy fails it by construction.
ANCHOR_TEST = "tests/test_cli.py::test_every_mutant_anchor_occurs_once_in_its_file"


def run_tier1(root: Path) -> tuple[bool, str]:
    """Whether tier-1 passes in ``root``, and the first failing test if not."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["--deselect", ANCHOR_TEST]
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else done.stdout[-200:].strip()


def verdict(mutant: Mutant | None) -> tuple[bool, str]:
    """Tier-1 on a fresh copy of the repository, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="branekit-mutant-") as tmp:
        root = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(REPO / tree, root / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "pyproject.toml", root)
        if mutant:
            path = root / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: {mutant.old!r} is not once in {mutant.path}")
            path.write_text(text.replace(mutant.old, mutant.new))
        return run_tier1(root)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    passed, detail = verdict(None)
    print(f"{'pass' if passed else 'FAIL':9} unmutated  {'' if passed else detail}", flush=True)
    if not passed:
        return 1
    open_survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        survived, detail = verdict(mutant)
        if survived:
            open_survivors += not mutant.known
            detail = f"known: {mutant.known}" if mutant.known else "NOT KILLED"
        print(f"{'survived' if survived else 'killed':9} {mutant.name}  {detail}", flush=True)
    return 1 if open_survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
