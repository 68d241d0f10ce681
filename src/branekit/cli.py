"""Command-line front end: spectrum, identities, condense, curve.

Each command returns a :class:`Report`; ``main`` renders it once, in the
configured format, to --out (or stdout) and writes its notes to stderr.
Exit codes: 0 success, 1 verification failure, 2 invalid input.  Identical
configuration (including the seed) produces byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import __version__
from .background import build_background
from .condensation import (
    asymmetry_gap,
    numeric_minimum,
    potential_derivative,
    sample_curve,
    tachyon_potential,
)
from .config import (
    FORMAT_DELIMITED,
    FORMAT_STRUCTURED,
    RunConfig,
    build_config,
    default_config_path,
    read_config_file,
)
from .identities import (
    VERDICT_VIOLATED,
    check_cross_terms,
    check_expansion,
    check_quartic_t,
    check_quartic_ttilde,
    momentum_polynomial_fluctuation,
    random_complex,
    random_fluctuation,
    random_hermitian,
)
from .spectrum import (
    analytic_spectrum,
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    fermion_spectrum,
    mass_scale,
    match_tower,
    numeric_spectrum,
    route_equivalence_residual,
    transverse_interior_gap,
    transverse_spectrum,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2

#: A summary field holding every row of the report, written as records.
RECORDS = slice(None)


@dataclass(frozen=True, eq=False)
class Report:
    """What one command found, before it is written in either format.

    ``rows`` hold raw values, one per column; a row may carry one more
    value, ``(name, value)`` extras that only the structured format writes.
    ``fields`` are the ordered summary entries of the structured document,
    where a ``slice`` stands for those rows written as records; the fields
    named in ``headers`` also head the delimited table as ``# name: value``.
    ``notes`` are the stderr lines.
    """

    kind: str
    columns: tuple[str, ...]
    rows: Sequence[tuple]
    fields: tuple[tuple[str, object], ...]
    passed: bool
    notes: tuple[str, ...]
    headers: tuple[str, ...] = ()


def _text(value) -> str:
    """One value as the delimited format writes it."""
    if isinstance(value, float):
        return f"{value:.15g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _plain(value):
    """One value as the structured format writes it: floats to 15 digits."""
    return float(f"{value:.15g}") if isinstance(value, float) else value


def _delimited(report: Report, config: RunConfig) -> str:
    fields = dict(report.fields)
    width = len(report.columns)
    lines = [
        f"# theta={_text(config.theta)} z2={_text(config.z2)} R={_text(config.R)}",
        f"# columns: {','.join(report.columns)}",
    ]
    lines.extend(f"# {name}: {_text(fields[name])}" for name in report.headers)
    lines.extend(",".join([_text(v) for v in row[:width]]) for row in report.rows)
    return "\n".join(lines) + "\n"


def _record(columns: tuple[str, ...], row: tuple) -> dict:
    entry = {name: _plain(value) for name, value in zip(columns, row)}
    if len(row) > len(columns) and row[-1]:
        entry["extra"] = {name: _plain(value) for name, value in row[-1]}
    return entry


def _structured(report: Report, config: RunConfig) -> str:
    params = ("theta", "z2", "R", "N", "margin_k", "n_max", "seed")
    doc = {
        "report": report.kind,
        "params": {name: _plain(getattr(config, name)) for name in params},
        "tolerances": {k: _plain(v) for k, v in sorted(config.tolerances.items())},
    }
    for name, value in report.fields:
        if isinstance(value, slice):
            value = [_record(report.columns, row) for row in report.rows[value]]
        doc[name] = _plain(value)
    doc["passed"] = report.passed
    return json.dumps(doc, indent=2) + "\n"


RENDERERS = {FORMAT_DELIMITED: _delimited, FORMAT_STRUCTURED: _structured}


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> Report:
    bg = build_background(config.theta, config.z2, config.R, config.N)
    op_qp = build_mass_operator_qp(bg)
    op_fock = build_mass_operator_fock(bg)
    op_levels = build_mass_operator_levels(bg)

    route_residual = route_equivalence_residual(op_qp, op_fock, config.margin_k)
    modes = numeric_spectrum(
        op_levels, config.margin_k, mass_threshold=config.tol("trust_mass")
    )
    match_tol = config.tol("eigenvalue_match")
    match = match_tower(modes, tol_units=match_tol)

    trusted_negative = [m for m in modes if m.trusted and m.units < -match_tol]
    tachyon_ok = (
        len(trusted_negative) == 1 and abs(trusted_negative[0].units + 1.0) <= match_tol
    )

    transverse_horizon = config.N - 1 - config.margin_k
    transverse_gap = transverse_interior_gap(config.N, config.margin_k, config.theta)
    transverse_tol = 1e-10 * max(1.0, math.cos(config.theta) * config.N)
    transverse_ok = transverse_gap <= transverse_tol

    # a line is trusted up to its horizon; the fermion table is analytic only
    tables = (
        (analytic_spectrum(config.n_max, config.theta, config.z2, config.R), match.horizon),
        (transverse_spectrum(config.n_max, config.theta), transverse_horizon if transverse_ok else -1),
        (fermion_spectrum(config.n_max, config.theta), -1),
    )
    rows = [
        (r.sector, r.n, r.eigenvalue_units, r.eigenvalue_raw, r.multiplicity, r.n <= horizon)
        for records, horizon in tables
        for r in records
    ]

    route_ok = route_residual <= config.tol("route_equivalence")
    return Report(
        kind="spectrum",
        columns=("sector", "n", "eigenvalue_units", "eigenvalue_raw", "multiplicity", "trusted"),
        rows=rows,
        fields=(
            ("scale", op_levels.scale),
            ("route_equivalence_residual", route_residual),
            ("trust_horizon", match.horizon),
            ("trusted_count", match.trusted_count),
            ("records", RECORDS),
        ),
        headers=("scale", "route_equivalence_residual", "trust_horizon"),
        passed=match.all_matched and tachyon_ok and route_ok and transverse_ok,
        notes=(
            f"scale 4*pi*z2*R*cos(theta) = {op_levels.scale:.6g}",
            f"route equivalence residual = {route_residual:.3e} "
            f"({'pass' if route_ok else 'FAIL'} at {config.tol('route_equivalence'):.1e})",
            f"trust horizon n <= {match.horizon} with {match.trusted_count} trusted eigenvalues"
            f" ({'all matched' if match.all_matched else 'UNMATCHED PRESENT'})",
            f"tachyon line: {'unique trusted negative at -scale' if tachyon_ok else 'MISSING OR NOT UNIQUE'}",
            f"transverse interior gap = {transverse_gap:.3e} "
            f"({'pass' if transverse_ok else 'FAIL'} at {transverse_tol:.1e})",
        ),
    )


# -------------------------------------------------------------- identities


def cmd_identities(config: RunConfig, args: argparse.Namespace) -> Report:
    reports = []
    n_trials = 100
    for trial in range(n_trials):
        seed = config.seed + trial
        rng = np.random.default_rng(seed)
        dim = 2 + trial % 7
        xs = tuple(random_hermitian(rng, 2 * dim) for _ in range(3))
        fluct = random_fluctuation(rng, dim)
        reports.append(check_expansion(xs, fluct, seed=seed))

        bg_dim = 4 + trial % 5
        bg_theta = float(rng.uniform(0.0, math.pi / 2 - 0.2))
        bg = build_background(bg_theta, config.z2, config.R, bg_dim)
        linear, cubic = check_cross_terms(bg, random_fluctuation(rng, bg_dim))
        reports.extend((linear, cubic))
        linear_p, cubic_p = check_cross_terms(
            bg,
            momentum_polynomial_fluctuation(bg, rng),
            fluctuation_class="momentum-polynomial",
        )
        reports.extend((linear_p, cubic_p))

    rng = np.random.default_rng(config.seed)
    dim = 5
    equal = random_complex(rng, dim)
    reports.append(check_quartic_t(equal, equal.copy(), equal.copy(), seed=config.seed))
    rank_one = [
        np.outer(rng.standard_normal(dim), rng.standard_normal(dim)).astype(complex)
        for _ in range(3)
    ]
    reports.append(check_quartic_t(*rank_one, seed=config.seed))
    bg = build_background(config.theta, config.z2, config.R, max(config.N // 4, 4))
    momentum = momentum_polynomial_fluctuation(bg, rng)
    reports.append(check_quartic_t(momentum.t1, momentum.t2, momentum.t3, seed=config.seed))
    generic = [random_complex(rng, dim) for _ in range(3)]
    reports.append(check_quartic_t(*generic, seed=config.seed))
    reports.append(check_quartic_ttilde(*generic, seed=config.seed))
    zero = np.zeros((dim, dim), dtype=complex)
    reports.append(check_quartic_ttilde(zero, zero.copy(), zero.copy(), seed=config.seed))

    violated = [r for r in reports if r.verdict == VERDICT_VIOLATED]
    by_verdict = Counter(r.verdict for r in reports)
    notes = (
        f"{len(reports)} identity evaluations: "
        + ", ".join(f"{k}={v}" for k, v in sorted(by_verdict.items())),
        "quartic closed forms are recorded against the block-trace oracle; "
        "see the 'matched' extras for which convention holds on which inputs",
    )
    if violated:
        notes += (f"FAIL: {len(violated)} exact/pass identities violated",)
    return Report(
        kind="identities",
        columns=("identity", "seed", "dim", "lhs", "rhs", "residual", "verdict"),
        rows=[
            (r.identity, r.seed, r.dim, r.lhs, r.rhs, r.residual, r.verdict, r.extra)
            for r in reports
        ],
        fields=(("trials", n_trials), ("records", RECORDS), ("violations", len(violated))),
        passed=not violated,
        notes=notes,
    )


# ---------------------------------------------------------------- condense


def cmd_condense(config: RunConfig, args: argparse.Namespace) -> Report:
    pot = tachyon_potential(config.theta, config.z2, config.R)
    tmin_numeric = numeric_minimum(
        config.theta, config.z2, config.R, tol=config.tol("minimizer")
    )
    stationarity = abs(potential_derivative(pot.tmin, config.theta, config.z2, config.R))
    stationarity_scale = 2.0 * mass_scale(config.theta, config.z2, config.R) * pot.tmin
    stationarity_tol = config.tol("stationarity") * max(1.0, stationarity_scale)
    minimizer_gap = abs(tmin_numeric - pot.tmin)

    gap_failed = not minimizer_gap <= config.tol("minimizer")
    stationarity_failed = not stationarity <= stationarity_tol
    failed = [
        gate
        for gate, bad in (
            ("analytic/numeric minimizer disagreement", gap_failed),
            ("stationarity residual at the analytic minimum", stationarity_failed),
        )
        if bad
    ]
    columns = ("quad", "quart", "tmin_analytic", "tmin_numeric", "vmin", "stationarity_residual")
    row = (pot.quad, pot.quart, pot.tmin, tmin_numeric, pot.vmin, stationarity)
    return Report(
        kind="condense",
        columns=columns,
        rows=[row],
        fields=tuple(zip(columns, row)),
        passed=not failed,
        notes=(
            f"tmin analytic = {pot.tmin:.6g}, numeric = {tmin_numeric:.6g}, "
            f"gap {minimizer_gap:.3e} "
            f"({'FAIL' if gap_failed else 'pass'} at {config.tol('minimizer'):.1e})",
            f"vmin = {pot.vmin:.6g}, stationarity residual {stationarity:.3e} "
            f"({'FAIL' if stationarity_failed else 'pass'} at {stationarity_tol:.1e})",
            f"FAIL: {'; '.join(failed)}" if failed else "pass",
        ),
    )


# ------------------------------------------------------------------- curve


def cmd_curve(config: RunConfig, args: argparse.Namespace) -> Report:
    curve = sample_curve(args.x0_min, args.x0_max, args.points, config.theta, config.z2)
    gap = asymmetry_gap(curve)

    hyperbola_failed = not curve.max_residual <= config.tol("hyperbola")
    eigensolve_failed = not curve.max_eigensolve_gap <= config.tol("block_eigensolve")
    split = len(curve.points)
    return Report(
        kind="curve",
        columns=("x0", "branch", "x_d", "y_d", "residual"),
        rows=curve.points + curve.asymptotes,
        fields=(
            ("x0_min", args.x0_min),
            ("x0_max", args.x0_max),
            ("n_points", args.points),
            ("max_residual", curve.max_residual),
            ("max_eigensolve_gap", curve.max_eigensolve_gap),
            ("asymmetry_gap", gap),
            ("points", slice(0, split)),
            ("asymptotes", slice(split, None)),
        ),
        passed=not (hyperbola_failed or eigensolve_failed),
        notes=(
            f"max hyperbola residual = {curve.max_residual:.3e} "
            f"({'FAIL' if hyperbola_failed else 'pass'} "
            f"at {config.tol('hyperbola'):.1e})",
            f"max closed-form/eigensolve gap = {curve.max_eigensolve_gap:.3e} "
            f"({'FAIL' if eigensolve_failed else 'pass'} "
            f"at {config.tol('block_eigensolve'):.1e})",
            f"asymmetry gap = {gap:.6g}",
        ),
    )


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branekit",
        description="Fluctuation spectra and tachyon-condensation geometry of "
        "intersecting noncommutative branes at finite truncation.",
    )
    parser.add_argument("--version", action="version", version=f"branekit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--theta", type=float, help="intersection angle, radians")
    common.add_argument("--z2", type=float, help="flux density z^2, length^2")
    common.add_argument("--R", type=float, help="tension scale, energy")
    common.add_argument("--N", type=int, help="Fock truncation per block")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument(
        "--format", choices=(FORMAT_DELIMITED, FORMAT_STRUCTURED), help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("spectrum", cmd_spectrum, "mode table and route equivalence"),
        ("identities", cmd_identities, "trace identity suite"),
        ("condense", cmd_condense, "potential minimum report"),
        ("curve", cmd_curve, "recombination curve data"),
    ):
        sub.add_parser(name, parents=[common], help=text).set_defaults(run=run)
    curve = sub.choices["curve"]
    curve.add_argument("--x0-min", type=float, default=-3.0)
    curve.add_argument("--x0-max", type=float, default=3.0)
    curve.add_argument("--points", type=int, default=101)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_path = args.config or default_config_path()
        file_values = read_config_file(config_path) if config_path else None
        overrides = {
            "theta": args.theta,
            "z2": args.z2,
            "R": args.R,
            "N": args.N,
            "seed": args.seed,
            "output_format": args.format,
        }
        config = build_config(file_values, overrides)
        with np.errstate(over="raise", invalid="raise"):
            report = args.run(config, args)
        text = RENDERERS[config.output_format](report, config)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        for note in report.notes:
            print(note, file=sys.stderr)
        return EXIT_OK if report.passed else EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (MemoryError, OverflowError, FloatingPointError) as exc:
        # inputs too large to allocate or to evaluate in floating point
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
