"""Command-line front end: spectrum, identities, condense, curve.

Each command returns a :class:`Report`; ``main`` renders it once, in the
configured format, to --out (or stdout) and writes its notes to stderr.
Exit codes: 0 success, 1 verification failure, 2 invalid input.  Identical
configuration (including the seed) produces byte-identical reports on one BLAS
kernel; another may move the last digits of ``identities`` residuals, never a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import __version__
from .background import MAX_DENSE_LEVELS, build_background
from .condensation import (
    ASYMPTOTES,
    BRANCHES,
    asymmetry_gap,
    numeric_minimum,
    potential_derivative,
    sample_curve,
    tachyon_potential,
)
from .config import (
    FORMAT_DELIMITED,
    FORMAT_STRUCTURED,
    Gate,
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
from .oscillator import make_qp, validate_levels
from .spectrum import (
    analytic_spectrum,
    build_mass_operator_fock,
    build_mass_operator_levels,
    build_mass_operator_qp,
    mass_scale,
    match_tower,
    numeric_spectrum,
    route_equivalence_residual,
    transverse_gap,
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

    ``data`` holds one array of raw scalars per named column, a row per
    index.  A float64 array is formatted once per bit pattern (-0.0 apart
    from 0.0), any other array once per value, so equal values must have
    equal texts there (an object array holds no floats, nor bools beside
    ints).  A row is its columns' values alone, in either format.
    ``fields`` are the ordered summary entries of the structured document,
    where a ``slice`` stands for those rows written as records; those named
    in ``headers`` also head the delimited table as ``# name: value``.
    ``gates`` are the verdicts that decide the exit code, and ``passed``
    holds when every one of them does.  ``notes`` are the stderr lines.
    """

    kind: str
    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]
    fields: tuple[tuple[str, object], ...]
    gates: tuple[Gate, ...]
    notes: tuple[str, ...]
    headers: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)


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


def _json(value) -> str:
    """``_plain(value)`` as ``json.dumps(indent=2)`` writes it, nested one level."""
    return json.dumps(_plain(value), indent=2).replace("\n", "\n  ")


def _json_floats(values: list[float]) -> list[str]:
    """``_json`` of each float: its 15-digit text, spelled as the repr of that rounding.

    A normal float's 15-digit text names it alone, so repr writes the same
    digits.  Only texts where the two can differ are re-parsed: those with
    no "." (integers, which repr writes as "3.0", -0, nan, inf, "1e+16"),
    at exponent 15 (which repr writes out), at exponents -30 to -39 and
    below -299 (which hold the subnormals, whose fewer bits repr may spell
    in fewer digits, as "5e-324") and at 308 (which may round up to inf).
    """
    return [
        t if "." in t and not ("e+15" in t or "e-3" in t or "e+308" in t) else json.dumps(float(t))
        for t in map("%.15g".__mod__, values)
    ]


def _rows(report: Report, sep: str, prefixes, float_texts, text) -> list[str]:
    """Each row's texts, each behind its column's prefix, joined by ``sep``."""
    columns = []
    for prefix, values in zip(prefixes, report.data):
        if values.dtype == float:
            bits, index = np.unique(values.view(np.int64), return_inverse=True)
            texts = list(map(prefix.__add__, float_texts(bits.view(float).tolist())))
            columns.append(list(map(texts.__getitem__, index.tolist())))
        else:
            values = values.tolist()
            memo = {v: prefix + text(v) for v in set(values)}
            columns.append(list(map(memo.__getitem__, values)))
    return list(map(sep.join, zip(*columns)))


def _delimited(report: Report, config: RunConfig) -> str:
    fields = dict(report.fields)
    lines = [
        f"# theta={_text(config.theta)} z2={_text(config.z2)} R={_text(config.R)}",
        f"# columns: {','.join(report.columns)}",
    ]
    lines.extend(f"# {name}: {_text(fields[name])}" for name in report.headers)
    g15 = "%.15g".__mod__
    lines.extend(_rows(report, ",", [""] * len(report.columns), lambda v: map(g15, v), _text))
    return "\n".join(lines) + "\n"


def _structured(report: Report, config: RunConfig) -> str:
    """The document ``json.dumps(indent=2)`` writes, assembled entry by entry.

    A record is its column texts, each behind its ``,\\n      "name": ``
    prefix; a record slice joins its records as the encoder indents a list.
    """
    names = map(json.dumps, report.columns)
    prefixes = [f'{"," * bool(i)}\n      {name}: ' for i, name in enumerate(names)]
    records = _rows(report, "", prefixes, _json_floats, lambda v: json.dumps(_plain(v)))
    params = ("theta", "z2", "R", "N", "margin_k", "n_max", "seed")
    doc = {
        "report": report.kind,
        "params": {name: _plain(getattr(config, name)) for name in params},
        "tolerances": {k: _plain(v) for k, v in sorted(config.tolerances.items())},
        **dict(report.fields),
        "passed": report.passed,
    }
    parts = []
    for key, value in doc.items():
        parts += (",\n  " if parts else "{\n  ", json.dumps(key), ": ")
        if not isinstance(value, slice):
            parts.append(_json(value))
        elif records[value]:
            parts += ("[\n    {", "\n    },\n    {".join(records[value]), "\n    }\n  ]")
        else:
            parts.append("[]")
    return "".join(parts + ["\n}\n"])


RENDERERS = {FORMAT_DELIMITED: _delimited, FORMAT_STRUCTURED: _structured}


def _columns(records: Sequence, names: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """Each named attribute of the records as one array (ints and None: an object array)."""
    return tuple(np.array([getattr(r, name) for r in records]) for name in names)


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> Report:
    params = (config.theta, config.z2, config.R, config.N)
    op_qp = build_mass_operator_qp(*params)
    op_fock = build_mass_operator_fock(*params)
    op_levels = build_mass_operator_levels(*params)

    route_residual = route_equivalence_residual(op_qp, op_fock, config.margin_k)
    modes = numeric_spectrum(op_levels, config.margin_k, config.tol("trust_mass"))
    match_tol = config.tol("eigenvalue_match")
    match = match_tower(modes, tol_units=match_tol)

    trusted_negative = modes.units[modes.trusted & (modes.units < -match_tol)].tolist()
    tachyon_gap = abs(trusted_negative[0] + 1.0) if len(trusted_negative) == 1 else math.nan
    route, tower, tachyon, transverse = gates = (
        Gate("route equivalence residual", route_residual, config.tol("route_equivalence")),
        Gate("tower", len(match.unmatched), 0),
        Gate("tachyon line", tachyon_gap, match_tol),
        Gate("transverse field-3 gap", transverse_gap(op_levels, config.margin_k), match_tol),
    )
    transverse_horizon = config.N - 1 - config.margin_k

    # a line is trusted up to its horizon
    tables = (
        (analytic_spectrum(config.n_max, config.theta, config.z2, config.R), match.horizon),
        (transverse_spectrum(config.n_max, config.theta), transverse_horizon if transverse.ok else -1),
    )
    records = [r for table, _ in tables for r in table]
    horizons = [horizon for table, horizon in tables for _ in table]
    columns = ("sector", "n", "eigenvalue_units", "eigenvalue_raw", "multiplicity")
    data = _columns(records, columns)
    return Report(
        kind="spectrum",
        columns=(*columns, "trusted"),
        data=(*data, data[1] <= horizons),
        fields=(
            ("scale", op_levels.scale),
            ("route_equivalence_residual", route_residual),
            ("trust_horizon", match.horizon),
            ("trusted_count", match.trusted_count),
            ("records", RECORDS),
        ),
        headers=("scale", "route_equivalence_residual", "trust_horizon"),
        gates=gates,
        notes=(
            f"scale 4*pi*z2*R*cos(theta) = {op_levels.scale:.6g}",
            f"{route.name} = {route}",
            f"trust horizon n <= {match.horizon} with {match.trusted_count} trusted eigenvalues"
            f" ({'all matched' if tower.ok else 'UNMATCHED PRESENT'})",
            f"tachyon line: {'unique trusted negative at -scale' if tachyon.ok else 'MISSING OR NOT UNIQUE'}",
            f"{transverse.name} = {transverse}",
        ),
    )


# -------------------------------------------------------------- identities


#: Trials per identities run.  Expansion sizes repeat every 7 trials and background
#: sizes every 5; one stack per size would peak at 3.2 MB, so the stacks are twice as far apart.
N_TRIALS = 100


def _trial_reports(config: RunConfig, trials: range = range(N_TRIALS)) -> list:
    """Each of the ``trials``' expansion and cross-term reports, in trial order.

    The trials 14 apart share their expansion size and run as one stack, then
    those 10 apart their background, with its P and its powers built once.
    Each trial draws from its own generator, the expansion first, so the
    stacks may run in any order.
    """
    rngs = {t: np.random.default_rng(config.seed + t) for t in trials}
    rows = {}
    for stack in (trials[k::14] for k in range(min(14, len(trials)))):
        dim = 2 + stack[0] % 7
        xs = np.stack([random_hermitian(rngs[t], 2 * dim) for t in stack])
        ts = np.stack([random_fluctuation(rngs[t], dim) for t in stack])
        for t, report in zip(stack, check_expansion(xs, ts, [config.seed + t for t in stack])):
            rows[t] = [report]
    for stack in (trials[k::10] for k in range(min(10, len(trials)))):
        bg_dim = 4 + stack[0] % 5
        thetas = [float(rngs[t].uniform(0.0, math.pi / 2 - 0.2)) for t in stack]
        q, p = make_qp(bg_dim, config.z2)
        xs = build_background(thetas, q, p)
        generic = np.stack([random_fluctuation(rngs[t], bg_dim) for t in stack])
        momentum = momentum_polynomial_fluctuation(p, [rngs[t] for t in stack])
        cross, n = check_cross_terms(xs, generic, momentum), len(stack)
        for k, t in enumerate(stack):
            rows[t] += cross[2 * k : 2 * k + 2] + cross[2 * (n + k) : 2 * (n + k) + 2]
    return [report for t in trials for report in rows[t]]


def cmd_identities(config: RunConfig, args: argparse.Namespace) -> Report:
    # checked and built first, so a bad size or an overflowing P fails before any trial runs
    n_levels = max(config.N // 4, 4)
    validate_levels("dense background", n_levels, MAX_DENSE_LEVELS)
    _, p = make_qp(n_levels, config.z2)
    reports = _trial_reports(config)

    rng = np.random.default_rng(config.seed)
    dim = 5
    equal = random_complex(rng, 1, dim, dim)[[0, 0, 0]]
    reports.append(check_quartic_t(equal, seed=config.seed))
    rank_one = np.stack([np.outer(*rng.standard_normal((2, dim))) for _ in range(3)])
    reports.append(check_quartic_t(rank_one.astype(complex), seed=config.seed))
    reports.append(check_quartic_t(momentum_polynomial_fluctuation(p, [rng])[0], seed=config.seed))
    generic = random_fluctuation(rng, dim)
    reports.append(check_quartic_t(generic, seed=config.seed))
    reports.append(check_quartic_ttilde(generic, seed=config.seed))
    zero = np.zeros((3, dim, dim), dtype=complex)
    reports.append(check_quartic_ttilde(zero, seed=config.seed))

    violated = Gate("violated identities", sum(r.verdict == VERDICT_VIOLATED for r in reports), 0)
    by_verdict = Counter(r.verdict for r in reports)
    notes = (
        f"{len(reports)} identity evaluations: "
        + ", ".join(f"{k}={v}" for k, v in sorted(by_verdict.items())),
        "quartic closed forms are recorded against the block-trace oracle; a form "
        "holds where its residual is within 1e-10 of max(1, |lhs|, |rhs|)",
    )
    if not violated.ok:
        notes += (f"FAIL: {violated.value} exact/pass identities violated",)
    columns = ("identity", "seed", "dim", "lhs", "rhs", "residual", "verdict")
    return Report(
        kind="identities",
        columns=columns,
        data=_columns(reports, columns),
        fields=(("trials", N_TRIALS), ("records", RECORDS), ("violations", violated.value)),
        gates=(violated,),
        notes=notes,
    )


# ---------------------------------------------------------------- condense


def cmd_condense(config: RunConfig, args: argparse.Namespace) -> Report:
    pot = tachyon_potential(config.theta, config.z2, config.R)
    stationarity_scale = 2.0 * mass_scale(config.theta, config.z2, config.R) * pot.tmin
    stationarity_tol = config.tol("stationarity") * max(1.0, stationarity_scale)
    # Python floats overflow to inf silently, and no verdict can rest on an infinite bound
    closed_forms = ("quad", pot.quad), ("tmin_analytic", pot.tmin), ("vmin", pot.vmin)
    for name, value in (*closed_forms, ("stationarity bound", stationarity_tol)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} overflows to {value!r}")
    tmin_numeric = numeric_minimum(config.theta, config.z2, config.R)
    stationarity = abs(potential_derivative(pot.tmin, config.theta, config.z2, config.R))
    # relative below tmin = 1, where an absolute bound could not see a miss
    gap_tol = config.tol("minimizer") * min(1.0, pot.tmin)
    gap, stationary = gates = (
        Gate("analytic/numeric minimizer disagreement", abs(tmin_numeric - pot.tmin), gap_tol),
        Gate("stationarity residual at the analytic minimum", stationarity, stationarity_tol),
    )
    failed = [gate.name for gate in gates if not gate.ok]
    columns = ("quad", "quart", "tmin_analytic", "tmin_numeric", "vmin", "stationarity_residual")
    values = (pot.quad, pot.quart, pot.tmin, tmin_numeric, pot.vmin, stationarity)
    return Report(
        kind="condense",
        columns=columns,
        data=tuple(np.array([v]) for v in values),
        fields=tuple(zip(columns, values)),
        gates=gates,
        notes=(
            f"tmin analytic = {pot.tmin:.6g}, numeric = {tmin_numeric:.6g}, gap {gap}",
            f"vmin = {pot.vmin:.6g}, stationarity residual {stationary}",
            f"FAIL: {'; '.join(failed)}" if failed else "pass",
        ),
    )


# ------------------------------------------------------------------- curve


def cmd_curve(config: RunConfig, args: argparse.Namespace) -> Report:
    curve = sample_curve(args.x0_min, args.x0_max, args.points, config.theta, config.z2)
    gap, tol = asymmetry_gap(curve), config.tol
    gates = (
        Gate("max hyperbola residual", curve.max_residual, tol("hyperbola")),
        Gate("max closed-form/eigensolve gap", curve.max_eigensolve_gap, tol("block_eigensolve")),
    )
    split = curve.x_d.size
    return Report(
        kind="curve",
        columns=("x0", "branch", "x_d", "y_d", "residual"),
        # the branch points, then the asymptotes, grid value by grid value
        data=(
            np.tile(np.repeat(curve.grid, 2), 2),
            np.repeat([BRANCHES, ASYMPTOTES], curve.grid.size, axis=0).ravel(),
            np.concatenate((curve.x_d, curve.asym_x), axis=None),
            np.concatenate((curve.y_d, curve.asym_y), axis=None),
            np.concatenate((curve.residual, np.zeros_like(curve.asym_y)), axis=None),
        ),
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
        gates=gates,
        notes=(*(f"{gate.name} = {gate}" for gate in gates), f"asymmetry gap = {gap:.6g}"),
    )


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are ``ValueError``s, so a bad flag value is one ``error:`` line."""

    def _raise(self, message: str):
        raise ValueError(message)

    error = _raise  # the hook argparse calls on every parse error


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by every later one."""
    parser = _Parser(
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
    try:
        args = _build_parser().parse_args(argv)
        config_path = args.config or default_config_path()
        file_values = read_config_file(config_path) if config_path else None
        overrides = {name: getattr(args, name) for name in ("theta", "z2", "R", "N", "seed")}
        config = build_config(file_values, {**overrides, "output_format": args.format})
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
        # overflowing inputs, and `curve --points`, a size with no bound of
        # its own that cannot be allocated
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
