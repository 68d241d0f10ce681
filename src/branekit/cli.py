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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .background import build_background
from .condensation import (
    ASYMPTOTES,
    BRANCHES,
    analytic_minimum,
    asymmetry_gap,
    numeric_minimum,
    potential_derivative,
    sample_curve,
)
from .config import (
    FORMAT_DELIMITED,
    FORMAT_STRUCTURED,
    TOLERANCES,
    Gate,
    RunConfig,
    build_config,
    default_config_path,
    read_config_file,
)
from .identities import (
    PASS_TOL,
    RECORD,
    VERDICT_VIOLATED,
    check_cross_terms,
    check_expansion,
    check_quartic_t,
    check_quartic_ttilde,
    expansion_draws,
    momentum_polynomial_fluctuation,
    random_complex,
    random_fluctuation,
)
from .oscillator import make_qp
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
    ints), and no text may hold a NUL character.  A row is its columns'
    values alone, in either format.  A report of ``TABLE_ROWS`` rows or more
    is written as one byte table whose NUL bytes are dropped, a shorter one
    a string per row; both write the same bytes.
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


class _Spelling(NamedTuple):
    """How a format writes a column's values."""

    floats: Callable[[list[float]], list[str]]  # a list of floats, one text each
    text: Callable[[object], str]  # any other value
    integral: str  # what follows the digits of an integral float in fixed notation


_DELIMITED = _Spelling(lambda values: list(map("%.15g".__mod__, values)), _text, "")
_STRUCTURED = _Spelling(_json_floats, lambda value: json.dumps(_plain(value)), ".0")

#: Rows from which ``_rows`` writes a report as one byte table (``_table``).
#: Where the table starts to pay depends on the report (README): a ``curve``
#: report gains from about 130 rows, a ``spectrum`` one from 200-800, and the
#: 506 rows of ``identities`` are faster written row by row.
TABLE_ROWS = 1024
#: Rows of that table built, and distinct floats formatted, at a time: a long
#: report's table is never whole, and each step's arrays stay in cache.
CHUNK_ROWS = 2048


def _rows(report: Report, joiner: str, sep: str, prefixes, spelling: _Spelling):
    """A function of a row slice: the texts of those rows, as a list of runs.

    A row is its columns' texts, each behind its column's prefix, joined by
    ``sep``.  A run is one or more rows joined by ``joiner``, and the runs are
    to be joined by it too.  Below ``TABLE_ROWS`` each row is a run.
    """
    if report.data[0].size >= TABLE_ROWS:
        return _table(report, joiner, sep, prefixes, spelling)
    columns = []
    for prefix, values in zip(prefixes, report.data):
        if values.dtype == float:
            bits, index = np.unique(values.view(np.int64), return_inverse=True)
            texts = list(map(prefix.__add__, spelling.floats(bits.view(float).tolist())))
            columns.append(list(map(texts.__getitem__, index.tolist())))
        else:
            values = values.tolist()
            memo = {v: prefix + spelling.text(v) for v in set(values)}
            columns.append(list(map(memo.__getitem__, values)))
    return list(map(sep.join, zip(*columns))).__getitem__


def _table(report: Report, joiner: str, sep: str, prefixes, spelling: _Spelling):
    """``_rows`` as one ``uint8`` table, a row per report row, its NUL bytes dropped.

    Each column is a matrix of its texts, one NUL-padded row per distinct value
    (one matrix for all float columns), gathered back by row; the text before
    each column is a constant block.  A run is ``CHUNK_ROWS`` rows of the
    table, its first row without its joiner.
    """
    size = report.data[0].size
    # the distinct bit patterns of all float columns, each formatted once
    bits = [values.view(np.int64) for values in report.data if values.dtype == float]
    distinct, index = np.unique(np.concatenate([*bits, np.empty(0, np.int64)]), return_inverse=True)
    float_texts = _float_texts(distinct.view(float), spelling)
    indexes = iter(index.reshape(-1, size))
    blocks = []
    for lead, prefix, values in zip([joiner] + [sep] * len(prefixes), prefixes, report.data):
        if values.dtype == float:
            texts, index = float_texts, next(indexes)
        else:
            distinct, index = _distinct(values)
            texts = _byte_rows([spelling.text(v) for v in distinct])
        blocks.append((np.frombuffer((lead + prefix).encode(), np.uint8), texts, index))
    width = sum(head.size + texts.shape[1] for head, texts, _ in blocks)
    skip = len(joiner.encode())

    def runs(span: slice) -> list[str]:
        start, stop, _ = span.indices(size)
        out = []
        for first in range(start, stop, CHUNK_ROWS):
            last = min(first + CHUNK_ROWS, stop)
            table = np.empty((last - first, width), np.uint8)
            at = 0
            for head, texts, index in blocks:
                table[:, at : at + head.size] = head
                at += head.size
                table[:, at : at + texts.shape[1]] = texts.take(index[first:last], axis=0)
                at += texts.shape[1]
            table[0, :skip] = 0
            flat = table.ravel()
            out.append(str(flat[flat != 0], "utf-8"))
        return out

    return runs


def _distinct(values: np.ndarray):
    """A non-float column's distinct values, and each row's place among them."""
    if values.dtype != object:
        distinct, index = np.unique(values, return_inverse=True)
        return distinct.tolist(), index
    values = values.tolist()
    places = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(places), np.fromiter(map(places.__getitem__, values), np.intp, len(values))


def _byte_rows(texts: list[str]) -> np.ndarray:
    """Each text in UTF-8 as one NUL-padded ``uint8`` row."""
    rows = np.array([text.encode() for text in texts], dtype=bytes)
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)


# The array form of "%.15g" in fixed notation.  For 1e-4 <= |v| < 1e15 with
# decimal exponent e, |v| * 10**(14 - e) lies in [1e14, 1e15), and since
# 10**k is exact for k <= 18 the float product is that number correctly
# rounded.  Floats there are at most 1/8 apart, so each n + 0.5 is one, and
# rounding is monotone: the product's remainder is above (below) a half
# exactly when the exact one is, and a half only for a tie or a value that
# rounds onto one.  The product therefore decides the correctly rounded
# 15-digit integer wherever its remainder is not a half.

_POW10 = (10 ** np.arange(19)).astype(float)
#: The four digit bytes of each of 0 to 9999, as one ``uint32``.
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_QUADS = _QUADS.view(np.uint32).ravel()
#: Bytes of a float's text: the longest repr ("-2.2250738585072014e-308") and
#: the longest fixed-notation text (sign, "0.", 3 zeros, 15 digits), as 3 uint64s.
_TEXT_WIDTH = 24
#: Byte masks keeping the first 0 to 24 bytes of a text.
_KEEP = (np.arange(_TEXT_WIDTH) < np.arange(_TEXT_WIDTH + 1)[:, None]).astype(np.uint8) * 255


def _fixed(values: np.ndarray, integral: str) -> tuple[np.ndarray, np.ndarray]:
    """The places of the ``values`` written here, and their ``%.15g`` texts as ``uint8`` rows.

    A value is written here when 1e-4 <= |v| < 1e15, its 15-digit rounding
    stays below 1e15 and its product's remainder is no half.  A text is
    NUL-padded to ``_TEXT_WIDTH`` bytes, and an integral one ends with
    ``integral`` ("" or ".0").  Values sorted by bit pattern write each
    sign's texts of one exponent as one block.
    """
    magnitude = np.abs(values)
    places = np.flatnonzero((magnitude >= 1e-4) & (magnitude < 1e15))
    v = magnitude[places]
    exponent = np.clip(np.floor(np.log10(v)), -4, 14).astype(np.intp)
    # an exponent one off (log10 at a power of ten) puts the product out of
    # range, rejected below, or onto 1e14 exactly, whose text is the same
    product = v * _POW10[14 - exponent]
    whole = np.floor(product)
    remainder = product - whole
    rounded = whole + (remainder > 0.5)
    ok = (whole >= 1e14) & (rounded < 1e15) & (remainder != 0.5)
    places, rounded, exponent = places[ok], rounded[ok], exponent[ok]

    # four digits at a time: each quotient floors exactly, lying at least 1e-12
    # below the next integer, beyond the division's rounding
    quads = np.floor(rounded / _POW10[12::-4, None])
    quads[1:] -= quads[:-1] * 1e4
    digits = np.ascontiguousarray(_QUADS[quads.astype(np.intp)].T).view(np.uint8)
    digits = digits[:, 1:]  # the first quad is below 1000
    significant = 15 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    decimals = np.maximum(significant - exponent - 1, 0)
    length = np.maximum(exponent, 0) + 2 + np.where(decimals > 0, decimals + 1, len(integral))

    rows = np.full((places.size, _TEXT_WIDTH), ord("0"), np.uint8)
    negative = values[places] < 0
    rows[:, 0] = negative * ord("-")
    group = exponent + 32 * negative
    starts = np.flatnonzero(np.diff(group, prepend=group[:1] - 1)).tolist()
    for start, stop in zip(starts, starts[1:] + [places.size]):
        e, block, d = exponent[start], rows[start:stop], digits[start:stop]
        if e >= 0:  # d[:e + 1] "." d[e + 1:]
            block[:, 1 : 2 + e] = d[:, : e + 1]
            block[:, 2 + e] = ord(".")
            block[:, 3 + e : 17] = d[:, e + 1 :]
        else:  # "0." -e - 1 zeros, then d
            block[:, 2] = ord(".")
            block[:, 2 - e : 17 - e] = d
    # trailing zeros cut, and "." too where no decimal is left ("0" follows it for ".0")
    rows.view(np.uint64)[:] &= _KEEP[length].view(np.uint64)
    return places, rows


def _float_texts(values: np.ndarray, spelling: _Spelling) -> np.ndarray:
    """Each float's text as ``spelling`` writes it, as one NUL-padded ``uint8`` row.

    ``_fixed`` writes ``CHUNK_ROWS`` values at a time; those it does not
    write are spelled one by one.
    """
    texts = np.zeros((values.size, _TEXT_WIDTH), np.uint8)
    rest = np.ones(values.size, bool)
    for start in range(0, values.size, CHUNK_ROWS):
        places, rows = _fixed(values[start : start + CHUNK_ROWS], spelling.integral)
        texts[start + places] = rows
        rest[start + places] = False
    others = _byte_rows(spelling.floats(values[rest].tolist()))
    texts[rest, : others.shape[1]] = others
    return texts


def _delimited(report: Report, config: RunConfig) -> str:
    fields = dict(report.fields)
    lines = [
        f"# theta={_text(config.theta)} z2={_text(config.z2)} R={_text(config.R)}",
        f"# columns: {','.join(report.columns)}",
    ]
    lines.extend(f"# {name}: {_text(fields[name])}" for name in report.headers)
    lines.extend(_rows(report, "\n", ",", [""] * len(report.columns), _DELIMITED)(RECORDS))
    return "\n".join(lines) + "\n"


def _structured(report: Report, config: RunConfig) -> str:
    """The document ``json.dumps(indent=2)`` writes, assembled entry by entry.

    A record is its column texts, each behind its ``,\\n      "name": ``
    prefix; a record slice joins its records as the encoder indents a list.
    """
    names = map(json.dumps, report.columns)
    prefixes = [f'{"," * bool(i)}\n      {name}: ' for i, name in enumerate(names)]
    joiner = "\n    },\n    {"
    records = _rows(report, joiner, "", prefixes, _STRUCTURED)
    params = ("theta", "z2", "R", "N", "margin_k", "n_max", "seed")
    doc = {
        "report": report.kind,
        "params": {name: _plain(getattr(config, name)) for name in params},
        "tolerances": {k: _plain(v) for k, v in sorted(TOLERANCES.items())},
        **dict(report.fields),
        "passed": report.passed,
    }
    parts = []
    for key, value in doc.items():
        parts += (",\n  " if parts else "{\n  ", json.dumps(key), ": ")
        if not isinstance(value, slice):
            parts.append(_json(value))
        elif runs := records(value):
            body = [joiner] * (2 * len(runs) - 1)
            body[::2] = runs
            parts += ("[\n    {", *body, "\n    }\n  ]")
        else:
            parts.append("[]")
    return "".join(parts + ["\n}\n"])


RENDERERS = {FORMAT_DELIMITED: _delimited, FORMAT_STRUCTURED: _structured}


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> Report:
    params = (config.theta, config.z2, config.R, config.N)
    op_qp = build_mass_operator_qp(*params)
    op_fock = build_mass_operator_fock(*params)
    op_levels = build_mass_operator_levels(*params)

    route_residual = route_equivalence_residual(op_qp, op_fock, config.margin_k)
    modes = numeric_spectrum(op_levels, config.margin_k, TOLERANCES["trust_mass"])
    match_tol = TOLERANCES["eigenvalue_match"]
    match = match_tower(modes, tol_units=match_tol)

    trusted_negative = modes.units[modes.trusted & (modes.units < -match_tol)].tolist()
    tachyon_gap = abs(trusted_negative[0] + 1.0) if len(trusted_negative) == 1 else math.nan
    route, tower, tachyon, transverse = gates = (
        Gate("route equivalence residual", route_residual, TOLERANCES["route_equivalence"]),
        Gate("tower", len(match.unmatched), 0),
        Gate("tachyon line", tachyon_gap, match_tol),
        Gate("transverse field-3 gap", transverse_gap(op_levels, config.margin_k), match_tol),
    )
    transverse_horizon = config.N - 1 - config.margin_k if transverse.ok else -1

    offdiag = analytic_spectrum(config.n_max, config.theta, config.z2, config.R)
    table = np.concatenate((offdiag, transverse_spectrum(config.n_max, config.theta)))
    # a line is trusted up to its horizon
    horizons = np.where(np.arange(table.size) < offdiag.size, match.horizon, transverse_horizon)
    return Report(
        kind="spectrum",
        columns=(*table.dtype.names, "trusted"),
        data=(*(table[name] for name in table.dtype.names), table["n"] <= horizons),
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


#: Trials per identities run.  Expansion sizes repeat every 7 trials and background sizes
#: every 5.  The run, one expansion stack per size, peaks at about 1.25 MB; one cross-term
#: stack per size would peak at about 2.2 MB, so those stacks are twice as far apart.
N_TRIALS = 100


def _trial_reports(config: RunConfig, trials: range = range(N_TRIALS)) -> np.ndarray:
    """The ``trials``' records, one row of five per trial: the expansion, then the cross terms.

    The trials 7 apart share their expansion size and run as one stack, then
    those 10 apart their background, with its P and its powers built once; each
    stack fills its rows of the table.  Each trial draws from its own generator,
    the expansion first, so the stacks may run in any order.
    """
    rngs = {t: np.random.default_rng(config.seed + t) for t in trials}
    table = np.empty((len(trials), 5), RECORD)
    for k in range(min(7, len(trials))):
        stack = trials[k::7]
        dim = 2 + stack[0] % 7
        xs, ts = expansion_draws([rngs[t] for t in stack], dim)
        table[k::7, 0] = check_expansion(xs, ts, [config.seed + t for t in stack])
    for k in range(min(10, len(trials))):
        stack = trials[k::10]
        bg_dim = 4 + stack[0] % 5
        thetas = [float(rngs[t].uniform(0.0, math.pi / 2 - 0.2)) for t in stack]
        q, p = make_qp(bg_dim, config.z2)
        xs = build_background(thetas, q, p)
        generic = np.stack([random_fluctuation(rngs[t], bg_dim) for t in stack])
        momentum = momentum_polynomial_fluctuation(p, [rngs[t] for t in stack])
        table[k::10, 1:] = check_cross_terms(xs, generic, momentum).reshape(-1, 4)
    return table


def cmd_identities(config: RunConfig, args: argparse.Namespace) -> Report:
    # built first, so an overflowing P fails before any trial runs
    dim = 5
    _, p = make_qp(dim, config.z2)
    reports = [_trial_reports(config).ravel()]

    rng = np.random.default_rng(config.seed)
    # equal, rank-one real, momentum-polynomial and generic blocks, drawn in that order
    direct = [
        random_complex(rng, 1, dim, dim)[[0, 0, 0]],
        np.stack([np.outer(*rng.standard_normal((2, dim))) for _ in range(3)]).astype(complex),
        momentum_polynomial_fluctuation(p, [rng])[0],
        random_fluctuation(rng, dim),
    ]
    reports += [check_quartic_t(ts, seed=config.seed) for ts in direct]
    rotated = (direct[-1], np.zeros((3, dim, dim), dtype=complex))
    reports += [check_quartic_ttilde(ts, seed=config.seed) for ts in rotated]

    table = np.concatenate(reports)
    violated = Gate("violated identities", table["verdict"].tolist().count(VERDICT_VIOLATED), 0)
    notes = (
        f"{len(table)} identity evaluations: "
        + ", ".join(f"{k}={v}" for k, v in zip(*np.unique(table["verdict"], return_counts=True))),
        "quartic closed forms are recorded against the block-trace oracle; a form "
        f"holds where its residual is within {PASS_TOL:g} of max(1, |lhs|, |rhs|)",
    )
    if not violated.ok:
        notes += (f"FAIL: {violated.value} exact/pass identities violated",)
    return Report(
        kind="identities",
        columns=RECORD.names,
        data=tuple(table[name] for name in RECORD.names),
        fields=(("trials", N_TRIALS), ("records", RECORDS), ("violations", violated.value)),
        gates=(violated,),
        notes=notes,
    )


# ---------------------------------------------------------------- condense


def cmd_condense(config: RunConfig, args: argparse.Namespace) -> Report:
    tmin, vmin = analytic_minimum(config.theta, config.z2, config.R)
    scale = mass_scale(config.theta, config.z2, config.R)
    stationarity_scale = 2.0 * scale * tmin
    stationarity_tol = TOLERANCES["stationarity"] * max(1.0, stationarity_scale)
    # Python floats overflow to inf silently, and no verdict can rest on an infinite bound
    closed_forms = ("quad", -scale), ("tmin_analytic", tmin), ("vmin", vmin)
    for name, value in (*closed_forms, ("stationarity bound", stationarity_tol)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} overflows to {value!r}")
    tmin_numeric = numeric_minimum(config.theta, config.z2, config.R)
    stationarity = abs(potential_derivative(tmin, config.theta, config.z2, config.R))
    # relative below tmin = 1, where an absolute bound could not see a miss
    gap_tol = TOLERANCES["minimizer"] * min(1.0, tmin)
    gap, stationary = gates = (
        Gate("analytic/numeric minimizer disagreement", abs(tmin_numeric - tmin), gap_tol),
        Gate("stationarity residual at the analytic minimum", stationarity, stationarity_tol),
    )
    failed = [gate.name for gate in gates if not gate.ok]
    columns = ("quad", "quart", "tmin_analytic", "tmin_numeric", "vmin", "stationarity_residual")
    values = (-scale, config.R, tmin, tmin_numeric, vmin, stationarity)
    return Report(
        kind="condense",
        columns=columns,
        data=tuple(np.array([v]) for v in values),
        fields=tuple(zip(columns, values)),
        gates=gates,
        notes=(
            f"tmin analytic = {tmin:.6g}, numeric = {tmin_numeric:.6g}, gap {gap}",
            f"vmin = {vmin:.6g}, stationarity residual {stationary}",
            f"FAIL: {'; '.join(failed)}" if failed else "pass",
        ),
    )


# ------------------------------------------------------------------- curve


def cmd_curve(config: RunConfig, args: argparse.Namespace) -> Report:
    curve = sample_curve(args.x0_min, args.x0_max, args.points, config.theta, config.z2)
    gap = asymmetry_gap(curve)
    gates = (
        Gate("max hyperbola residual", curve.max_residual, TOLERANCES["hyperbola"]),
        Gate("max closed-form/eigensolve gap", curve.max_eigensolve_gap, TOLERANCES["block_eigensolve"]),
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
    common.add_argument("--N", type=int, help="Fock truncation per block (spectrum)")
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
