"""Output checks made by the benchmark itself, independent of the program's verdict.

The program's own pass/fail verdict is not trusted: a verdict computed from
NaN can still read "pass".  Each CLI invocation is checked here for

* exit code 0;
* every number in the report and on stderr being finite;
* the row count: 4 x points for ``curve``, 506 records for ``identities``;
* a trust horizon of at least N - margin_k - 1 for ``spectrum``.

Byte-identity on a rerun is checked by the worker, which holds both reports.
"""

from __future__ import annotations

import json
import math

DEFAULT_N = 24
DEFAULT_MARGIN_K = 4
DEFAULT_POINTS = 101
#: 100 randomized trials of five evaluations each, plus six quartic checks.
IDENTITY_RECORDS = 506


def argv_options(argv) -> dict[str, str]:
    """The ``--key=value`` options of an argv list (the only form the workloads use)."""
    return dict(item[2:].partition("=")[::2] for item in argv[1:] if item.startswith("--"))


def _nonfinite_tokens(text: str, separators: str) -> list[str]:
    bad = []
    for sep in separators:
        text = text.replace(sep, " ")
    for token in text.split():
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(token)
    return bad


def _walk_numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _walk_numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk_numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _parse_structured(text: str) -> tuple[dict, list[str]]:
    constants: list[str] = []

    def reject_constant(name: str) -> float:
        constants.append(name)
        return 0.0

    doc = json.loads(text, parse_constant=reject_constant)
    bad = constants + [repr(v) for v in _walk_numbers(doc) if not math.isfinite(v)]
    return doc, bad


def _parse_delimited(text: str) -> tuple[dict, list[str]]:
    headers: dict[str, str] = {}
    rows: list[str] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                headers[key] = value
        elif line:
            rows.append(line)
    bad = _nonfinite_tokens(text.replace("#", " "), ",=:")
    doc = {"rows": rows, "headers": headers}
    return doc, bad


def check_output(argv, code, stdout: str, stderr: str) -> tuple[list[str], dict]:
    """Problems found in one invocation's output, plus facts read from it.

    Facts: ``rows`` (record count), and for ``spectrum`` the
    ``trust_horizon`` and the scale-relative ``route_residual``.
    """
    command = argv[0]
    options = argv_options(argv)
    problems: list[str] = []
    facts: dict = {}
    if code != 0:
        problems.append(f"exit code {code!r}")
    bad = _nonfinite_tokens(stderr, ",=:()")
    if bad:
        problems.append(f"non-finite numbers on stderr: {bad[:3]}")
    if not stdout:
        problems.append("empty report")
        return problems, facts

    structured = options.get("format") == "structured"
    try:
        doc, bad = _parse_structured(stdout) if structured else _parse_delimited(stdout)
    except ValueError as exc:
        problems.append(f"unparseable report: {exc}")
        return problems, facts
    if bad:
        problems.append(f"non-finite numbers in report: {bad[:3]}")

    if structured:
        if command == "curve":
            rows = len(doc.get("points", [])) + len(doc.get("asymptotes", []))
        else:
            rows = len(doc.get("records", []))
        horizon = doc.get("trust_horizon")
        residual = doc.get("route_equivalence_residual")
    else:
        rows = len(doc["rows"])
        horizon = doc["headers"].get("trust_horizon")
        residual = doc["headers"].get("route_equivalence_residual")
    facts["rows"] = rows

    if command == "curve":
        expected = 4 * int(options.get("points", DEFAULT_POINTS))
        if rows != expected:
            problems.append(f"curve has {rows} rows, expected {expected}")
    elif command == "identities" and rows != IDENTITY_RECORDS:
        problems.append(f"identities has {rows} records, expected {IDENTITY_RECORDS}")
    elif command == "spectrum":
        floor = int(options.get("N", DEFAULT_N)) - DEFAULT_MARGIN_K - 1
        try:
            facts["trust_horizon"] = int(horizon)
            facts["route_residual"] = float(residual)
        except (TypeError, ValueError):
            problems.append("spectrum report lacks trust_horizon or route residual")
        else:
            if facts["trust_horizon"] < floor:
                problems.append(f"trust horizon {facts['trust_horizon']} below {floor}")
    return problems, facts
