"""Spans at the program's cross-module boundaries, and the per-layer numbers from them.

A function is traced by rebinding its name in the namespace of each module
that imported it from another branekit module, so only cross-module calls
are timed; a module calling its own helpers is never traced.  Spans (name,
start, end, parent, operation) are kept in memory in flat arrays and written
out once, when the run ends.

One boundary is left out: ``oscillator.validate_angle``.  ``condensation``
calls it several times per curve grid point, and it returns in well under a
microsecond, less than the wrapper needs to record a span.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

#: Layers, in the order they are reported: the modules of ``src/branekit``.
LAYERS = ("cli", "config", "background", "oscillator", "spectrum", "identities", "condensation")

#: Public functions that other branekit modules import, by defining module.
BOUNDARIES = {
    "config": ("build_config", "default_config_path", "read_config_file"),
    "background": ("build_background",),
    "oscillator": ("bogoliubov", "commutator", "make_ladder", "make_qp"),
    "spectrum": (
        "analytic_spectrum",
        "build_mass_operator_fock",
        "build_mass_operator_levels",
        "build_mass_operator_qp",
        "fermion_spectrum",
        "match_tower",
        "numeric_spectrum",
        "rotation_u",
        "route_equivalence_residual",
        "transverse_spectrum",
    ),
    "identities": (
        "check_cross_terms",
        "check_expansion",
        "check_quartic_t",
        "check_quartic_ttilde",
        "momentum_polynomial_fluctuation",
        "random_complex",
        "random_fluctuation",
        "random_hermitian",
    ),
    "condensation": (
        "asymmetry_gap",
        "numeric_minimum",
        "potential_derivative",
        "sample_curve",
        "tachyon_potential",
    ),
}

#: The harness's own entry point into the program.
ENTRY = "cli.main"

#: Counts read from returned objects (per operation), with their units.
COUNTS = {
    "spectrum.eigenvalues": "count",
    "spectrum.trusted_ratio": "ratio",
    "spectrum.operator_bytes": "bytes",
    "identities.evaluations": "count",
    "condensation.points": "count",
    "cli.report_bytes": "bytes",
}


def _count_modes(counts: Counter, modes) -> None:
    counts["spectrum.eigenvalues"] += len(modes)
    counts["spectrum.trusted"] += sum(1 for m in modes if getattr(m, "trusted", False))


def _count_operator(counts: Counter, op) -> None:
    counts["spectrum.operator_bytes"] += getattr(getattr(op, "matrix", None), "nbytes", 0)


def _count_reports(counts: Counter, result) -> None:
    counts["identities.evaluations"] += len(result) if isinstance(result, tuple) else 1


def _count_points(counts: Counter, curve) -> None:
    counts["condensation.points"] += len(getattr(curve, "points", ()))


OBSERVERS = {
    "spectrum.numeric_spectrum": _count_modes,
    "spectrum.build_mass_operator_qp": _count_operator,
    "spectrum.build_mass_operator_fock": _count_operator,
    "spectrum.build_mass_operator_levels": _count_operator,
    "identities.check_expansion": _count_reports,
    "identities.check_cross_terms": _count_reports,
    "identities.check_quartic_t": _count_reports,
    "identities.check_quartic_ttilde": _count_reports,
    "condensation.sample_curve": _count_points,
}


def traced_functions() -> list[str]:
    """Every traced ``<module>.<function>`` name, entry point first."""
    return [ENTRY] + [f"{m}.{f}" for m, names in BOUNDARIES.items() for f in names]


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in reporting order."""
    units: dict[str, str] = {}
    for name in traced_functions():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(COUNTS)
    units["spectrum.trust_horizon_min"] = "level"
    units["spectrum.route_residual_digits"] = "digits"
    units["trace.overhead_s"] = "s"
    units["trace.covered_share"] = "ratio"
    return units


class Tracer:
    """Records spans for wrapped calls; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        observe = OBSERVERS.get(name)
        stack, starts, ends = self._stack, self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def install(self, modules: dict) -> list[tuple]:
        """Rebind every boundary in its callers; returns what ``restore`` needs."""
        saved = []
        for callee, functions in BOUNDARIES.items():
            for function in functions:
                original = getattr(modules[callee], function, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{callee}.{function}", original)
                for caller, module in modules.items():
                    if caller != callee and vars(module).get(function) is original:
                        setattr(module, function, wrapper)
                        saved.append((module, function, original))
        return saved

    @staticmethod
    def restore(saved: list[tuple]) -> None:
        for module, function, original in saved:
            setattr(module, function, original)

    def write(self, path) -> None:
        """Spans as JSON: times in nanoseconds from the first span.

        ``name`` indexes ``names``, ``parent`` is the index of the enclosing
        span (-1 for none) and ``op`` the operation index from the workload.
        """
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round((start - origin) * 1e9), round((end - origin) * 1e9), parent, op]
            for name, start, end, parent, op in zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)
        ]
        columns = ["name", "start_ns", "end_ns", "parent", "op"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "columns": columns, "spans": spans}, handle)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict[str, float]:
    """Per-operation self time and call count for every traced function and layer."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for name_id, own in zip(tracer.name_ids, self_times(tracer.starts, tracer.ends, tracer.parents)):
        name = tracer.names[name_id]
        self_s[name] += own
        calls[name] += 1
    per_op = 1.0 / max(traced_ops, 1)
    metrics: dict[str, float] = {}
    for name in traced_functions():
        metrics[f"{name}.self_s"] = self_s[name] * per_op
        metrics[f"{name}.calls"] = calls[name] * per_op
    for layer in LAYERS:
        members = [n for n in traced_functions() if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = sum(self_s[n] for n in members) * per_op
        metrics[f"{layer}.errors"] = float(sum(tracer.errors[n] for n in members))
    counts = tracer.counts
    for name in COUNTS:
        metrics[name] = counts[name] * per_op
    metrics["spectrum.trusted_ratio"] = (
        counts["spectrum.trusted"] / counts["spectrum.eigenvalues"]
        if counts["spectrum.eigenvalues"]
        else 0.0
    )
    return metrics
