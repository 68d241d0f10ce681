"""Tests of the benchmark's own logic: output checks, self time, workload draws.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _curve_delimited(points: int, bad_value: str | None = None, rows: int | None = None) -> str:
    lines = ["# theta=1 z2=1 R=1", "# columns: x0,branch,x_d,y_d,residual"]
    for i in range(4 * points if rows is None else rows):
        lines.append(f"{i * 0.5},minus,0.25,-1.5,1e-16")
    if bad_value is not None:
        lines[2] = f"0,minus,{bad_value},-1.5,1e-16"
    return "\n".join(lines) + "\n"


CURVE_ARGV = ("curve", "--format=delimited", "--points=3")


def test_checker_accepts_well_formed_curve():
    problems, facts = checks.check_output(CURVE_ARGV, 0, _curve_delimited(3), "asymmetry gap = 2.5\n")
    assert problems == []
    assert facts["rows"] == 12


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_checker_rejects_nonfinite_delimited_field(bad):
    problems, _ = checks.check_output(CURVE_ARGV, 0, _curve_delimited(3, bad_value=bad), "")
    assert any("non-finite" in p for p in problems)


def test_checker_rejects_short_row_count():
    problems, _ = checks.check_output(CURVE_ARGV, 0, _curve_delimited(3, rows=11), "")
    assert problems == ["curve has 11 rows, expected 12"]


def test_checker_rejects_nan_in_structured_report_and_on_stderr():
    doc = {"report": "curve", "max_residual": math.nan, "points": [{}] * 6, "asymptotes": [{}] * 6}
    argv = ("curve", "--format=structured", "--points=3")
    problems, _ = checks.check_output(argv, 0, json.dumps(doc), "max hyperbola residual = nan (pass)\n")
    assert len([p for p in problems if "non-finite" in p]) == 2


def test_checker_rejects_exit_code_identity_count_and_low_horizon():
    problems, _ = checks.check_output(("identities",), 1, "# columns: x\n1,2\n", "")
    assert problems == ["exit code 1", "identities has 1 records, expected 506"]
    spectrum = "# trust_horizon: 194\n# route_equivalence_residual: 1e-13\n"
    problems, facts = checks.check_output(("spectrum", "--N=200"), 0, spectrum, "")
    assert problems == ["trust horizon 194 below 195"]
    assert facts["route_residual"] == 1e-13


def test_checker_accepts_real_reports():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from branekit.cli import main
    finally:
        sys.path.pop(0)
    for argv in (
        ("curve", "--points=5", "--format=delimited"),
        ("curve", "--points=5", "--format=structured"),
        ("spectrum", "--format=structured"),
        ("identities",),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert checks.check_output(argv, code, out.getvalue(), err.getvalue())[0] == []


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] overruns the root;
    # grandchild [2.5, 4] sits inside the second child.
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    own = tracing.self_times(starts, ends, parents)
    assert own == pytest.approx([10.0 - 4.0 - 2.0, 2.0, 1.5, 4.0, 1.5])


def test_layer_metrics_attribute_self_time_per_operation():
    tracer = tracing.Tracer()
    inner = tracer.wrap("spectrum.match_tower", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap(tracing.ENTRY, body)
    for op in range(2):
        tracer.op = op
        outer()
    metrics = tracing.layer_metrics(tracer, traced_ops=2)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["spectrum.match_tower.calls"] == 2.0
    total = sum(e - s for e, s, p in zip(tracer.ends, tracer.starts, tracer.parents) if p < 0)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers * 2 == pytest.approx(total)


def test_workloads_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = list(itertools.islice(workloads.operations(name, 7), 12))
        again = list(itertools.islice(workloads.operations(name, 7), 12))
        other = list(itertools.islice(workloads.operations(name, 8), 12))
        assert first == again
        assert first != other
        assert [op.format for op in first] == ["delimited", "structured"] * 6
        for op in first:
            for argv in op.argvs:
                assert all(isinstance(arg, str) for arg in argv)
                options = checks.argv_options(argv)
                assert 0.05 <= float(options["theta"]) <= 1.45
                assert 0.25 <= float(options["z2"]) <= 4.0
                assert 0.25 <= float(options["R"]) <= 4.0


def test_summary_statistics():
    formats = ["d", "s", "d", "s", "d"]
    assert run.per_format(statistics.median, [1.0, 3.0, 1.2, 3.4, 0.8], formats) == pytest.approx(2.1)
    assert run.p10(range(20, 0, -1)) == 2
    assert run.p10([5.0]) == 5.0
    values = list(range(1, 31))
    assert run.tail(values) == (20, 100.0 * 20 / 30, 30)
    assert math.isnan(run.tail(values[:10])[0])
    ops = [
        {"format": "d", "seconds": 2.0, "ref_s": 0.5},
        {"format": "s", "seconds": 3.0, "ref_s": 1.0},
        {"format": "d", "seconds": 1.0, "ref_s": 0.5},
        {"format": "s", "seconds": 5.0, "ref_s": 1.0},
    ]
    assert run._rel_median(ops) == pytest.approx((3.0 + 4.0) / 2)


def test_reference_work_is_fixed():
    import worker

    reference = worker.Reference()
    assert reference.run() == worker.Reference().run()
    assert reference.seconds() > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
