"""branekit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload spectrum_large_n --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the ``src`` directory next
to this one.  The run times ``import branekit.cli`` in several fresh
interpreters (``setup_s``) and drives ``branekit.cli.main(argv)`` in one
fresh worker process, closed loop with one client, for ``--seconds``.  Every
output is checked by ``checks.py``.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics from
spans at the program's cross-module boundaries (``tracing.py``).  Lines
before it give the same numbers, and the workload-specific readings, by name
with units; ``bench/results/`` gets the full record and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Fresh interpreters timed for ``setup_s``, half before the measured loop
#: and half after it.  One more runs first to fill the bytecode cache, which
#: every later invocation finds filled.
SETUP_PROBES = 24
#: What a probe runs: nothing is loaded before the timed import but the
#: interpreter's own start-up modules and ``time``, as in a CLI invocation.
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import branekit.cli\n"
    "print(time.perf_counter() - start)\n"
)
#: Seconds the worker may run beyond ``--seconds``: its imports, the
#: operation in flight when time runs out, and the rerun of the first one.
WORKER_MARGIN_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "op_rel_p50": "x_ref",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def p10(values) -> float:
    """Nearest-rank 10th percentile, the statistic of ``setup_s`` and ``op_s_p10``.

    Interference from other tenants of a shared host only ever slows a
    probe down, and comes in spells of several seconds; the fastest probes
    follow the program's own import time most closely.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.1 * len(ordered)) - 1)]


def per_format(stat, values, formats) -> float:
    """Mean over the two report formats of ``stat`` taken per format.

    Formats alternate, and a structured report can take half again as long
    to emit as a delimited one; a quantile of the mixture would jump
    between the two groups from run to run.
    """
    groups: dict[str, list[float]] = {}
    for value, fmt in zip(values, formats):
        groups.setdefault(fmt, []).append(value)
    return statistics.fmean(stat(g) for g in groups.values())


def _op_stat(stat, ops) -> float:
    return per_format(stat, [o["seconds"] for o in ops], [o["format"] for o in ops])


def _rel_median(ops) -> float:
    """Median of operation time ÷ the reference time around each operation.

    A slow spell of a shared host stretches an operation and the reference
    runs on either side of it alike, so the ratio keeps the program's own
    speed: over ten 30 s runs on 2 shared vCPUs its quartile spread was
    4-8%, where that of the 10th percentile of wall time was 5-26%.
    """
    return per_format(statistics.median, [o["seconds"] / o["ref_s"] for o in ops], [o["format"] for o in ops])


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    Nearest-rank: with n samples the value is the (n-10)-th smallest, the
    100*(n-10)/n percentile.  With ten samples or fewer there is none (nan).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return math.nan, math.nan, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BRANEKIT_CONFIG", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def _python(args: list[str], env: dict, timeout: float) -> str:
    """Run a fresh interpreter and return the last line it prints."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _setup_samples(env: dict, count: int) -> list[float]:
    return [float(_python(["-c", SETUP_PROBE], env, timeout=30)) for _ in range(count)]


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    ops = [o for o in raw["ops"] if not o["traced"]]
    return {
        "setup_s": p10(setup),
        "op_rel_p50": _rel_median(ops),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_share": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }


def _accuracy(raw: dict) -> dict[str, float]:
    worst = raw["worst_route_residual"]
    return {
        "trust_horizon_min": float(raw["min_trust_horizon"] or 0),
        # capped at float64 resolution, so an exact zero still reads finite
        "route_residual_digits": -math.log10(max(worst, 2.0**-52)) if worst else 0.0,
    }


def per_layer(raw: dict) -> dict[str, float]:
    metrics = dict(raw["layers"])
    accuracy = _accuracy(raw)
    metrics["spectrum.trust_horizon_min"] = accuracy["trust_horizon_min"]
    metrics["spectrum.route_residual_digits"] = accuracy["route_residual_digits"]
    traced = [o for o in raw["ops"] if o["traced"]]
    plain = [o for o in raw["ops"] if not o["traced"]]
    metrics["trace.overhead_s"] = _op_stat(p10, traced) - _op_stat(p10, plain)
    return {name: metrics[name] for name in tracing.per_layer_units()}


def readings(workload: str, raw: dict) -> list[tuple[str, float, str]]:
    """Medians, tails, throughput and accuracy, by the names the write-up uses."""
    ops = [o for o in raw["ops"] if not o["traced"]]
    formats = [o["format"] for o in ops]
    median = _op_stat(statistics.median, ops)
    per_s = len(ops) / sum(o["seconds"] for o in ops)
    value, pct, n = tail([o["seconds"] for o in ops])
    out = [
        ("fail_share", raw["failed"] / raw["attempted"], f"of {raw['attempted']} invocations"),
        ("op_s_p10", _op_stat(p10, ops), "s"),
        ("op_s_p50", median, "s"),
        ("ref_s_p50", statistics.median(o["ref_s"] for o in ops), "s"),
        ("op_s_tail", value, f"s (p{pct:.0f} of {n} ops, 10 beyond)"),
        ("ops_per_s", per_s, "1/s"),
    ]
    accuracy = _accuracy(raw)
    if workload == "spectrum_large_n":
        out += [
            ("spectrum_solve_s_p50", median, "s"),
            ("spectrum_solves_per_s", per_s, "1/s"),
            ("trust_horizon_min", accuracy["trust_horizon_min"], "level"),
            ("route_residual_digits", accuracy["route_residual_digits"], "digits"),
        ]
    elif workload == "cli_sweep":
        for i, command in enumerate(workloads.SWEEP_COMMANDS):
            times = [o["calls"][i][1] for o in ops]
            out.append((f"cli_{command}_s_p50", per_format(statistics.median, times, formats), "s"))
        out += [
            ("cli_point_s_tail", value, f"s (p{pct:.0f} of {n} points, 10 beyond)"),
            ("cli_points_per_s", per_s, "1/s"),
        ]
    else:
        out += [
            ("curve_call_s_p50", median, "s"),
            ("curve_points_per_s", per_s * workloads.CURVE_POINTS, "1/s"),
        ]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "branekit" / "__init__.py").is_file():
        print(f"error: no branekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    env = _worker_env()
    try:
        setup = _setup_samples(env, SETUP_PROBES // 2 + 1)[1:]
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "spans_path": str(RESULTS / f"{args.workload}.spans.json"),
        }
        worker = [str(HERE / "worker.py"), json.dumps(spec)]
        raw = json.loads(_python(worker, env, timeout=args.seconds + WORKER_MARGIN_S))
        setup += _setup_samples(env, SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(raw, setup)
    if args.trace:
        metrics, units = per_layer(raw), tracing.per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": raw["environment"],
        "setup_samples_s": setup,
        "end_to_end": e2e,
        "readings": readings(args.workload, raw),
        "problems": raw["problems"],
        "ops": raw["ops"],
    }
    if args.trace:
        record["per_layer"] = metrics
        record["spans"] = raw["spans"]
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    env_line = " ".join(f"{k}={v}" for k, v in raw["environment"].items())
    print(f"# {args.workload} ({record['why']})")
    print(f"# {env_line}")
    for problem in raw["problems"]:
        print(f"# FAIL {problem}")
    for name, value, unit in record["readings"]:
        print(f"{name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
