"""Benchmark worker: a fresh interpreter that imports branekit and runs one workload.

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and reads the single JSON line it prints:

    worker.py '<json spec>'        run a workload for the given seconds

Every CLI invocation goes through ``branekit.cli.main(argv)`` in this process,
with stdout and stderr captured into memory.  ``setup_s`` is not measured
here: the harness modules load much of the stdlib that branekit needs, so
``run.py`` times the import in bare interpreters instead.

Between operations the worker times ``Reference``, a fixed computation that
no change to the program can touch.  Each operation is also reported as a
multiple of the reference time around it, which cancels the slow spells of a
shared host that hit both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


class Reference:
    """A fixed mix of the kinds of work branekit does, for calibration.

    Pure-Python generator scans (as in ``match_tower``), float formatting (as
    in report emission), small-matrix arithmetic (as in ``identities``) and
    two 200x200 symmetric eigensolves (as in ``numeric_spectrum``), about
    50 ms on 2 vCPUs.  The inputs are made once, outside the timing.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        dense = rng.standard_normal((200, 200))
        self.dense = dense + dense.T
        self.small = [rng.standard_normal((8, 8)) for _ in range(64)]
        self.values = [0.37 * i for i in range(1000)]
        self.eigh = numpy.linalg.eigh

    def run(self) -> float:
        values = self.values
        hits = 0
        for v in values[::4]:
            hits += sum(1 for u in values if abs(u - v) <= 1e-6)
        text = "\n".join(f"{v!r},{v * 0.5:.17g},{-v:.6e}" for v in values * 6)
        acc = 0.0
        for a in self.small:
            for b in self.small[:16]:
                acc += float((a @ b - b @ a).trace())
        for _ in range(2):
            acc += float(self.eigh(self.dense)[0][0])
        return hits + len(text) + acc

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def invoke(main, argv) -> tuple[object, str, str, float]:
    """Run one CLI invocation; exit code, stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crashed run
            code = "exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment(seed) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def load_program() -> dict:
    """The branekit modules, by layer name."""
    import importlib

    return {layer: importlib.import_module(f"branekit.{layer}") for layer in tracing.LAYERS}


def _run(spec: dict) -> dict:
    modules = load_program()
    cli = modules["cli"]
    trace = bool(spec["trace"])
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ENTRY, cli.main)
    # Traced and untraced operations alternate in pairs, so both halves see
    # both formats; stopping on a multiple of the group keeps them balanced.
    group = 4 if trace else 2

    ops: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    first_outputs: list[str] = []
    worst_residual = 0.0
    min_horizon = None
    reference = Reference()
    for _ in range(3):  # warm-up
        reference.run()
    ref_before = reference.seconds()
    start = time.perf_counter()
    for op in workloads.operations(spec["workload"], spec["seed"]):
        if op.index % group == 0 and op.index and time.perf_counter() - start >= spec["seconds"]:
            break
        traced = trace and (op.index // 2) % 2 == 0
        saved = tracer.install(modules) if traced else []
        tracer.op = op.index
        calls = []
        try:
            for argv in op.argvs:
                code, out, err, elapsed = invoke(traced_main if traced else cli.main, argv)
                attempted += 1
                bad, facts = checks.check_output(argv, code, out, err)
                if bad:
                    failed += 1
                    problems.append(f"{' '.join(argv)}: {'; '.join(bad)}")
                if "route_residual" in facts:
                    worst_residual = max(worst_residual, facts["route_residual"])
                    horizon = facts["trust_horizon"]
                    min_horizon = horizon if min_horizon is None else min(min_horizon, horizon)
                if traced:
                    tracer.counts["cli.report_bytes"] += len(out.encode("utf-8"))
                if op.index == 0:
                    first_outputs.append(out)
                calls.append([argv[0], elapsed])
        finally:
            tracer.restore(saved)
        ref_after = reference.seconds()
        ops.append(
            {
                "format": op.format,
                "seconds": sum(c[1] for c in calls),
                "ref_s": (ref_before + ref_after) / 2,
                "calls": calls,
                "traced": traced,
            }
        )
        ref_before = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Determinism: the first operation, run again, must give the same bytes.
    first = next(workloads.operations(spec["workload"], spec["seed"]))
    for argv, before in zip(first.argvs, first_outputs):
        attempted += 1
        code, out, err, _ = invoke(cli.main, argv)
        if out != before or code != 0:
            failed += 1
            problems.append(f"{' '.join(argv)}: rerun report differs (exit {code!r})")

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "worst_route_residual": worst_residual,
        "min_trust_horizon": min_horizon,
        "environment": environment(spec["seed"]),
    }
    if trace:
        traced_ops = sum(1 for o in ops if o["traced"])
        layers = tracing.layer_metrics(tracer, traced_ops)
        traced_s = sum(o["seconds"] for o in ops if o["traced"])
        below_cli = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "cli")
        layers["trace.covered_share"] = below_cli * traced_ops / traced_s if traced_s else 0.0
        result["layers"] = layers
        result["spans"] = len(tracer.starts)
        tracer.write(spec["spans_path"])
    return result


def main(argv: list[str]) -> int:
    print(json.dumps(_run(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
