"""One-shot scaling snapshot: spectrum stage seconds against truncation size N.

    python3 bench/scaling.py

Not a gated workload.  For each N in ``SIZES`` it runs ``spectrum --N <N>`` once at the
default parameters (theta=pi/3, z2=R=1), traced at the cross-module
boundaries, and prints each stage's self seconds beside the route residual
and trust horizon of that run.  The table also goes to
``bench/results/scaling.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, str(len(os.sched_getaffinity(0))))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SIZES = (24, 100, 200, 400)
STAGES = (
    "spectrum.build_mass_operator_qp",
    "spectrum.build_mass_operator_fock",
    "spectrum.build_mass_operator_levels",
    "spectrum.route_equivalence_residual",
    "spectrum.numeric_spectrum",
    "spectrum.match_tower",
)


def snapshot() -> list[dict]:
    modules = worker.load_program()
    rows = []
    for n in SIZES:
        tracer = tracing.Tracer()
        saved = tracer.install(modules)
        try:
            argv = ("spectrum", f"--N={n}")
            code, out, err, wall = worker.invoke(tracer.wrap(tracing.ENTRY, modules["cli"].main), argv)
        finally:
            tracer.restore(saved)
        problems, facts = checks.check_output(argv, code, out, err)
        layers = tracing.layer_metrics(tracer, traced_ops=1)
        rows.append(
            {
                "N": n,
                "wall_s": wall,
                "stages_s": {stage: layers[f"{stage}.self_s"] for stage in STAGES},
                "route_residual": facts.get("route_residual"),
                "trust_horizon": facts.get("trust_horizon"),
                "problems": problems,
            }
        )
    return rows


def main() -> int:
    rows = snapshot()
    short = [s.split(".", 1)[1].replace("build_mass_operator_", "") for s in STAGES]
    print("| N | wall s | " + " | ".join(short) + " | route residual | trust horizon |")
    print("|---" * (len(STAGES) + 4) + "|")
    for row in rows:
        stages = " | ".join(f"{row['stages_s'][s]:.4f}" for s in STAGES)
        print(
            f"| {row['N']} | {row['wall_s']:.3f} | {stages} | "
            f"{row['route_residual']:.2e} | {row['trust_horizon']} |"
        )
        for problem in row["problems"]:
            print(f"FAIL N={row['N']}: {problem}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"environment": worker.environment(seed=None), "rows": rows}
    (results / "scaling.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any(row["problems"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
