"""Benchmark workloads: CLI argument lists drawn deterministically from a seed.

The program under test only ever sees the argv lists made here.  Every draw
stays inside the range the verifier accepts (theta in [0.05, 1.45], z2 and R
in [0.25, 4]), so no operation is expected to fail.  Consecutive operations
alternate between the two report formats, so any run that ends after an even
number of operations has run both formats equally often.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

FORMATS = ("delimited", "structured")
SPECTRUM_N = 200
CURVE_POINTS = 10001
SWEEP_COMMANDS = ("spectrum", "identities", "condense", "curve")

#: Why each workload exists; the same text is in BENCHMARK.json.
WORKLOADS = {
    "spectrum_large_n": "spectrum at N=200: the dense solve, route check and tower match dominate",
    "cli_sweep": "all four subcommands at defaults per drawn point: per-call overhead and identities dominate",
    "curve_dense": "curve with 10001 points: per-point condensation loop and row formatting dominate",
}


@dataclass(frozen=True)
class Operation:
    """One unit of work: one or more CLI invocations sharing a draw."""

    index: int
    format: str
    argvs: tuple[tuple[str, ...], ...]


def operations(workload: str, seed: int) -> Iterator[Operation]:
    """Endless, deterministic stream of operations for ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        fmt = FORMATS[index % 2]
        common = (
            f"--theta={rng.uniform(0.05, 1.45)!r}",
            f"--z2={rng.uniform(0.25, 4.0)!r}",
            f"--R={rng.uniform(0.25, 4.0)!r}",
            f"--format={fmt}",
        )
        if workload == "spectrum_large_n":
            argvs = (("spectrum", *common, f"--N={SPECTRUM_N}"),)
        elif workload == "cli_sweep":
            point_seed = f"--seed={rng.randrange(2**31)}"
            argvs = tuple((command, *common, point_seed) for command in SWEEP_COMMANDS)
        else:
            argvs = (
                (
                    "curve",
                    *common,
                    f"--x0-min={rng.uniform(-4.0, -1.0)!r}",
                    f"--x0-max={rng.uniform(1.0, 4.0)!r}",
                    f"--points={CURVE_POINTS}",
                ),
            )
        yield Operation(index=index, format=fmt, argvs=argvs)
        index += 1
