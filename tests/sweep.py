"""Argv sweep of this checkout against another revision, run on demand.

pytest does not collect this file (its name does not match ``test_*.py``).
It writes REF's tree to a temporary directory with ``git archive``, then runs
the same argvs through ``branekit.cli.main`` in process, one fresh
interpreter per tree (this checkout's ``src``, then REF's), with no
``BRANEKIT_CONFIG`` set.  The argvs are drawn as ``tests/test_cli.py``
``drawn_argv`` draws them, cycling over the four commands and alternating
the two formats, followed by fixed edge inputs: ``--N 5`` for every
command, the float-resolution inputs of ROADMAP item 7, ``curve
--points=10001`` and a curve of ``TABLE_ROWS`` rows, ``identities --N 4004``
(N sizes nothing in ``identities``, so it runs as the defaults do), the
former ``identities_n40`` golden argv ``identities --N 40 --theta 0.3
--z2 2.5 --R 0.7``, and the overflow edges of
``test_identities_overflow_edges``.  Three of those,
``identities`` at ``--z2 2.40623170837532e+101 --seed 1446883356``,
``--z2 4.823772925276159e+152 --seed 276323619`` and
``--z2 1.0943502451445657e+307 --seed 165636438``, name a numpy operation
in their error line that depends on the order the trials run in, so any
change to that order shows up here.  With expansion stacks of 14 trials
and two products per cross-term commutator, the second named
``subtract``; with one expansion stack per size and ``P - P^dag``
commutators it names ``matmul``.  The first and third, and ``identities
--z2 1e80`` (``matmul``), name the same operation under both.
``condense --z2 1e-320`` exits 1: at a subnormal z2 the numeric minimizer
misses tmin by far more than its relative bound (``--z2 1e-315`` and
``5e-324`` pass).  Every drawn ``spectrum`` argv also sets ``n_max``, the
last tower level it lists, drawn from 0 to 2000, through a ``--config``
file, since no flag sets it; three more
``spectrum`` edges set ``n_max = 0``, ``N = n_max = 100000``, and
``n_max = 100000`` at a scale where the tower's raw eigenvalues overflow to
inf.  From the repository root:

    python3 tests/sweep.py HEAD~1          # 300 drawn argvs and the edges
    python3 tests/sweep.py d5a648e 600     # 600 drawn argvs

It prints, per command, how many argvs have the same exit code, stdout and
stderr at both trees, then each differing argv with the first line that
differs.  The exit status is 1 when any argv differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from branekit.cli import TABLE_ROWS  # noqa: E402
from test_cli import drawn_argv  # noqa: E402

COMMANDS = ("spectrum", "identities", "condense", "curve")
FORMATS = ("delimited", "structured")
N200 = ["--theta", "0.3", "--z2", "2.5", "--R", "0.7"]

#: Inputs at the edges: every command at N = 5, the inputs whose verdicts sit
#: at the float resolution, the benchmark's dense curve and a curve of exactly
#: ``TABLE_ROWS`` rows (the first written as one byte table), an ``identities``
#: N that no size bound limits, the former ``identities_n40`` golden argv and
#: the overflow edges of the identity suite.
EDGES = [
    *([command, "--N", "5"] for command in COMMANDS),
    ["condense", "--z2", "3e16", "--theta", "0.5"],
    ["condense", "--z2", "1e16", "--theta", "0.5"],
    ["condense", "--z2", "1e-9"],
    ["condense", "--z2", "1e-320"],
    ["spectrum", "--z2", "1e-300", "--R", "1e-15"],
    ["spectrum", "--N", "67268"],
    ["spectrum", "--N", "67269"],
    ["spectrum", "--N", "100000"],
    ["spectrum", "--N", "52361", *N200],
    ["spectrum", "--N", "52362", *N200],
    [
        "curve",
        "--theta=1.219333185924695",
        "--z2=3714925.9308744012",
        "--x0-min=-8.386834633971361",
        "--x0-max=8.386834633971361",
        "--points=656",
    ],
    [
        "curve",
        "--x0-min=-134911.85123513103",
        "--x0-max=134911.85123513103",
        "--theta=0.6610166144543554",
        "--z2=5.897863746906419e-05",
    ],
    ["curve", "--points=10001"],
    ["curve", f"--points={TABLE_ROWS // 4}"],
    ["identities", "--z2", "1e80"],
    ["identities", "--N", "4004"],
    ["identities", "--N", "40", *N200],
    ["identities", "--z2", "5.041515201135325e+49"],
    ["identities", "--z2", "5.041515201135326e+49"],
    ["identities", "--z2", "2.40623170837532e+101", "--seed", "1446883356"],
    ["identities", "--z2", "4.823772925276159e+152", "--seed", "276323619"],
    ["identities", "--z2", "1.0943502451445657e+307", "--seed", "165636438"],
]

#: ``spectrum`` edges set in a config file: the key = value lines of each.  The
#: last one's scale, 6.3e304, overflows the raw eigenvalues past level 7 to inf.
CONFIG_EDGES = [
    "n_max = 0",
    "N = 100000\nn_max = 100000",
    "z2 = 1e300\nR = 1e4\nN = 5\nn_max = 100000",
]

#: Run in a fresh interpreter: each argv of the JSON list on stdin through
#: ``main``, and its exit code, stdout and stderr written to argv[1] as one
#: JSON line per argv, so that no run's output waits in memory for the others.
CHILD = """
import contextlib, io, json, sys
from branekit.cli import main
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        handle.write(json.dumps((code, out.getvalue(), err.getvalue())) + "\\n")
"""


def config_argv(tmp: Path, text: str) -> list[str]:
    """``--config`` and a file in ``tmp`` holding ``text``, named after its lines."""
    path = tmp / f"{text.replace(' = ', '=').replace(chr(10), ',')}.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    return ["--config", str(path)]


def sweep_argvs(draws: int, tmp: Path) -> list[list[str]]:
    """``draws`` drawn argvs, the commands in turn, every other round structured; then the edges.

    Each drawn ``spectrum`` argv gets an ``n_max`` from 0 to 2000 through a config
    file in ``tmp``, from a generator of its own, so the other draws stay as they were.
    """
    rng, n_max = np.random.default_rng(2026), np.random.default_rng(2027)
    drawn = []
    for i in range(draws):
        argv = [*drawn_argv(COMMANDS[i % 4], rng), f"--format={FORMATS[i // 4 % 2]}"]
        if argv[0] == "spectrum":
            argv += config_argv(tmp, f"n_max = {n_max.integers(0, 2001)}")
        drawn.append(argv)
    edges = EDGES + [["spectrum", *config_argv(tmp, text)] for text in CONFIG_EDGES]
    return drawn + [[*argv, f"--format={fmt}"] for argv in edges for fmt in FORMATS]


def run_tree(src: Path, argvs: list[list[str]], out: Path) -> Path:
    """Every argv run by ``main`` from ``src`` in one fresh interpreter; the results file."""
    env = {k: v for k, v in os.environ.items() if k != "BRANEKIT_CONFIG"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", CHILD, str(out)]
    subprocess.run(command, input=json.dumps(argvs), text=True, env=env, check=True)
    return out


def first_difference(ours: tuple, theirs: tuple) -> str:
    """The first of exit code, stdout and stderr that differs, at its first differing line."""
    if ours[0] != theirs[0]:
        return f"exit {theirs[0]} -> {ours[0]}"
    for stream, a, b in zip(("stdout", "stderr"), ours[1:], theirs[1:]):
        lines = zip_longest(b.splitlines(keepends=True), a.splitlines(keepends=True))
        for number, (old, new) in enumerate(lines, 1):
            if old != new:
                return f"{stream} line {number}: {old!r} -> {new!r}"
    return ""


def main(args: list[str]) -> int:
    if not 1 <= len(args) <= 2:
        raise SystemExit(__doc__)
    ref, draws = args[0], int(args[1]) if len(args) == 2 else 300
    same, total, differing = Counter(), Counter(), []
    with tempfile.TemporaryDirectory(prefix="branekit-sweep-") as tmp:
        argvs = sweep_argvs(draws, Path(tmp))
        archive = subprocess.run(
            ["git", "archive", ref, "src"], cwd=REPO, capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        ours = run_tree(REPO / "src", argvs, Path(tmp) / "ours.jsonl")
        theirs = run_tree(Path(tmp) / "src", argvs, Path(tmp) / "theirs.jsonl")
        with open(ours, encoding="utf-8") as mine, open(theirs, encoding="utf-8") as other:
            for argv, line, ref_line in zip(argvs, mine, other, strict=True):
                a, b = json.loads(line), json.loads(ref_line)
                total[argv[0]] += 1
                for part, x, y in zip(("exit", "stdout", "stderr"), a, b):
                    same[argv[0], part] += x == y
                if a != b:
                    differing.append((argv, first_difference(a, b)))
    print(f"{len(argvs)} argvs, this checkout against {ref}; same exit/stdout/stderr of all:")
    for command in COMMANDS:
        counts = "/".join(str(same[command, part]) for part in ("exit", "stdout", "stderr"))
        print(f"  {command:10} {counts} of {total[command]}")
    for argv, difference in differing:
        print(f"differs: {' '.join(argv)}\n  {difference}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
