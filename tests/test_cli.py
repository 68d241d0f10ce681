import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import branekit
from branekit import cli
from branekit.background import MAX_DENSE_LEVELS
from branekit.cli import RECORDS, RENDERERS, Report, main
from branekit.condensation import sample_curve
from branekit.config import (
    DEFAULT_TOLERANCES,
    FORMAT_DELIMITED,
    FORMAT_STRUCTURED,
    Gate,
    RunConfig,
    build_config,
    read_config_file,
)
from branekit.identities import PASS_TOL, VERDICT_VIOLATED
from branekit.spectrum import MAX_BAND_LEVELS

GOLDEN = Path(__file__).parent / "golden"

#: Pinned reports with their exit codes; ``<name>.err`` holds the stderr
#: text, which does not depend on the format.  ``spectrum_n52362`` is the
#: first size at which the route gate fails at the ``spectrum_n200`` config,
#: while the tower still matches to its horizon.  ``spectrum_small_scale``
#: has a scale below 1, where a Hermiticity bound of 1e-10 * scale is
#: tighter than 1e-10.
GOLDEN_RUNS = {
    "spectrum_default": (0, ["spectrum"]),
    "spectrum_n8": (0, ["spectrum", "--N", "8"]),
    "spectrum_n200": (0, ["spectrum", "--N", "200", "--theta", "0.3", "--z2", "2.5", "--R", "0.7"]),
    "spectrum_n52362": (
        1,
        ["spectrum", "--N", "52362", "--theta", "0.3", "--z2", "2.5", "--R", "0.7"],
    ),
    "spectrum_small_scale": (
        0,
        ["spectrum", "--N", "300", "--theta", "1.3", "--z2", "0.05", "--R", "0.5"],
    ),
    "identities_default": (0, ["identities"]),
    "identities_seed42": (0, ["identities", "--seed", "42"]),
    "identities_n40": (
        0,
        ["identities", "--N", "40", "--theta", "0.3", "--z2", "2.5", "--R", "0.7"],
    ),
    "condense_default": (0, ["condense"]),
    "curve_default": (0, ["curve"]),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_default_run(capsys):
    # stock configuration: theta=pi/3, z2=1, R=1, N=24
    code, out, err = run(capsys, "spectrum")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# theta=")
    tachyon_rows = [l for l in lines if l.startswith("offdiag-tachyon")]
    assert len(tachyon_rows) == 1
    assert tachyon_rows[0].endswith("true")
    # -2 pi in the raw column
    assert f"{-2 * math.pi:.15g}" in tachyon_rows[0]
    assert "pass" in err


def test_spectrum_rejects_small_truncation(capsys):
    code, _, err = run(capsys, "spectrum", "--N", "2")
    assert code == 2
    assert "error:" in err


def test_spectrum_zero_angle(capsys):
    code, out, _ = run(capsys, "spectrum", "--theta", "0", "--N", "12")
    assert code == 0
    tach = next(l for l in out.splitlines() if l.startswith("offdiag-tachyon"))
    assert f"{-4 * math.pi:.15g}" in tach


def test_structured_spectrum_document(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "12", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == "spectrum"
    assert doc["passed"] is True
    assert doc["params"]["N"] == 12
    sectors = {r["sector"] for r in doc["records"]}
    assert sectors == {
        "offdiag-tachyon",
        "offdiag-zero",
        "offdiag-massive",
        "transverse",
    }


def test_identities_run_and_determinism(capsys):
    code1, out1, err1 = run(capsys, "identities", "--seed", "42", "--N", "8")
    code2, out2, _ = run(capsys, "identities", "--seed", "42", "--N", "8")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "exact=" in err1
    rows = [l for l in out1.splitlines() if l.startswith("expansion")]
    assert len(rows) == 100
    assert all(row.endswith("exact") for row in rows)


def test_identities_seed_changes_rows(capsys):
    _, out1, _ = run(capsys, "identities", "--seed", "1", "--N", "8")
    _, out2, _ = run(capsys, "identities", "--seed", "2", "--N", "8")
    assert out1 != out2


@pytest.mark.parametrize("seed", ["20240817", "42"])
def test_quartic_records_compare_the_forms_on_one_input(capsys, seed):
    # the direct form on equal, rank-one, momentum and generic blocks, then
    # the rotated form on those generic blocks and on zero ones
    code, out, _ = run(capsys, "identities", "--seed", seed, "--format", "structured")
    assert code == 0
    quartic = json.loads(out)["records"][-6:]
    assert [r["identity"] for r in quartic] == ["quartic-direct"] * 4 + ["quartic-rotated"] * 2
    generic, rotated = quartic[3], quartic[4]
    same_input = ("seed", "dim", "lhs")
    assert [rotated[k] for k in same_input] == [generic[k] for k in same_input]
    # measured: which form holds on which input, read off the printed columns
    bounds = [PASS_TOL * max(1.0, abs(r["lhs"]), abs(r["rhs"])) for r in quartic]
    holds = [Gate(r["identity"], r["residual"], b).ok for r, b in zip(quartic, bounds)]
    assert holds == [True, False, True, False, False, True]


def test_condense_default(capsys):
    code, out, err = run(capsys, "condense")
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    assert float(row[3]) == pytest.approx(math.sqrt(math.pi), abs=1e-8)
    assert float(row[4]) == pytest.approx(-math.pi**2, abs=1e-10)
    assert "pass" in err


def test_condense_zero_angle(capsys):
    code, out, _ = run(capsys, "condense", "--theta", "0")
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-10)


def test_curve_file_output(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, err = run(
        capsys, "curve", "--points", "101", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    branch_rows = [l for l in lines if l.split(",")[1:2] in (["minus"], ["plus"])]
    asym_rows = [l for l in lines if ",asym-" in l]
    assert len(branch_rows) == 202
    assert len(asym_rows) == 202
    assert "max hyperbola residual" in err


def test_curve_rejects_single_point(capsys):
    code, _, err = run(capsys, "curve", "--points", "1")
    assert code == 2
    assert "error:" in err


def test_curve_structured_asymmetry(capsys):
    code, out, _ = run(
        capsys, "curve", "--points", "11", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["asymmetry_gap"] == pytest.approx(
        2.0 * math.sqrt(math.pi * math.cos(math.pi / 3)), rel=1e-9
    )


def test_byte_identical_reports(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(
            ["spectrum", "--N", "12", "--format", "structured", "--out", str(path)]
        )
        assert code == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_file_and_override_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "theta = 0.5\n"
        "N = 12\n"
        "seed = 7\n"
        "tol_hyperbola = 1e-9\n"
    )
    values = read_config_file(str(cfg))
    config = build_config(values, {"theta": 0.25})
    assert config.theta == 0.25  # flag beats file
    assert config.N == 12
    assert config.seed == 7
    assert config.tol("hyperbola") == 1e-9
    assert config.tol("route_equivalence") == DEFAULT_TOLERANCES["route_equivalence"]

    code, out, _ = run(capsys, "condense", "--config", str(cfg), "--theta", "0.25")
    assert code == 0
    assert out.splitlines()[0] == "# theta=0.25 z2=1 R=1"


def test_env_var_config_path(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("theta = 0.9\n")
    monkeypatch.setenv("BRANEKIT_CONFIG", str(cfg))
    code, out, _ = run(capsys, "condense")
    assert code == 0
    assert out.splitlines()[0].startswith("# theta=0.9")


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 3\n")
    with pytest.raises(ValueError):
        build_config(read_config_file(str(cfg)))


def test_every_named_tolerance_is_read(capsys, monkeypatch):
    asked = set()
    original = RunConfig.tol

    def recording_tol(self, name):
        asked.add(name)
        return original(self, name)

    monkeypatch.setattr(RunConfig, "tol", recording_tol)
    for argv in (
        ("spectrum", "--N", "8"),
        ("identities", "--N", "8"),
        ("condense",),
        ("curve", "--points", "11"),
    ):
        assert run(capsys, *argv)[0] == 0
    assert asked == set(DEFAULT_TOLERANCES)


def test_identity_tolerances_are_not_config_keys(tmp_path, capsys):
    cfg = tmp_path / "identity.cfg"
    cfg.write_text("tol_identity_pass = 1e-300\n")
    code, out, err = run(capsys, "identities", "--config", str(cfg), "--N", "8")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "identity_pass" in err


@pytest.mark.parametrize(
    "settings",
    ["tol_minimizer = 1e-300\n", "tol_minimizer = 1e-27\ntheta = 0.7\nz2 = 1.3\nR = 0.6\n"],
    ids=["defaults", "theta-0.7"],
)
def test_tolerance_below_float_spacing_terminates(tmp_path, settings):
    # the golden-section bracket cannot shrink below the float spacing
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(settings)
    src = str(Path(branekit.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("BRANEKIT_CONFIG", None)
    done = subprocess.run(
        [sys.executable, "-m", "branekit.cli", "condense", "--config", str(cfg)],
        capture_output=True,
        env=env,
        timeout=30,
    )
    assert done.returncode in (0, 1)


def test_config_rejects_zero_tolerance():
    with pytest.raises(ValueError):
        build_config({"tol_minimizer": "0"})


def test_zero_tolerance_via_cli_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("tol_minimizer = 0\n")
    code, _, err = run(capsys, "condense", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_config_rejects_bad_format():
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml").validate()


def test_missing_config_file_is_invalid_input(capsys):
    code, _, err = run(capsys, "condense", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--R", "nan", "--N", "8"),
        ("spectrum", "--z2", "inf", "--N", "8"),
        ("condense", "--R", "nan"),
        ("curve", "--z2", "inf"),
        ("curve", "--x0-max", "inf"),
        ("curve", "--x0-min=-inf"),
    ],
)
def test_non_finite_parameters_are_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("command", ["spectrum", "identities", "condense", "curve"])
def test_negative_seed_is_invalid_input_that_names_the_seed(capsys, command):
    assert run(capsys, command, "--seed", "-5") == (2, "", "error: seed must be >= 0, got -5\n")


@pytest.mark.parametrize(
    "line,error",
    [
        ("N = 24.0", "config key 'N' must be int, got '24.0'"),
        ("theta = abc", "config key 'theta' must be float, got 'abc'"),
        ("tol_hyperbola = 1e-10x", "config key 'tol_hyperbola' must be float, got '1e-10x'"),
    ],
)
def test_config_value_that_is_no_number_names_its_key(tmp_path, capsys, line, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run(capsys, "condense", "--config", str(cfg)) == (2, "", f"error: {error}\n")


def test_infinite_tolerance_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("tol_route_equivalence = inf\n")
    code, _, err = run(capsys, "spectrum", "--config", str(cfg), "--N", "8")
    assert code == 2
    assert len(err.splitlines()) == 1 and "route_equivalence" in err


@pytest.mark.parametrize(
    "command,error",
    [("condense", "OverflowError"), ("identities", "FloatingPointError")],
)
def test_overflowing_parameters_are_invalid_input(capsys, command, error):
    code, out, err = run(capsys, command, "--z2", "1e300")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and error in err


@pytest.mark.parametrize(
    "argv,error",
    [
        # 2 * scale * tmin, the bound's scale, overflows while every closed form is finite
        (("--R", "1e307"), "error: OverflowError: stationarity bound overflows to inf\n"),
        (("--R", "1e308"), "error: OverflowError: quad overflows to -inf\n"),
        (("--z2", "1e308"), "error: OverflowError: quad overflows to -inf\n"),
    ],
)
def test_overflowing_potential_is_invalid_input(capsys, argv, error):
    # Python floats overflow to inf without raising; condense checks its closed forms
    assert run(capsys, "condense", *argv) == (2, "", error)


OVERFLOW = r"error: FloatingPointError: overflow encountered in \w+\n"


@pytest.mark.parametrize(
    "args,code,error",
    [
        # the first overflow in the trials, and the last z2 before and the
        # first past the quartic checks' trace overflow at the defaults
        ("1e80", 2, "error: FloatingPointError: overflow encountered in matmul\n"),
        ("3.723149543575863e+49", 0, ""),
        (
            "3.7231495435758633e+49",
            2,
            "error: FloatingPointError: overflow encountered in scalar multiply\n",
        ),
        # a stack can meet a later trial's overflow first: the operation named
        # is the stacked trials' first, not trial order's
        ("2.40623170837532e+101 --seed 1446883356", 2, OVERFLOW),
        ("4.823772925276159e+152 --seed 276323619", 2, OVERFLOW),
        ("1.0943502451445657e+307 --seed 165636438", 2, OVERFLOW),
        # drawn: z2 log-uniform in 1e60-1e300, the seed uniform
        ("4.5211257059203076e+120 --seed 1344997542", 2, OVERFLOW),
        ("3.595835035986246e+95 --seed 1585717526", 2, OVERFLOW),
        ("1.9326105494866876e+188 --seed 566727392", 2, OVERFLOW),
        ("7.047659546848911e+289 --seed 866637300", 2, OVERFLOW),
        ("1.5514505996457368e+285 --seed 782633833", 2, OVERFLOW),
    ],
)
def test_identities_overflow_edges(capsys, args, code, error):
    got_code, out, err = run(capsys, "identities", "--z2", *args.split())
    assert got_code == code
    if code == 2:
        assert out == "" and re.fullmatch(error, err)
    else:
        assert out.count("\n") == 506 + 2 and "violated" not in out
        assert "inf" not in out and "nan" not in out


def _report_bits(reports):
    """Each report's fields, every float spelled out bit for bit."""
    rows = map(dataclasses.astuple, reports)
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


# seeds drawn, z2 over 10^+-8 in even draws and up to 1e40 in odd ones
@pytest.mark.parametrize("draw", range(40))
def test_stacked_trials_match_one_trial_at_a_time_bitwise(draw):
    rng = np.random.default_rng(20261020 + draw)
    z2 = 10.0 ** rng.uniform(-8.0, 8.0) if draw % 2 == 0 else 10.0 ** rng.uniform(8.0, 40.0)
    config = build_config(None, {"seed": int(rng.integers(0, 2**31)), "z2": z2})
    stacked = cli._trial_reports(config)
    one_at_a_time = [cli._trial_reports(config, range(t, t + 1)) for t in range(cli.N_TRIALS)]
    assert [len(reports) for reports in one_at_a_time] == [5] * cli.N_TRIALS
    assert _report_bits(stacked) == _report_bits(r for rs in one_at_a_time for r in rs)


def test_every_mutant_anchor_occurs_once_in_its_file():
    # the on-demand catalogue stops at an anchor that drifted; this finds one without running it
    from mutants import MUTANTS, REPO

    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    counts = {m.name: (REPO / m.path).read_text().count(m.old) for m in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_identities_peak_memory_stays_small(capsys):
    # the trials run about seven to an expansion stack and ten to a cross-term
    # stack: about 1.85 MB at the defaults.  At N // 4 = 200 levels only the
    # n x n momentum P, its powers and its quartic check are formed: about
    # 12 n^2 complex entries, where a (3, 2n, 2n) background would hold 12 n^2
    # on its own.  The first call of a process also builds the parser and runs
    # lazy imports, about 0.95 MB more, so one untraced call comes first
    assert main(["identities"]) == 0
    sizes = ((["identities"], 3_000_000), (["identities", "--N", "803"], 16 * 200**2 * 16))
    for argv, bound in sizes:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < bound, argv


def test_underflowing_mass_scale_is_invalid_input(capsys):
    code, out, err = run(capsys, "spectrum", "--z2", "1e-300", "--R", "1e-300")
    assert (code, out) == (2, "")
    assert err == "error: mass scale 4*pi*z2*R*cos(theta) underflows to 0 (z2=1e-300, R=1e-300)\n"


def test_tiny_scale_trusts_as_at_defaults(capsys):
    # at scale 6.3e-14 the level-block trust rule reads as at scale 6.28
    for argv in ((), ("--z2", "1e-14")):
        trust_line = run(capsys, "spectrum", *argv)[2].splitlines()[2]
        assert trust_line == "trust horizon n <= 19 with 58 trusted eigenvalues (all matched)"


def test_tiny_flux_condenses(capsys):
    # V at the minimum, -R (2 pi z2 cos theta)^2, is below the smallest float
    code, out, err = run(capsys, "condense", "--z2", "1e-250", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["tmin_numeric"] == pytest.approx(doc["tmin_analytic"], rel=1e-14)
    assert err.splitlines()[-1] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ("--R", "1e308", "--z2", "1e-10"),
        ("--R", "5e307", "--z2", "1e-20"),
        ("--R", "1.7e308", "--z2", "1e-12", "--theta", "1.2"),
    ],
)
def test_huge_tension_condenses(capsys, argv):
    # 4 R overflows above R = 4.5e307, while the cubic term 4 (R t^3) is finite
    code, out, err = run(capsys, "condense", *argv, "--format", "structured")
    assert code == 0
    assert math.isfinite(json.loads(out)["stationarity_residual"])
    assert err.splitlines()[-1] == "pass"


def test_minimizer_gate_is_relative_below_one(capsys, monkeypatch):
    # a 5% miss at tmin = 1.77e-81 is far inside an absolute 1e-8
    tmin = math.sqrt(math.pi * 1e-162)
    monkeypatch.setattr("branekit.cli.numeric_minimum", lambda *args, **kwargs: 1.05 * tmin)
    code, _, err = run(capsys, "condense", "--z2", "1e-162")
    assert code == 1
    gap_line, _, verdict = err.splitlines()
    assert gap_line.endswith("(FAIL at 1.8e-89)")
    assert verdict == "FAIL: analytic/numeric minimizer disagreement"


def test_eigensolver_failure_is_invalid_input(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError: one error line, no traceback
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert run(capsys, "spectrum") == (2, "", "error: Eigenvalues did not converge\n")


def test_unallocatable_size_is_invalid_input(capsys, monkeypatch):
    # a curve grid has no bound of its own; numpy's MemoryError is the guard
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("branekit.cli.sample_curve", refuse)
    code, out, err = run(capsys, "curve", "--points", str(10**12))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "MemoryError" in err


@pytest.mark.parametrize(
    "command,n_levels,site,bound",
    [
        ("spectrum", MAX_BAND_LEVELS + 1, "mass operator", MAX_BAND_LEVELS),
        # identities builds its relative momentum P at N // 4 levels, under the dense bound
        ("identities", 4 * (MAX_DENSE_LEVELS + 1), "dense background", MAX_DENSE_LEVELS),
    ],
)
def test_size_past_the_bound_is_invalid_input(capsys, command, n_levels, site, bound):
    code, out, err = run(capsys, command, "--N", str(n_levels))
    assert code == 2
    assert out == ""
    assert err == f"error: {site} truncation size {bound + 1} exceeds its bound {bound}\n"


def test_n_max_past_the_band_bound_is_invalid_input(tmp_path, capsys, monkeypatch):
    # no tower row past MAX_BAND_LEVELS can be trusted, so none is built
    def refuse(*args, **kwargs):
        raise AssertionError("analytic_spectrum must not run")

    monkeypatch.setattr("branekit.cli.analytic_spectrum", refuse)
    cfg = tmp_path / "rows.cfg"
    cfg.write_text(f"n_max = {MAX_BAND_LEVELS + 1}\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: n_max must be in [0, {MAX_BAND_LEVELS}], got {MAX_BAND_LEVELS + 1}\n"


def test_curve_nan_residual_fails_closed(capsys, monkeypatch):
    # a NaN residual must reach the verdict as a failure, never as a pass
    def nan_curve(*args):
        return dataclasses.replace(sample_curve(*args), max_residual=math.nan)

    monkeypatch.setattr("branekit.cli.sample_curve", nan_curve)
    code, _, err = run(capsys, "curve", "--points", "11")
    assert code == 1
    assert "max hyperbola residual = nan (FAIL" in err


def test_route_nan_in_one_field_row_fails_closed(capsys, monkeypatch):
    # a NaN in the third field row alone must reach the route gate as a failure
    build = cli.build_mass_operator_qp

    def nan_row(*args):
        op = build(*args)
        op.matrix[2, 2, 1, 3] = math.nan
        return op

    monkeypatch.setattr(cli, "build_mass_operator_qp", nan_row)
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    assert "route equivalence residual = nan (FAIL at 1.0e-10)" in err


def test_route_nan_in_one_rotated_row_fails_closed(capsys, monkeypatch):
    # the rotated operator enters only its own row's residual, so the other two stay finite
    build = cli.build_mass_operator_fock

    def nan_row(*args):
        op = build(*args)
        op.matrix[2, 2, 1, 3] = math.nan
        return op

    monkeypatch.setattr(cli, "build_mass_operator_fock", nan_row)
    code, _, err = run(capsys, "spectrum")
    assert code == 1
    assert err.splitlines()[1] == "route equivalence residual = nan (FAIL at 1.0e-10)"


def _perturb_field_3(monkeypatch, offset):
    """Move one interior level of field block 3 off its (2n+1) * scale by ``offset`` * scale."""
    build = cli.build_mass_operator_levels

    def perturbed(*args):
        op = build(*args)
        op.matrix[2, 2, 1, 5] += offset * op.scale
        return op

    monkeypatch.setattr(cli, "build_mass_operator_levels", perturbed)


def test_perturbed_field_3_fails_the_transverse_line(capsys, monkeypatch):
    # one interior level of field block 3 off its (2n+1) * scale must reach the verdict
    _perturb_field_3(monkeypatch, 1e-3)
    code, out, err = run(capsys, "spectrum")
    assert code == 1
    assert err.splitlines()[-1] == "transverse field-3 gap = 1.000e-03 (FAIL at 1.0e-06)"
    rows = [line.split(",") for line in out.splitlines() if line.startswith("transverse,")]
    assert rows and all(row[-1] == "false" for row in rows)


@pytest.mark.parametrize("offset,code,verdict", [(0.9e-6, 0, "pass"), (1.5e-6, 1, "FAIL")])
def test_transverse_line_at_its_bound(capsys, monkeypatch, offset, code, verdict):
    _perturb_field_3(monkeypatch, offset)
    status, _, err = run(capsys, "spectrum")
    assert status == code
    assert err.splitlines()[-1] == f"transverse field-3 gap = {offset:.3e} ({verdict} at 1.0e-06)"


def _add_trusted_mode(units):
    def edit(modes, scale):
        extra = np.rec.fromarrays(([units * scale], [units], [True], [0.0]), dtype=modes.dtype)
        return np.concatenate((modes, extra)).view(np.recarray)

    return edit


def _shift_negative_modes(shift):
    def edit(modes, scale):
        modes.units[modes.units < -0.5] -= shift
        return modes

    return edit


@pytest.mark.parametrize(
    "edit,code,unique",
    [
        # just above -tol a mode is a zero mode, so the tachyon stays unique
        (_add_trusted_mode(-0.9e-6), 0, True),
        # just below -tol it is a second negative mode, off the tower too
        (_add_trusted_mode(-1.5e-6), 1, False),
        # a second trusted negative at -1, which the tower also counts as a tachyon
        (_add_trusted_mode(-1.0), 1, False),
        # the one negative mode below -1 by 0.9 and 1.5 times the match tolerance
        (_shift_negative_modes(0.9e-6), 0, True),
        (_shift_negative_modes(1.5e-6), 1, False),
    ],
    ids=["zero-mode", "small-negative", "second-negative", "inside", "outside"],
)
def test_tachyon_line_at_its_bounds(capsys, monkeypatch, edit, code, unique):
    solve = cli.numeric_spectrum

    def edited(op, *args, **kwargs):
        return edit(solve(op, *args, **kwargs), op.scale)

    monkeypatch.setattr(cli, "numeric_spectrum", edited)
    status, _, err = run(capsys, "spectrum")
    assert status == code
    verdict = "unique trusted negative at -scale" if unique else "MISSING OR NOT UNIQUE"
    assert err.splitlines()[3] == f"tachyon line: {verdict}"


@pytest.mark.parametrize(
    "units,code,matched",
    [(3.0, 0, "all matched"), (2.0, 1, "UNMATCHED PRESENT")],
    ids=["tower-value", "off-tower"],
)
def test_tower_gate_at_its_bound(capsys, monkeypatch, units, code, matched):
    # one more trusted mode: on the tower at 3, or off it at 2, one unmatched past the bound 0
    solve = cli.numeric_spectrum

    def edited(op, *args, **kwargs):
        return _add_trusted_mode(units)(solve(op, *args, **kwargs), op.scale)

    monkeypatch.setattr(cli, "numeric_spectrum", edited)
    status, _, err = run(capsys, "spectrum")
    assert status == code
    assert err.splitlines()[2] == f"trust horizon n <= 19 with 59 trusted eigenvalues ({matched})"


@pytest.mark.parametrize("violated", [False, True])
def test_violated_identities_at_their_bound(capsys, monkeypatch, violated):
    # the last record, the rotated form on zero fields, marked violated: one past the bound 0
    check = cli.check_quartic_ttilde

    def marked(ts, seed=None):
        report = check(ts, seed=seed)
        if violated and not ts.any():
            return dataclasses.replace(report, verdict=VERDICT_VIOLATED)
        return report

    monkeypatch.setattr(cli, "check_quartic_ttilde", marked)
    status, _, err = run(capsys, "identities")
    assert status == int(violated)
    assert err.splitlines()[2:] == ["FAIL: 1 exact/pass identities violated"] * violated


@pytest.mark.parametrize(
    "field,tol,line",
    [
        ("max_residual", 1e-10, "max hyperbola residual"),
        ("max_eigensolve_gap", 1e-12, "max closed-form/eigensolve gap"),
    ],
)
@pytest.mark.parametrize("factor,code,verdict", [(0.9, 0, "pass"), (1.5, 1, "FAIL")])
def test_curve_gates_at_their_bounds(capsys, monkeypatch, field, tol, line, factor, code, verdict):
    def curve_at(*args):
        return dataclasses.replace(sample_curve(*args), **{field: factor * tol})

    monkeypatch.setattr(cli, "sample_curve", curve_at)
    status, _, err = run(capsys, "curve", "--points", "11")
    assert status == code
    assert f"{line} = {factor * tol:.3e} ({verdict} at {tol:.1e})" in err.splitlines()


def test_two_point_curve_passes(capsys):
    # a single grid step, from x0 = -3 across 0 to 3
    code, out, _ = run(capsys, "curve", "--points", "2", "--format", "structured")
    assert code == 0
    assert json.loads(out)["max_eigensolve_gap"] <= DEFAULT_TOLERANCES["block_eigensolve"]


def test_failing_eigensolve_gate_is_named(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("tol_block_eigensolve = 1e-300\n")
    code, _, err = run(capsys, "curve", "--config", str(cfg))
    assert code == 1
    (line,) = [line for line in err.splitlines() if "eigensolve gap" in line]
    assert line.endswith("(FAIL at 1.0e-300)")


def test_failing_stationarity_gate_is_named(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("tol_stationarity = 1e-300\n")
    code, _, err = run(
        capsys, "condense", "--config", str(cfg), "--theta", "0.3", "--z2", "2.5", "--R", "3"
    )
    assert code == 1
    gap_line, stationarity_line, verdict = err.splitlines()
    assert gap_line.endswith("(pass at 1.0e-08)")
    # the bound is tol * max(1, scale), about 7e-298 here
    assert "(FAIL at 7.0e-298)" in stationarity_line
    assert verdict == "FAIL: stationarity residual at the analytic minimum"


@pytest.mark.parametrize("factor,code,verdict", [(0.9, 0, "pass"), (1.5, 1, "FAIL")])
def test_stationarity_gate_at_its_floor(capsys, monkeypatch, factor, code, verdict):
    # at z2 = 1e-4 the bound's scale 2 * scale * tmin is 2.2e-5, so the bound is tol itself
    monkeypatch.setattr(cli, "potential_derivative", lambda *args: factor * 1e-12)
    status, _, err = run(capsys, "condense", "--z2", "1e-4")
    assert status == code
    line = f"stationarity residual {factor * 1e-12:.3e} ({verdict} at 1.0e-12)"
    assert err.splitlines()[1].endswith(line)


def test_nan_minimizer_gap_fails_closed(capsys, monkeypatch):
    monkeypatch.setattr("branekit.cli.numeric_minimum", lambda *args, **kwargs: math.nan)
    code, _, err = run(capsys, "condense")
    assert code == 1
    gap_line, stationarity_line, verdict = err.splitlines()
    assert gap_line.endswith("gap nan (FAIL at 1.0e-08)")
    assert "(pass at " in stationarity_line
    assert verdict == "FAIL: analytic/numeric minimizer disagreement"


@pytest.mark.parametrize("fmt,suffix", [("delimited", "csv"), ("structured", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_report_matches_golden(name, fmt, suffix, capsys):
    expected_code, argv = GOLDEN_RUNS[name]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == expected_code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{suffix}").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / f"{name}.err").read_bytes()


# ------------------------------------------------------------ cached parser
# The parser is built on the first ``main`` call of a process and reused.


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--N", "12"],
        ["identities", "--N", "8", "--format", "structured"],
        ["condense", "--theta", "0.4"],
        ["curve", "--points", "7", "--format", "structured"],
        ["spectrum", "--N", "x"],
        ["--version"],
    ],
    ids=" ".join,
)
def test_repeated_calls_match_the_first(argv, capsys):
    first = outcome(capsys, argv)
    misses = cli._build_parser.cache_info().misses
    assert [outcome(capsys, argv) for _ in range(3)] == [first] * 3
    assert cli._build_parser.cache_info().misses == misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--theta", "abc"],
        ["spectrum", "--N", "1e3"],
        ["bogus"],
        [],
        ["curve", "--points", "x"],
    ],
    ids=repr,
)
def test_flag_value_that_does_not_parse_is_one_error_line(argv, capsys):
    # main returns, as for a config value that does not parse: no usage text
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_no_option_leaks_into_the_next_call(tmp_path, capsys):
    rows = outcome(capsys, ["curve", "--points", "7"])[1].splitlines()
    plain = outcome(capsys, ["curve"])
    assert sum(not line.startswith("#") for line in rows) == 4 * 7
    assert sum(not line.startswith("#") for line in plain[1].splitlines()) == 4 * 101
    path = tmp_path / "curve.csv"
    assert outcome(capsys, ["curve", "--out", str(path)]) == (0, "", plain[2])
    assert path.read_text() == plain[1]
    assert outcome(capsys, ["curve"]) == plain


def test_import_builds_no_parser():
    src = str(Path(branekit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import branekit.cli as c; print(c._build_parser.cache_info())"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert "currsize=0)" in done.stdout


# ------------------------------------------------------------ writer oracle
# The writers the column-wise ones replaced, kept verbatim: one ``_text``
# call per delimited value, and one dict per record, written by the
# pure-Python json encoder that ``indent=2`` falls back to.


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


def oracle_delimited(report: Report, config: RunConfig) -> str:
    fields = dict(report.fields)
    width = len(report.columns)
    lines = [
        f"# theta={_text(config.theta)} z2={_text(config.z2)} R={_text(config.R)}",
        f"# columns: {','.join(report.columns)}",
    ]
    lines.extend(f"# {name}: {_text(fields[name])}" for name in report.headers)
    lines.extend(",".join([_text(v) for v in row[:width]]) for row in report.rows)
    return "\n".join(lines) + "\n"


def oracle_structured(report: Report, config: RunConfig) -> str:
    params = ("theta", "z2", "R", "N", "margin_k", "n_max", "seed")
    doc = {
        "report": report.kind,
        "params": {name: _plain(getattr(config, name)) for name in params},
        "tolerances": {k: _plain(v) for k, v in sorted(config.tolerances.items())},
    }
    for name, value in report.fields:
        if isinstance(value, slice):
            value = [dict(zip(report.columns, map(_plain, row))) for row in report.rows[value]]
        doc[name] = _plain(value)
    doc["passed"] = report.passed
    return json.dumps(doc, indent=2) + "\n"


ORACLES = {FORMAT_DELIMITED: oracle_delimited, FORMAT_STRUCTURED: oracle_structured}


def as_rows(report: Report) -> SimpleNamespace:
    """The report as the oracle reads it: one tuple of Python scalars per row."""
    columns = [c.tolist() for c in report.data]
    fields = {field.name: getattr(report, field.name) for field in dataclasses.fields(report)}
    return SimpleNamespace(**fields, passed=report.passed, rows=list(zip(*columns)))


def assert_writers_match(report: Report, config: RunConfig, label: str) -> None:
    rows = as_rows(report)
    for fmt, oracle in ORACLES.items():
        assert RENDERERS[fmt](report, config) == oracle(rows, config), f"{fmt}: {label}"


def drawn_argv(command: str, rng: np.random.Generator) -> list[str]:
    """One run of ``command`` at drawn parameters, across their valid ranges."""
    argv = [
        command,
        f"--theta={rng.uniform(0.0, 1.5)!r}",
        f"--z2={10.0 ** rng.uniform(-8.0, 8.0)!r}",
        f"--R={10.0 ** rng.uniform(-5.0, 5.0)!r}",
    ]
    if command == "spectrum":
        argv.append(f"--N={rng.integers(6, 401)}")
    elif command == "identities":
        argv += [f"--N={rng.integers(6, 41)}", f"--seed={rng.integers(2**31)}"]
    elif command == "curve":
        # a symmetric range with an odd point count puts x0 = 0 on the grid
        x0_max = 10.0 ** rng.uniform(-3.0, 2.0)
        x0_min = -x0_max if rng.random() < 0.5 else x0_max - 10.0 ** rng.uniform(-3.0, 2.5)
        argv += [f"--x0-min={x0_min!r}", f"--x0-max={x0_max!r}"]
        argv.append(f"--points={rng.integers(2, 601)}")
    return argv


#: Drawn runs per command.  Identities runs its 100-trial suite every time,
#: and its report has the same columns and kinds at any parameters; most of
#: a curve draw's time is the oracle's pure-Python encoder.
DRAWS = {"spectrum": 86, "identities": 3, "condense": 86, "curve": 25}


def writers_match_on(argvs, capsys, monkeypatch) -> None:
    """Run each argv, and match both writers against the oracle on its report."""
    rendered = []

    def both(report, config):
        rendered.append((report, config))
        return ""

    monkeypatch.setattr(cli, "RENDERERS", dict.fromkeys(RENDERERS, both))
    for argv in argvs:
        assert main(argv) in (0, 1), argv
        assert_writers_match(*rendered[-1], " ".join(argv))
    capsys.readouterr()
    assert len(rendered) == len(argvs)


@pytest.mark.parametrize("command", sorted(DRAWS))
def test_writers_match_the_oracle_on_drawn_reports(command, capsys, monkeypatch):
    rng = np.random.default_rng(sorted(DRAWS).index(command))
    argvs = [drawn_argv(command, rng) for _ in range(DRAWS[command])]
    writers_match_on(argvs, capsys, monkeypatch)


def test_writers_match_the_oracle_on_a_dense_curve(capsys, monkeypatch):
    # drawn from the benchmark's dense-curve ranges, at a fifth of its points
    rng = np.random.default_rng(5)
    argv = [
        "curve",
        f"--theta={rng.uniform(0.05, 1.45)!r}",
        f"--z2={rng.uniform(0.25, 4.0)!r}",
        f"--R={rng.uniform(0.25, 4.0)!r}",
        f"--x0-min={rng.uniform(-4.0, -1.0)!r}",
        f"--x0-max={rng.uniform(1.0, 4.0)!r}",
        "--points=2001",
    ]
    writers_match_on([argv], capsys, monkeypatch)


def test_writers_match_the_oracle_on_edge_values():
    floats = [
        -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 1e15, -1234567890123456.7,
        9999999999999998.0, 5e-324, -3.0, 2.9999999999999996, 1e16, 1e-5, 1e-4,
        0.1, 1.0000000000000002, -0.0, math.nan, 1.7976931348623157e308,
    ]
    n = len(floats)
    labels = ['say "hi"', "caf\u00e9 \u2013 \\", "plain"]
    report = Report(
        kind="edge \u00e9",
        columns=("value", "finite", "level", "flag", "label", "seed"),
        data=(
            np.array(floats),
            np.array([abs(x) if math.isfinite(x) else 1.5 for x in floats]),
            np.arange(n) - 3,
            np.arange(n) % 2 == 0,
            np.array([labels[i % 3] for i in range(n)]),
            np.array([[None, 1, "1", -7][i % 4] for i in range(n)], dtype=object),
        ),
        fields=(
            ("scale", -0.0),
            ("worst", math.nan),
            ("count", n),
            ("name", "\u00e9\"t"),
            ("records", RECORDS),
            ("none", slice(0, 0)),
            ("tail", slice(n - 2, None)),
        ),
        gates=(Gate("edge", math.nan, 1.0),),
        notes=(),
        headers=("scale", "worst", "count", "name"),
    )
    config = build_config(None, {"theta": 0.0, "z2": 1e-300, "R": 1e300})
    assert_writers_match(report, config, "edge values")
    empty = dataclasses.replace(report, data=tuple(c[:0] for c in report.data), headers=())
    assert_writers_match(empty, config, "no rows")


#: Floats whose 15-digit texts repr may spell differently: subnormals, the
#: smallest normal, signed zeros, non-finite values, exponent 15 and 16
#: boundaries, a rounding to an integer, and one that rounds past the
#: largest float.
NAMED_FLOATS = [
    5e-324, 2.2250738585072014e-308, 0.0, -0.0, math.nan, math.inf, -math.inf,
    999999999999999.6, 1e15, 9999999999999998.0, 1e16, 2.9999999999999996,
    1.7976931348623157e308,
]


def test_json_float_texts_match_the_repr_of_the_rounding():
    # the named values and their negations, their nearest neighbours, and random bit patterns
    named = np.array(NAMED_FLOATS + [-x for x in NAMED_FLOATS]).view(np.int64)
    neighbours = (named[:, None] + np.arange(-3, 4)).ravel()
    info = np.iinfo(np.int64)
    drawn = np.random.default_rng(64).integers(info.min, info.max, 4 * 10**5, np.int64, True)
    values = np.concatenate((neighbours, drawn)).view(float).tolist()
    # the writers' printf-style conversion spells each float as format() does
    assert list(map("%.15g".__mod__, values)) == list(map("{:.15g}".format, values))
    values = values[: neighbours.size + 10**5]
    # the repr of each 15-digit rounding, as json spells it
    rounded = map(float.__repr__, map(float, map("{:.15g}".format, values)))
    spelled = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    assert cli._json_floats(values) == [spelled.get(text, text) for text in rounded]


# ------------------------------------------------------------- one channel
# Every number a report emits is in a column: the structured rows are the
# delimited rows, key for column and value for value.


def _same_value(text: str, value) -> bool:
    """Whether a delimited field and a structured value are one value, NaN equal to NaN."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value or (math.isnan(value) and math.isnan(float(text)))
    return text == str(value)


@pytest.mark.parametrize("command", sorted(DRAWS))
def test_both_formats_carry_the_same_rows(command, capsys):
    # one report channel: a structured record holds exactly the delimited columns, in order
    rng = np.random.default_rng(40 + sorted(DRAWS).index(command))
    for argv in ([command], drawn_argv(command, rng), drawn_argv(command, rng)):
        code, text, err = run(capsys, *argv, "--format", "delimited")
        structured = run(capsys, *argv, "--format", "structured")
        assert code in (0, 1) and (structured[0], structured[2]) == (code, err), argv
        doc = json.loads(structured[1])
        if command == "condense":
            records = [dict(list(doc.items())[3:-1])]  # its one row is the summary
        else:
            records = doc["points"] + doc["asymptotes"] if command == "curve" else doc["records"]
        lines = text.splitlines()
        header = next(line for line in lines if line.startswith("# columns: "))
        columns = header.removeprefix("# columns: ").split(",")
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert [list(record) for record in records] == [columns] * len(rows), argv
        for row, record in zip(rows, records):
            assert all(map(_same_value, row, record.values())), (argv, row, record)
