import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branekit
from branekit.background import MAX_DENSE_LEVELS
from branekit.cli import main
from branekit.condensation import sample_curve
from branekit.config import (
    DEFAULT_TOLERANCES,
    RunConfig,
    build_config,
    read_config_file,
)
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
        "fermion",
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


def test_minimizer_gate_is_relative_below_one(capsys, monkeypatch):
    # a 5% miss at tmin = 1.77e-81 is far inside an absolute 1e-8
    tmin = math.sqrt(math.pi * 1e-162)
    monkeypatch.setattr("branekit.cli.numeric_minimum", lambda *args, **kwargs: 1.05 * tmin)
    code, _, err = run(capsys, "condense", "--z2", "1e-162")
    assert code == 1
    gap_line, _, verdict = err.splitlines()
    assert gap_line.endswith("(FAIL at 1.8e-89)")
    assert verdict == "FAIL: analytic/numeric minimizer disagreement"


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
        # identities builds its dense background at N // 4
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
