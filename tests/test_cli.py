import json
import math

import pytest

from branekit.cli import cmd_curve, main
from branekit.config import (
    DEFAULT_TOLERANCES,
    RunConfig,
    build_config,
    read_config_file,
)


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


def test_overflowing_parameters_are_invalid_input(capsys):
    code, out, err = run(capsys, "condense", "--z2", "1e300")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "OverflowError" in err


def test_unallocatable_size_is_invalid_input(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.34 TiB for an array")

    monkeypatch.setattr("branekit.cli.build_background", refuse)
    code, out, err = run(capsys, "spectrum", "--N", "100000")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "MemoryError" in err


def test_curve_nan_residual_fails_closed(capsys):
    # bypasses validation to reach the verdict with non-finite numbers
    code = cmd_curve(RunConfig(z2=math.inf), None, -3.0, 3.0, 11)
    err = capsys.readouterr().err
    assert code == 1
    assert "max hyperbola residual = nan (FAIL" in err
