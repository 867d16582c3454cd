"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from losanova.cli import cli_main


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cohort.csv"
    code = cli_main(["synth", "--n", "8000", "--seed", "0", "--out", str(path)])
    assert code == 0
    return path


def test_power_oc_table(capsys):
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--effect", "season", "--n", "10,20,30,40,43",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if re.match(r"^\d+\s", l)]
    assert [l.split()[0] for l in lines] == ["10", "20", "30", "40", "43"]
    # DFD column 40(n-1)
    assert [l.split()[3] for l in lines] == ["360", "760", "1160", "1560", "1680"]
    published_phi = [1.1523, 1.6297, 1.9959, 2.3047, 2.3896]
    for line, phi in zip(lines, published_phi):
        assert abs(float(line.split()[1]) - phi) <= 5e-4


def test_power_replication_search(capsys):
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--effect", "season", "--target-power", "0.95",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "smallest n" in out and ": 43" in out


def test_power_all_effects(capsys):
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--all-effects", "--target-power", "0.95",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall replications required" in out
    assert "season * gender * age_group" in out


def test_power_large_noncentrality(capsys):
    # lam ~ 1300 at n = 2450: the noncentral series must not fail spuriously
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--effect", "season", "--n", "2450",
    ])
    assert code == 0
    assert re.search(r"^2450\s", capsys.readouterr().out, re.M)


def test_power_unresolvable_noncentrality_exits_2(capsys):
    # lam ~ 2.5e28 is past what the series can resolve: fail fast, not hang
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1e12", "--sigma2", "1e-3",
        "--effect", "season", "--n", "5",
    ])
    assert code == 2
    assert "cannot resolve its weights" in capsys.readouterr().err


def test_power_overflowing_min_diff_exits_2(capsys):
    # min_diff^2 overflows to inf, so lam = inf: a numerical failure, not a traceback
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1e200", "--sigma2", "1",
        "--effect", "season", "--n", "5",
    ])
    assert code == 2
    assert "cannot resolve its weights" in capsys.readouterr().err


@pytest.mark.parametrize("min_diff, sigma2, name", [
    ("inf", "1", "min_diff"), ("1", "inf", "sigma2"), ("1", "nan", "sigma2"),
])
def test_power_non_finite_spec_exits_1(capsys, min_diff, sigma2, name):
    # sigma2 = inf used to report power = alpha without complaint
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", min_diff, "--sigma2", sigma2,
        "--effect", "season", "--n", "5",
    ])
    assert code == 1
    assert f"error: {name} must be finite" in capsys.readouterr().err


def test_synth_then_anova(cohort_csv, capsys):
    code = cli_main(["anova", "--input", str(cohort_csv), "--transform", "auto",
                     "--alpha", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Corrected Model" in out and "Error" in out
    assert "transform (auto): logarithmic" in out
    assert "log10(los)" in out


def test_anova_transform_none_differs(cohort_csv, capsys):
    assert cli_main(["anova", "--input", str(cohort_csv), "--transform", "none"]) == 0
    raw_out = capsys.readouterr().out
    assert cli_main(["anova", "--input", str(cohort_csv), "--transform", "log10"]) == 0
    log_out = capsys.readouterr().out
    assert "transform: none" in raw_out and "transform: logarithmic" in log_out

    def error_ss(text):
        row = next(l for l in text.splitlines() if l.startswith("Error"))
        return float(row.split()[1])

    assert error_ss(raw_out) != pytest.approx(error_ss(log_out))


def test_posthoc_command(cohort_csv, capsys):
    code = cli_main(["posthoc", "--input", str(cohort_csv), "--factor", "age_group"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(I) age_group" in out
    assert "sig." in out


def test_diagnose_command(cohort_csv, capsys):
    code = cli_main(["diagnose", "--input", str(cohort_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "transform" in out
    assert "P-P max deviation" in out


def test_report_directory(cohort_csv, tmp_path, capsys):
    outdir = tmp_path / "report"
    code = cli_main(["report", "--input", str(cohort_csv), "--transform", "auto",
                     "--out", str(outdir)])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["parameters"]["transform_applied"] == "logarithmic"
    for artifact in manifest["artifacts"]:
        assert (outdir / artifact).exists(), artifact
    assert (outdir / "tables" / "anova.txt").exists()
    assert (outdir / "tables" / "anova.csv").exists()
    assert (outdir / "tables" / "anova.json").exists()
    assert (outdir / "plots" / "pp_plot.svg").exists()
    assert (outdir / "plots" / "subset_means_season.svg").exists()


def test_report_reruns_byte_identical(cohort_csv, tmp_path):
    dirs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        assert cli_main(["report", "--input", str(cohort_csv), "--out", str(outdir)]) == 0
        dirs.append(outdir)
    for rel in ("tables/anova.txt", "tables/coefficients.csv",
                "tables/subsets_age_group.json", "plots/residual_histogram.svg",
                "manifest.json"):
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


def test_report_stdout_json(cohort_csv, capsys):
    code = cli_main(["report", "--input", str(cohort_csv), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["parameters"]["n_observations"] == 8000


def test_missing_input_exits_1(tmp_path, capsys):
    code = cli_main(["anova", "--input", str(tmp_path / "missing.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_row_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("gender,season,age_group,los\nmale,spring,3,-4\n")
    code = cli_main(["anova", "--input", str(path)])
    assert code == 1
    assert ":2:" in capsys.readouterr().err


def test_non_utf8_input_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"gender,season,age_group,los\nm\xe4le,winter,1,3\n")
    code = cli_main(["anova", "--input", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid UTF-8 text")
    assert "0xe4" in err and "Traceback" not in err


def test_unknown_subcommand_and_flag(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert cli_main(["power", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_effect_flag(capsys):
    code = cli_main(["power", "--levels", "4,2,5", "--min-diff", "1",
                     "--sigma2", "9.41"])
    assert code == 1
    assert "--effect" in capsys.readouterr().err


def test_power_custom_factor_names(capsys):
    code = cli_main([
        "power", "--levels", "3,2", "--factors", "ward,shift", "--min-diff", "0.5",
        "--sigma2", "1.2", "--effect", "ward*shift", "--target-power", "0.8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "ward * shift" in out


def test_anova_max_order(cohort_csv, capsys):
    code = cli_main(["anova", "--input", str(cohort_csv), "--transform", "log10",
                     "--max-order", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gender * season" not in out
    assert "age_group" in out


def test_posthoc_two_level_factor(cohort_csv, capsys):
    code = cli_main(["posthoc", "--input", str(cohort_csv), "--factor", "gender"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(I) gender" in out


def test_numerical_failure_exits_2(cohort_csv, capsys, monkeypatch):
    from losanova import NumericalError
    import losanova.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("series did not converge")

    monkeypatch.setattr(cli_mod, "type3_anova", boom)
    code = cli_main(["anova", "--input", str(cohort_csv)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


@pytest.mark.parametrize("module", ["losanova", "losanova.cli"])
def test_python_dash_m_runs_cli(module, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "m.csv"
    run = subprocess.run(
        [sys.executable, "-m", module, "synth", "--n", "100", "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_text().count("\n") == 101
    bad = subprocess.run([sys.executable, "-m", module, "synth", "--bogus"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 1
