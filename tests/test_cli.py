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


def test_diagnose_rejects_alpha(cohort_csv, capsys):
    # diagnose runs no test, so a significance level would be silently ignored
    code = cli_main(["diagnose", "--input", str(cohort_csv), "--alpha", "0.01"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unrecognized arguments: --alpha" in err and "usage" in err


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


@pytest.mark.parametrize("command", [
    ["power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
     "--effect", "season", "--n", "10"],
    ["anova"], ["posthoc", "--factor", "season"], ["report"],
])
@pytest.mark.parametrize("alpha", ["0", "1", "-0.1", "nan"])
def test_alpha_outside_0_1_is_a_usage_error(command, alpha, tmp_path, capsys):
    # checked when parsing, before the (missing) input file is read
    if command[0] != "power":
        command = [*command, "--input", str(tmp_path / "missing.csv")]
    assert cli_main([*command, "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --alpha: must be a number in (0, 1)\n")
    assert "usage: losanova" in captured.err and not captured.out


_HUGE_LOG10_TABLE = """\
transform: logarithmic
response: log10(los)
Source                       Type III Sum of Squares  df   Mean Square  F      Sig.
-----------------------------------------------------------------------------------
Corrected Model              30552.969                39   783.409      1.344  .131
Intercept                    812.033                  1    812.033      1.393  .241
gender                       482.707                  1    482.707      .828   .365
season                       1477.979                 3    492.660      .845   .473
age_group                    1991.166                 4    497.791      .854   .495
gender * season              1477.979                 3    492.660      .845   .473
gender * age_group           1991.166                 4    497.791      .854   .495
season * age_group           6516.542                 12   543.045      .932   .520
gender * season * age_group  6516.542                 12   543.045      .932   .520
Error                        47789.013                82   582.793
Total                        80163.650                122
Corrected Total              78341.982                121

significant at alpha=0.05: none
"""


def test_anova_of_huge_finite_responses(tmp_path, capsys):
    # los 1e200 and 2e200 pass ingest, but their squares overflow on the raw
    # scale; any RuntimeWarning on the way is an error under the test settings
    from losanova.synth import default_layout

    layout = default_layout()
    lines = ["gender,season,age_group,los"]
    for names in map(layout.cell_names, layout.cells()):
        lines += [",".join([*names, los]) for los in ("3.0", "5.0", "4.0")]
    lines += ["male,spring,1,1e200", "male,spring,1,2e200"]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["anova", "--input", str(path), "--transform"]

    assert cli_main([*argv, "none"]) == 1
    assert capsys.readouterr().err == (
        "error: sums of squares overflow on the los scale; "
        "rescale or log-transform the response\n")
    # the overflowed cell leaves the sd-mean regression; the other 39 share one mean
    assert cli_main([*argv, "auto"]) == 1
    assert "log cell means are constant" in capsys.readouterr().err
    assert cli_main([*argv, "log10"]) == 0
    assert capsys.readouterr().out == _HUGE_LOG10_TABLE


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


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["losanova", "losanova.cli"])
def test_python_dash_m_runs_cli(module, tmp_path):
    env = _src_env()
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


# runs cli_main on the arguments in a fresh interpreter and prints its exit
# code and whether scipy was imported
_FRESH_CLI = """
import contextlib, io, sys
from losanova.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli_main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


def _fresh(code: str, *argv: str) -> str:
    run = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.mark.parametrize("module", ["losanova", "losanova.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _fresh(f"import sys, {module}; print('scipy' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "200", "--seed", "3", "--out", "{tmp}/cohort.csv"],
    ["--version"],
    ["--help"],
    ["report", "--input", "{tmp}/missing.csv"],
])
def test_commands_without_numerics_leave_scipy_unloaded(argv, tmp_path):
    code = 1 if argv[0] == "report" else 0
    assert _fresh(_FRESH_CLI, *(a.format(tmp=tmp_path) for a in argv)) == f"{code} False"


def test_fresh_report_loads_scipy_and_writes_the_same_artifacts(cohort_csv, tmp_path):
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert cli_main(["report", "--input", str(cohort_csv), "--out", str(here)]) == 0
    assert _fresh(_FRESH_CLI, "report", "--input", str(cohort_csv), "--out", str(fresh)) \
        == "0 True"
    files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    for rel in files:
        assert (here / rel).read_bytes() == (fresh / rel).read_bytes(), rel
