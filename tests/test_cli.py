"""Command-line interface: subcommands, exit codes, artifacts."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("target, shown, n", [
    ("0.95", "0.95", 33), ("0.123456", "0.123456", 3),
    ("0.9999999999999999", "0.9999999999999999", 221),
])
def test_power_prints_the_target_in_full(target, shown, n, capsys):
    # ":g" printed 0.9999999999999999 as "1", a target no n can reach
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--effect", "season", "--target-power", target,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith(f"\nsmallest n with power >= {shown} for season: {n}\n")


def test_power_all_effects(capsys):
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--all-effects", "--target-power", "0.95",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall replications required" in out
    assert "season * gender * age_group" in out


@pytest.mark.parametrize("extra, flag", [
    (["--effect", "season"], "--effect"), (["--n", "10,20"], "--n"),
])
def test_power_all_effects_rejects_effect_and_n(extra, flag, capsys):
    # --all-effects plans every effect at its smallest n; it used to ignore these
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--all-effects", *extra,
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --all-effects cannot be combined with {flag}\n"


def test_power_large_noncentrality(capsys):
    # lam ~ 1300 at n = 2450: the noncentral series must not fail spuriously
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1", "--sigma2", "9.41",
        "--alpha", "0.01", "--effect", "season", "--n", "2450",
    ])
    assert code == 0
    assert re.search(r"^2450\s", capsys.readouterr().out, re.M)


def test_power_past_the_noncentrality_cap_has_power_1(capsys):
    # lam ~ 2.5e28 is past the series' cap, but every term from the window's
    # first on is at 0, so the answer is decided without building the window
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1e12", "--sigma2", "1e-3",
        "--effect", "season", "--n", "5",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2].split()[-2:] == ["0.0000", "1.0000"]


def test_power_overflowing_min_diff_has_power_1(capsys):
    # min_diff^2 overflows to inf, so lam = inf: beta is 0, not a failure
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1e200", "--sigma2", "1",
        "--effect", "season", "--n", "5",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2].split()[-2:] == ["0.0000", "1.0000"]


def test_power_near_the_float_limit_has_power_1(capsys):
    # lam ~ 2.5e307 is finite, but 2 (lam/2) log-bound, in the window's
    # lower end, overflows: beta is still 0, not a traceback
    code = cli_main([
        "power", "--levels", "4,2,5", "--min-diff", "1e153", "--sigma2", "1",
        "--effect", "season", "--n", "5",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2].split()[-2:] == ["0.0000", "1.0000"]


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


def test_posthoc_prints_the_report_tables(cohort_csv, tmp_path, capsys):
    # posthoc and report reach Scheffe the same way, so their tables agree byte for byte
    outdir = tmp_path / "report"
    assert cli_main(["report", "--input", str(cohort_csv), "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert cli_main(["posthoc", "--input", str(cohort_csv), "--factor", "age_group"]) == 0
    out = capsys.readouterr().out
    _, body = out.split("\n", 1)
    tables = outdir / "tables"
    assert body == (tables / "scheffe_age_group.txt").read_text(encoding="utf-8") + "\n" \
        + (tables / "subsets_age_group.txt").read_text(encoding="utf-8")


def test_diagnose_command(cohort_csv, capsys):
    code = cli_main(["diagnose", "--input", str(cohort_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "transform" in out
    assert "P-P max deviation" in out


@pytest.mark.parametrize("seed, transform", [(0, "auto"), (5, "log10"), (5, "none")])
def test_diagnose_prints_the_report_statistics(tmp_path, capsys, monkeypatch, seed, transform):
    # diagnose prints the report's funnel ratios and P-P max deviation,
    # formatted. Each command draws the P-P plot once, from the residuals in
    # observation order: in fitted-value order, 132 of the 8,000 theoretical
    # values of seed 5 under log10 differ in their last bits
    from losanova import diagnostics

    path = tmp_path / "cohort.csv"
    assert cli_main(["synth", "--n", "8000", "--seed", str(seed), "--out", str(path)]) == 0
    plots = []
    pp_plot = diagnostics.pp_plot
    monkeypatch.setattr(diagnostics, "pp_plot", lambda e: plots.append(pp_plot(e)) or plots[-1])
    argv = ["--input", str(path), "--transform", transform]
    capsys.readouterr()
    assert cli_main(["report", "--format", "json", *argv]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert len(plots) == 1
    assert cli_main(["diagnose", *argv]) == 0
    assert len(plots) == 2
    out = capsys.readouterr().out.splitlines()
    # without a transform the raw-scale model is the analysis-scale one
    raw_key = "residual_vs_fitted" if transform == "none" else "raw_residual_vs_fitted"
    raw = diag[raw_key]["funnel_ratio"]
    spread = diag["residual_vs_fitted"]["funnel_ratio"]
    pp = diag["pp_plot"]["max_abs_deviation"]
    assert out[0] == f"raw-scale model: funnel ratio {raw:.3f}"
    if transform == "none":
        assert not [line for line in out if "P-P" in line]
    else:
        assert out[-1].endswith(f"funnel ratio {spread:.3f}, P-P max deviation {pp:.4f}")
    report_pp, diagnose_pp = plots
    assert np.array_equal(report_pp.theoretical, diagnose_pp.theoretical)


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


def test_report_without_transform_writes_each_series_once(cohort_csv, tmp_path, capsys):
    # without a transform the raw scale is the analysis scale, so there are
    # no raw_ copies: neither plots nor JSON series
    from losanova import ingest_csv, residual_diagnostics

    outdir = tmp_path / "report"
    argv = ["report", "--input", str(cohort_csv), "--transform", "none"]
    assert cli_main([*argv, "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["parameters"]["transform_applied"] == "none"
    plots = sorted(p.name for p in (outdir / "plots").iterdir())
    assert [name for name in plots if not name.startswith("subset_means_")] == [
        "pp_plot.svg", "residual_histogram.svg", "residual_vs_fitted.svg"]
    assert [a for a in manifest["artifacts"] if a.startswith("plots/")] == [
        f"plots/{name}" for name in plots]
    capsys.readouterr()
    assert cli_main([*argv, "--format", "json"]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert sorted(diag) == ["pp_plot", "residual_histogram", "residual_vs_fitted"]
    d = ingest_csv(cohort_csv)
    for name, series in residual_diagnostics(d, d).items():
        doc = diag[name]
        assert doc.pop("kind") == series.kind
        assert list(doc) == sorted(f.name for f in dataclasses.fields(series))
        for field, value in doc.items():
            assert np.array_equal(value, getattr(series, field)), (name, field)


def test_report_stdout_json(cohort_csv, capsys):
    code = cli_main(["report", "--input", str(cohort_csv), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["parameters"]["n_observations"] == 8000


def test_report_fits_once_and_passes_alpha_through(cohort_csv, tmp_path, monkeypatch):
    import losanova.anova as anova_mod
    import losanova.linmod as linmod_mod
    from scipy.special import stdtrit

    calls = []
    fit = linmod_mod.ols_fit

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(anova_mod, "ols_fit", counted)
    monkeypatch.setattr(linmod_mod, "ols_fit", counted)
    outdir = tmp_path / "report"
    argv = ["report", "--input", str(cohort_csv), "--alpha", "0.01", "--out", str(outdir)]
    assert cli_main(argv) == 0
    assert len(calls) == 1  # the Type III fit serves the coefficient table too

    tables = outdir / "tables"
    coefficients = json.loads((tables / "coefficients.json").read_text())
    anova = json.loads((tables / "anova.json").read_text())
    df = next(r["df"] for r in anova["rows"] if r["source"] == "Error")
    t_crit = float(stdtrit(df, 0.995))
    assert coefficients["alpha"] == 0.01
    rows = coefficients["rows"]
    for row in rows:
        b, se = row["estimate"], row["se"]
        assert row["ci_low"] == pytest.approx(b - t_crit * se, rel=1e-12, abs=0)
        assert row["ci_high"] == pytest.approx(b + t_crit * se, rel=1e-12, abs=0)
    listed = re.findall(r"\[(.*?)\]", coefficients["equation"])
    assert listed == [r["parameter"] for r in rows
                      if r["parameter"] != "Intercept" and r["p"] <= 0.01]
    assert any(0.01 < r["p"] <= 0.05 for r in rows)  # so the level shows in the listing


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


def _cohort_file(path, cell_values, extra=()):
    """A cohort CSV with one row per value of ``cell_values(cell_index)`` in
    every cell of the default layout, then the ``extra`` rows."""
    from losanova.synth import default_layout

    layout = default_layout()
    lines = ["gender,season,age_group,los"]
    for i, names in enumerate(map(layout.cell_names, layout.cells())):
        lines += [",".join([*names, repr(los)]) for los in cell_values(i)]
    path.write_text("\n".join([*lines, *extra]) + "\n")
    return path


def _huge_csv(tmp_path):
    # los 1e200 and 2e200 pass ingest, but their squares overflow on the raw
    # scale; any RuntimeWarning on the way is an error under the test settings
    return _cohort_file(tmp_path / "huge.csv", lambda i: (3.0, 5.0, 4.0),
                        ["male,spring,1,1e200", "male,spring,1,2e200"])


def test_anova_of_huge_finite_responses(tmp_path, capsys):
    argv = ["anova", "--input", str(_huge_csv(tmp_path)), "--transform"]

    assert cli_main([*argv, "none"]) == 1
    assert capsys.readouterr().err == (
        "error: sums of squares overflow on the los scale; "
        "rescale or log-transform the response\n")
    # the overflowed cell leaves the sd-mean regression; the other 39 share one mean
    assert cli_main([*argv, "auto"]) == 1
    assert "log cell means are constant" in capsys.readouterr().err
    assert cli_main([*argv, "log10"]) == 0
    assert capsys.readouterr().out == _HUGE_LOG10_TABLE


def test_forced_transform_report_drops_a_failed_recommendation(tmp_path, capsys):
    # the sd-mean regression cannot fit the huge-response file; only auto needs it
    path, out = _huge_csv(tmp_path), tmp_path / "report"
    argv = ["report", "--input", str(path), "--transform"]
    assert cli_main([*argv, "log10", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 29 artifacts to {out}\n"
    assert not list(out.glob("tables/transform.*"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["sd_mean_slope"] is None
    assert cli_main([*argv, "none"]) == 1
    assert "sums of squares overflow on the los scale" in capsys.readouterr().err
    assert cli_main([*argv, "auto"]) == 1
    assert "log cell means are constant" in capsys.readouterr().err


def test_forced_transform_diagnose_of_huge_finite_responses(tmp_path, capsys):
    argv = ["diagnose", "--input", str(_huge_csv(tmp_path)), "--transform", "log10"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "raw-scale model: funnel ratio undefined"
    assert out[2] == ("transform recommendation unavailable: "
                      "log cell means are constant; slope undefined")
    assert out[-1].startswith("transformed model (log10(los)): funnel ratio ")


def test_diagnose_without_transform_of_residual_free_cells(tmp_path, capsys):
    # every row equals its cell mean: the raw-scale residuals are all zero, and
    # the log10 ones rounding noise of about 1e-16. Neither has a funnel ratio
    # or a P-P plot, which diagnose prints only for a transformed model.
    path = _cohort_file(tmp_path / "flat.csv", lambda i: (i + 1.0,) * 3)
    head = [
        "raw-scale model: funnel ratio undefined",
        "raw residual histogram: 1 bins, N=120",
        ("transform recommendation unavailable: need at least 3 cells with "
         "n >= 2, positive mean and sd > 0; got 0"),
    ]
    tail = {"none": [], "log10": [
        "", "transformed model (log10(los)): funnel ratio undefined, P-P max deviation undefined",
    ]}
    for transform in ("none", "log10"):
        argv = ["--input", str(path), "--transform", transform]
        assert cli_main(["diagnose", *argv]) == 0
        assert capsys.readouterr().out.splitlines() == head + tail[transform]
        assert cli_main(["report", *argv]) == 1
        assert capsys.readouterr().err == (
            "error: residuals have zero variance; P-P plot undefined\n")


@pytest.mark.parametrize("low", [1e-300, 1e-310])
def test_responses_too_small_to_square(low, tmp_path, capsys):
    # 3 distinct responses per cell, uniform in [low, 2 low]: on the raw scale
    # their squared deviations underflow to 0, so F is undefined
    rng = np.random.default_rng(23)
    path = _cohort_file(tmp_path / "tiny.csv",
                        lambda i: rng.uniform(low, 2 * low, 3).tolist())
    commands = [["anova"], ["posthoc", "--factor", "age_group"],
                ["report", "--format", "json"]]
    for command in commands:
        argv = [*command, "--input", str(path), "--transform"]
        assert cli_main([*argv, "none"]) == 1
        assert capsys.readouterr().err == (
            "error: error sum of squares is 0 on the los scale, so F is undefined; "
            "the responses have no within-cell spread or are too small to square\n")
        assert cli_main([*argv, "auto"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need at least 3 cells") and err.count("\n") == 1
        assert "squared deviations underflow: use --transform log10" in err
        assert cli_main([*argv, "log10"]) == 0
        assert capsys.readouterr().err == ""


def test_diagnose_accepts_an_empty_cell(tmp_path, capsys):
    # residuals from cell means need no estimable design; report's Type III
    # table still refuses the empty cell
    path = _cohort_file(tmp_path / "gap.csv",
                        lambda i: () if i == 7 else (i + 1.0, 1.5 * (i + 1), 2.0 * (i + 1)))
    assert cli_main(["diagnose", "--input", str(path)]) == 0
    assert "N=117" in capsys.readouterr().out
    assert cli_main(["report", "--input", str(path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_occupied_margins_do_not_make_a_reduced_model_estimable(tmp_path, capsys):
    # one gender per season x age_group cell, male where the level indices
    # sum to an even number: every two-factor margin is occupied, yet the
    # 28-column order-2 design has only 20 distinct cell rows
    def cell_values(i):
        g, s, a = i // 20, i // 5 % 4, i % 5
        if (g == 0) != ((s + a) % 2 == 0):
            return ()
        return tuple(2.0 + s + 0.5 * a + 0.25 * k for k in range(4))

    path = _cohort_file(tmp_path / "parity.csv", cell_values)
    argv = ["anova", "--input", str(path), "--transform", "none"]
    assert cli_main([*argv, "--max-order", "1"]) == 0
    assert "response: los" in capsys.readouterr().out
    # df_check passes; the fit's rank check refuses
    assert cli_main([*argv, "--max-order", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: design matrix is rank deficient")
    # the full model's empty cells fail df_check first
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: every cell spanned by a model term must be occupied")


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


@pytest.mark.parametrize("flag, value", [("--levels", "4,,5"), ("--n", "10,,20")])
def test_power_rejects_an_empty_list_field(flag, value, capsys):
    # an empty field used to be skipped, so --levels 4,,5 planned two factors
    lists = {"--levels": "4,2,5", "--n": "10,20", flag: value}
    code = cli_main(["power", "--levels", lists["--levels"], "--min-diff", "1",
                     "--sigma2", "9.41", "--effect", "season", "--n", lists["--n"]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip() == f"error: cannot parse {flag} '{value}'"


def test_synth_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    code = cli_main(["synth", "--n", "100", "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip() == "error: seed must be >= 0, got -1"
    assert not out.exists()


def test_anova_max_order(cohort_csv, capsys):
    code = cli_main(["anova", "--input", str(cohort_csv), "--transform", "log10",
                     "--max-order", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gender * season" not in out
    assert "age_group" in out


@pytest.mark.parametrize("transform", ["auto", "log10"])
def test_failed_anova_writes_nothing_to_stdout(cohort_csv, transform, capsys):
    code = cli_main(["anova", "--input", str(cohort_csv), "--transform", transform,
                     "--max-order", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: max_order must be in [1, 3]\n"


def test_posthoc_two_level_factor(cohort_csv, capsys):
    code = cli_main(["posthoc", "--input", str(cohort_csv), "--factor", "gender"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(I) gender" in out


def test_numerical_failure_exits_2(cohort_csv, capsys, monkeypatch):
    from losanova import NumericalError
    import losanova.anova as anova_mod

    def boom(*args, **kwargs):
        raise NumericalError("series did not converge")

    # the command imports type3_anova from its module when it runs
    monkeypatch.setattr(anova_mod, "type3_anova", boom)
    code = cli_main(["anova", "--input", str(cohort_csv)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("power", "synth", "anova", "posthoc", "diagnose", "report"):
        assert command in out, command


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


def test_fresh_diagnose_leaves_scipy_unloaded(cohort_csv):
    assert _fresh(_FRESH_CLI, "diagnose", "--input", str(cohort_csv)) == "0 False"


# appended to a fresh interpreter's code: prints whether numpy was imported and
# the loaded losanova modules
_LOADED = """
print("numpy" in sys.modules, *sorted(m for m in sys.modules if m.startswith("losanova")))
"""


@pytest.mark.parametrize("module, loaded", [
    ("losanova", "losanova"),
    ("losanova.cli", "losanova losanova.cli losanova.errors"),
])
def test_import_loads_no_analysis_module(module, loaded):
    assert _fresh(f"import sys, {module}" + _LOADED) == f"False {loaded}"


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["--version"], 0),
    ([], 1),
    (["frobnicate"], 1),
    (["power", "--levels", "4,2,5", "--bogus"], 1),
    (["anova", "--input", "x.csv", "--alpha", "2"], 1),
])
def test_commands_that_only_parse_load_no_analysis_module(argv, code):
    assert _fresh(_FRESH_CLI + _LOADED, *argv).splitlines() == [
        f"{code} False", "False losanova losanova.cli losanova.errors"]


def _fresh_loaded(*argv: str) -> tuple[str, set[str]]:
    """A fresh ``cli_main`` run's exit status line and its loaded ``losanova`` modules."""
    status, loaded = _fresh(_FRESH_CLI + _LOADED, *argv).splitlines()
    return status, set(loaded.split()[1:])  # after the numpy flag


def test_fresh_synth_loads_no_analysis_module(tmp_path):
    status, loaded = _fresh_loaded("synth", "--n", "200", "--out", str(tmp_path / "c.csv"))
    assert status == "0 False"
    assert not {f"losanova.{m}" for m in (
        "anova", "linmod", "diagnostics", "posthoc", "power", "report", "plots",
    )} & loaded


def test_fresh_power_loads_no_analysis_module():
    status, loaded = _fresh_loaded("power", "--levels", "4,2,5", "--min-diff", "1",
                                   "--sigma2", "9.41", "--effect", "season", "--n", "10")
    assert status == "0 True"
    assert not {f"losanova.{m}" for m in ("anova", "diagnostics", "posthoc", "plots")} & loaded


def test_package_exports_are_their_submodules_objects():
    import importlib

    import losanova

    for module, names in losanova._EXPORTS.items():
        defining = importlib.import_module(f"losanova.{module}")
        for name in names:
            assert getattr(losanova, name) is getattr(defining, name), name
    assert sorted(losanova.__all__) == sorted(n for ns in losanova._EXPORTS.values() for n in ns)
    assert set(losanova.__all__) <= set(dir(losanova))
    star = {}
    exec("from losanova import *", star)
    assert set(star) - {"__builtins__"} == set(losanova.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        losanova.no_such_name  # noqa: B018


def test_fresh_report_loads_scipy_and_writes_the_same_artifacts(cohort_csv, tmp_path):
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert cli_main(["report", "--input", str(cohort_csv), "--out", str(here)]) == 0
    assert _fresh(_FRESH_CLI, "report", "--input", str(cohort_csv), "--out", str(fresh)) \
        == "0 True"
    files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    for rel in files:
        assert (here / rel).read_bytes() == (fresh / rel).read_bytes(), rel


# appended to _FRESH_CLI: whether a scipy.linalg module was imported
_LINALG = """
print(any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in sys.modules))
"""


@pytest.mark.parametrize("argv", [
    ["anova"], ["posthoc", "--factor", "season"], ["report", "--out", "{tmp}/report"],
])
def test_fresh_analysis_leaves_scipy_linalg_unloaded(cohort_csv, tmp_path, argv):
    # the fit and the Wald test need only numpy.linalg
    argv = [argv[0], "--input", str(cohort_csv), *(a.format(tmp=tmp_path) for a in argv[1:])]
    assert _fresh(_FRESH_CLI + _LINALG, *argv).splitlines() == ["0 True", "False"]
