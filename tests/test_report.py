"""Rendering: value formatting, table shapes, JSON round trips, SVG plots."""

import argparse
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from losanova import (
    FactorLayout, ValidationError, generate, render_report, write_csv, write_report_dir,
)
from losanova.cli import _build_bundle
from losanova.diagnostics import (
    HistogramData, PPPlotData, ResidualSpread, apply_transform, pp_plot, residuals,
)
from losanova.ingest import ingest_csv
from losanova.plots import render_plot
from losanova.posthoc import HomogeneousSubsets, Subset
from losanova.power import PowerResult
from losanova.report import (
    bundle_to_dict, fmt3, fmt4, fmtn, frequency_rows, power_rows, _table_csv, _table_text,
)
from losanova.synth import reference_cohort_spec

from conftest import count_table


def _args(path, transform="auto", alpha=0.05):
    return argparse.Namespace(
        input=str(path), transform=transform, alpha=alpha, season_from_date=False
    )


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    write_csv(generate(reference_cohort_spec(n=8000, seed=0)), path)
    return path


@pytest.fixture(scope="module")
def bundle(cohort_csv):
    return _build_bundle(_args(cohort_csv))


# --- number formatting -----------------------------------------------------------

def test_fmt3_spss_style():
    assert fmt3(3e-7) == ".000"
    assert fmt3(4.9e-4) == ".000"  # floors below 5e-4
    assert fmt3(0.216) == ".216"
    assert fmt3(-0.037) == "-.037"
    assert fmt3(513.847) == "513.847"
    assert fmt3(0.057) == ".057"
    assert fmt3(None) == ""
    assert fmt3(float("nan")) == ""


def test_fmt4_phi_precision():
    assert fmt4(1.15234999) == "1.1523"
    assert fmt4(2.3896) == "2.3896"
    assert fmtn(-0.01994, 4) == "-.0199"
    assert fmtn(0.007819, 5) == ".00782"


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 2), (2, 2, 3, 2)])
def test_frequency_rows_recount_the_cells_of_any_layout(shape):
    # a row per level or "total" of each factor but the last, in layout order,
    # against the last factor's levels and "total"; some cells are empty
    layout = FactorLayout([(f"f{i}", tuple(f"f{i}l{j}" for j in range(k)))
                           for i, k in enumerate(shape)])
    sizes = np.random.default_rng(len(shape)).integers(0, 4, layout.n_cells)
    sizes[0] = 0
    counts = {layout.cell_names(cell): int(n) for cell, n in zip(layout.cells(), sizes)}
    headers, rows = frequency_rows(count_table(layout, counts))

    *outer, (last, last_levels) = layout.factors
    assert headers == [*layout.names[:-1], *(f"{last}={lv}" for lv in last_levels), "total"]

    def recount(key):
        return sum(n for names, n in counts.items()
                   if all(k in ("total", lv) for k, lv in zip(key, names)))

    keys = itertools.product(*([*levels, "total"] for _, levels in outer))
    assert rows == [[*key, *(str(recount((*key, lv))) for lv in (*last_levels, "total"))]
                    for key in keys]


def test_power_rows_table_shape():
    rows = [PowerResult(10, 1.328, 1.1523, 3, 360, 5.312, 0.7630, 0.2370)]
    headers, body = power_rows(rows)
    assert headers == ["n", "phi", "NFD", "DFD", "beta", "power"]
    assert body[0][:4] == ["10", "1.1523", "3", "360"]
    text = _table_text(headers, body)
    assert "1.1523" in text and "360" in text


def test_table_csv_escaping():
    out = _table_csv(["a", "b"], [['x,y', 'he said "hi"']])
    assert out.splitlines()[1] == '"x,y","he said ""hi"""'


# --- whole-bundle rendering ---------------------------------------------------------

def test_text_report_sections(bundle):
    text = render_report(bundle, "text")
    for section in ("frequency", "anova", "coefficients", "scheffe_season",
                    "subsets_age_group", "transform", "fitted model"):
        assert f"== {section} ==" in text
    assert "Corrected Model" in text
    assert "Type III Sum of Squares" in text


def test_csv_report_sections(bundle):
    text = render_report(bundle, "csv")
    assert "[anova]" in text and "[frequency]" in text
    assert "Source,Type III Sum of Squares,df,Mean Square,F,Sig." in text


def test_json_report_full_precision(bundle):
    parsed = json.loads(render_report(bundle, "json"))
    anova_error = next(r for r in parsed["anova"]["rows"] if r["source"] == "Error")
    assert anova_error["ss"] == bundle.anova.row("Error").ss  # exact float
    assert parsed["parameters"]["transform_applied"] == "logarithmic"
    assert set(parsed["scheffe"]) == {"season", "age_group"}
    assert parsed["diagnostics"]["pp_plot"]["kind"] == "pp"


def test_json_diagnostics_hold_kind_and_every_field(bundle):
    parsed = json.loads(render_report(bundle, "json"))["diagnostics"]
    assert len(parsed) == 5 and parsed.keys() == bundle.diagnostics.keys()
    for name, series in bundle.diagnostics.items():
        names = [f.name for f in dataclasses.fields(series)]
        assert parsed[name].keys() == {"kind", *names}
        assert parsed[name]["kind"] == series.kind
        for field_name in names:
            got, want = parsed[name][field_name], getattr(series, field_name)
            if want is None:
                assert got is None
                continue
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_json_report_is_the_dumped_document(bundle):
    # the spliced series text against json's own encoder, with a hand-built
    # series of non-finite values, runs of equal values, signed zeros next to
    # each other and an empty array
    odd = ResidualSpread(fitted=[np.nan, np.nan, np.inf, -np.inf, -np.inf, -0.0, 0.0, 0.0,
                                 -0.0, 5e-324, 1e300, 1e300, 0.1],
                         residuals=[], funnel_ratio=None)
    pp = PPPlotData(empirical=[0.5], theoretical=[np.nan], max_abs_deviation=np.inf)
    for b in (bundle, dataclasses.replace(
            bundle, diagnostics={**bundle.diagnostics, "odd": odd, "pp_one": pp})):
        want = json.dumps(bundle_to_dict(b), indent=2, sort_keys=True) + "\n"
        assert render_report(b, "json") == want


def test_report_outputs_list_the_same_tables(bundle, tmp_path):
    write_report_dir(bundle, tmp_path)
    stems = {path.stem for path in (tmp_path / "tables").iterdir()}
    document = json.loads(render_report(bundle, "json"))
    keys = set()
    for key, value in document.items():
        if key in ("scheffe", "subsets"):
            keys.update(f"{key}_{factor}" for factor in value)
        elif key not in ("parameters", "diagnostics"):
            keys.add({"transform_recommendation": "transform"}.get(key, key))
    text = render_report(bundle, "text")
    csv = render_report(bundle, "csv")
    assert stems == keys
    assert set(re.findall(r"^== (.+) ==$", text, re.M)) == keys | {"fitted model"}
    assert set(re.findall(r"^\[(.+)\]$", csv, re.M)) == keys


def _axis_labels(path) -> list[str]:
    """The x and then the y axis label of an SVG plot."""
    return re.findall(r'<text [^>]*font-size="12"[^>]*>([^<]*)</text>', path.read_text())


def test_report_plots_label_the_scale_of_their_series(bundle, tmp_path):
    assert bundle.parameters["transform_applied"] == "logarithmic"
    write_report_dir(bundle, tmp_path)
    x_labels = {path.stem: _axis_labels(path)[0] for path in (tmp_path / "plots").iterdir()}
    assert x_labels == {
        "raw_residual_histogram": "residual (los)",
        "raw_residual_vs_fitted": "fitted los",
        "residual_histogram": "residual (log10(los))",
        "residual_vs_fitted": "fitted log10(los)",
        "pp_plot": "observed cumulative probability",
        "subset_means_age_group": "age_group",
        "subset_means_season": "season",
    }


def test_report_pp_plot_is_of_the_analysis_scale(bundle, cohort_csv):
    logged = apply_transform(ingest_csv(cohort_csv), "logarithmic")
    pp = bundle.diagnostics["pp_plot"]
    again = pp_plot(residuals(logged))
    assert pp.max_abs_deviation == again.max_abs_deviation
    assert np.array_equal(pp.theoretical, again.theoretical)


def test_rendered_tables_are_deterministic(bundle, cohort_csv):
    again = _build_bundle(_args(cohort_csv))
    for fmt in ("text", "csv", "json"):
        assert render_report(bundle, fmt) == render_report(again, fmt)


def test_unknown_format_rejected(bundle):
    with pytest.raises(ValidationError):
        render_report(bundle, "yaml")


def test_frequency_table_text_totals(bundle):
    text = render_report(bundle, "text")
    section = text.split("== frequency ==")[1].split("==")[0]
    assert "total" in section
    # grand total row should carry the dataset size
    assert re.search(rf"total\s+total.*{bundle.anova.row('Total').df}", section)


# --- SVG plots ------------------------------------------------------------------------

def test_histogram_svg_bars(tmp_path):
    h = HistogramData(edges=(-1.0, 0.0, 1.0), counts=(1, 2))
    path = tmp_path / "hist.svg"
    render_plot(h, path, "days")
    svg = path.read_text()
    bars = re.findall(r'class="bar" data-count="(\d+)"', svg)
    assert bars == ["1", "2"]
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "residual (days)" in svg


def test_histogram_bar_heights_proportional(tmp_path):
    h = HistogramData(edges=(0.0, 1.0, 2.0, 3.0), counts=(1, 3, 2))
    path = tmp_path / "hist3.svg"
    render_plot(h, path)
    heights = [
        float(m) for m in re.findall(r'height="([0-9.]+)"[^/]*class="bar"', path.read_text())
    ]
    assert len(heights) == 3
    # pixel coordinates are emitted at two decimals
    assert heights[1] == pytest.approx(3 * heights[0], rel=1e-3)
    assert heights[2] == pytest.approx(2 * heights[0], rel=1e-3)


def test_empty_series_writes_nothing(tmp_path):
    path = tmp_path / "never.svg"
    with pytest.raises(ValidationError):
        render_plot(HistogramData(edges=(0.0,), counts=()), path)
    assert not path.exists()


def test_pp_plot_has_identity_line(tmp_path):
    pp = PPPlotData(empirical=(0.25, 0.75), theoretical=(0.2, 0.8),
                    max_abs_deviation=0.05)
    path = tmp_path / "pp.svg"
    render_plot(pp, path)
    assert 'class="identity"' in path.read_text()


def test_scatter_and_subset_plots(tmp_path):
    spread = ResidualSpread(fitted=(1.0, 2.0, 3.0), residuals=(0.1, -0.2, 0.05),
                            funnel_ratio=1.1)
    render_plot(spread, tmp_path / "s.svg")
    assert (tmp_path / "s.svg").exists()

    subsets = HomogeneousSubsets(
        factor="season", alpha=0.05,
        subsets=(Subset(("spring",), (0.59,), 1.0), Subset(("winter", "autumn"), (0.63, 0.64), 0.3)),
    )
    render_plot(subsets, tmp_path / "m.svg")
    svg = (tmp_path / "m.svg").read_text()
    assert svg.count('class="mean"') == 3
    assert 'data-subset="2"' in svg


@pytest.mark.parametrize("series, labels", [
    (HistogramData(edges=(0.0, 1.0), counts=(3,)), ["residual (los)", "count"]),
    (ResidualSpread(fitted=(1.0, 2.0), residuals=(0.5, -0.5), funnel_ratio=None),
     ["fitted los", "residual"]),
    (PPPlotData(empirical=(0.25, 0.75), theoretical=(0.2, 0.8), max_abs_deviation=0.05),
     ["observed cumulative probability", "expected normal probability"]),
    (HomogeneousSubsets(factor="season", alpha=0.05,
                        subsets=(Subset(("spring", "winter"), (0.59, 0.63), 0.3),)),
     ["season", "mean los"]),
])
def test_plots_name_their_own_axes(series, labels, tmp_path):
    render_plot(series, tmp_path / "p.svg", response="los")
    assert _axis_labels(tmp_path / "p.svg") == labels


def test_svg_deterministic(tmp_path):
    h = HistogramData(edges=(0.0, 0.5, 1.0), counts=(4, 6))
    render_plot(h, tmp_path / "a.svg")
    render_plot(h, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_unsupported_plot_type(tmp_path):
    path = tmp_path / "x.svg"
    with pytest.raises(ValidationError, match="cannot plot a tuple"):
        render_plot(((0.0, 1.0), (1.0, 2.0)), path)
    assert not path.exists()


def _per_point_circles(canvas, x, y) -> list[tuple[str, str]]:
    """The point coordinates as the renderer once wrote them: thinned by a Python
    index list, then one ``canvas.px``/``canvas.py`` call and f-string per point."""
    from losanova.plots import _MAX_POINTS

    n = len(x)
    if n > _MAX_POINTS:
        idx = [round(i * (n - 1) / (_MAX_POINTS - 1)) for i in range(_MAX_POINTS)]
        x, y = x[idx], y[idx]
    return [(f"{canvas.px(xi):.2f}", f"{canvas.py(yi):.2f}")
            for xi, yi in zip(x.tolist(), y.tolist())]


def _svg_circles(path) -> list[tuple[str, str]]:
    return re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"[^>]*class="pt"', path.read_text())


@pytest.mark.parametrize("v", [
    -0.0, 0.0, -0.004, -0.005, 0.005, 0.015, 0.025, 0.125, 0.375, 1.005, 2.675, 70.005,
    424.995, 1e16, -1e-300, float("inf"), float("nan"),
])
def test_point_template_formats_as_num(v):
    from losanova.plots import _num

    assert "%.2f" % v == _num(v)


def _numpy_text(template, values):
    """The points' text from the numpy formatter, or None where it declines."""
    from losanova.plots import _hundredths_text

    return _hundredths_text(template, np.asarray(values, dtype=float))


def test_numpy_formatter_matches_percent_format_on_seeded_values():
    rng = np.random.default_rng(36)
    values = np.concatenate([
        rng.uniform(0.0, 1000.0, 20000), rng.uniform(0.0, 1.0, 2000),
        10.0 ** rng.uniform(-12.0, 3.0, 2000), np.arange(1, 100000) / 100.0,
        [5e-324, 0.004, 0.0049, 0.0051, 0.006, 40.0, 70.0, 424.99499, 424.99501,
         425.0, 620.0, 999.99, 999.9949],
    ])
    assert _numpy_text("%.2f", values) == "\n  ".join("%.2f" % v for v in values)
    template = '<circle cx="%.2f" cy="%.2f" class="pt"/>'
    expected = "\n  ".join([template] * (len(values) // 2)) % tuple(values)
    assert _numpy_text(template, values) == expected


_TIES = [0.125, 2.675, 70.005, 424.995, 999.995]


def _few_ulps(v, steps=3):
    out = []
    for direction in (-np.inf, np.inf):
        w = v
        for _ in range(steps):
            w = float(np.nextafter(w, direction))
            out.append(w)
    return out


@pytest.mark.parametrize("v", [
    *_TIES, *(w for tie in _TIES for w in _few_ulps(tie)), 999.9951, 1000.0, 1e16,
    0.0, -0.0, -0.004, -1.0, float("nan"), float("inf"), float("-inf"),
])
def test_numpy_formatter_declines_ties_and_values_out_of_range(v):
    # within 2^-30 of a half hundredth, at or past 99,999.5 hundredths, not
    # positive or not finite: the cloud takes the % line, which is exact
    assert _numpy_text("%.2f", [v]) is None
    assert _numpy_text("%.2f", [1.0, v, 2.0]) is None


def _spy_on_numpy_formatter(monkeypatch) -> list[bool]:
    """Record, per point cloud, whether the numpy formatter wrote it."""
    from losanova import plots

    took, formatter = [], plots._hundredths_text

    def spy(template, values):
        text = formatter(template, values)
        took.append(text is not None)
        return text

    monkeypatch.setattr(plots, "_hundredths_text", spy)
    return took


def test_report_point_clouds_take_the_numpy_formatter(bundle, tmp_path, monkeypatch):
    # a guard too wide would send every cloud to the % line without a byte changing
    took = _spy_on_numpy_formatter(monkeypatch)
    write_report_dir(bundle, tmp_path)
    assert took == [True, True, True]


def test_a_cloud_near_a_tie_takes_the_percent_line(tmp_path, monkeypatch):
    from losanova.plots import _Canvas

    took = _spy_on_numpy_formatter(monkeypatch)
    # px(e) = 70 + 550 e lands on 70.125, a tie in the third decimal
    empirical = np.array([0.0, 0.125 / 550, 0.5, 1.0])
    theoretical = np.array([0.0, 0.25, 0.5, 1.0])
    pp = PPPlotData(empirical=empirical, theoretical=theoretical, max_abs_deviation=0.0)
    render_plot(pp, tmp_path / "p.svg")
    assert took == [False]
    circles = _svg_circles(tmp_path / "p.svg")
    assert circles == _per_point_circles(_Canvas((0.0, 1.0), (0.0, 1.0), "", ""),
                                         empirical, theoretical)


def _near_rounding_points(rng, n, lo, hi, origin, pixels_per_unit, pixels):
    """Data in [lo, hi], lo at pixel ``origin``, whose pixels land a few ulps
    from ``pixels``; the first two points are lo and hi."""
    v = lo + (pixels - origin) / pixels_per_unit * (hi - lo)
    for _ in range(3):
        v = np.nextafter(v, rng.choice([-np.inf, np.inf], n))
    v = np.clip(v, lo, hi)
    v[:2] = lo, hi
    return v


@pytest.mark.parametrize("n", [3, 4999, 5000, 5001, 8000, 82718])
def test_point_clouds_match_the_per_point_formula(n, tmp_path):
    from losanova.plots import _Canvas

    # pixels within a few ulps of where two-decimal rounding turns, so that a
    # change in the pixel arithmetic or its order shows in the text
    rng = np.random.default_rng(n)
    frac = np.array([0.005, 0.015, 0.125, 0.375, 0.995])[np.arange(n) % 5]
    x_pixels = 70.0 + np.arange(n) % 549 + frac  # px(x) = 70 + 550 (x - lo) / (hi - lo)
    y_pixels = 425.0 - np.arange(n) % 384 - frac  # py(y) = 425 - 385 (y - lo) / (hi - lo)
    fitted = _near_rounding_points(rng, n, 0.3, 1.7, 70.0, 550.0, x_pixels)
    res = _near_rounding_points(rng, n, -1.3, 0.9, 425.0, -385.0, y_pixels)
    res[2::7] = -0.0
    spread = ResidualSpread(fitted=fitted, residuals=res, funnel_ratio=None)
    render_plot(spread, tmp_path / "s.svg")
    assert _svg_circles(tmp_path / "s.svg") == _per_point_circles(
        _Canvas((0.3, 1.7), (-1.3, 0.9), "", ""), fitted, res)

    empirical = _near_rounding_points(rng, n, 0.0, 1.0, 70.0, 550.0, x_pixels)
    theoretical = _near_rounding_points(rng, n, 0.0, 1.0, 425.0, -385.0, y_pixels)
    theoretical[3::7] = -0.0
    pp = PPPlotData(empirical=empirical, theoretical=theoretical, max_abs_deviation=0.0)
    render_plot(pp, tmp_path / "p.svg")
    assert _svg_circles(tmp_path / "p.svg") == _per_point_circles(
        _Canvas((0.0, 1.0), (0.0, 1.0), "", ""), empirical, theoretical)


def _per_point_add_points(canvas, x, y, template):
    """The points as the renderer once added them: one element per point, of
    ``_per_point_circles``' coordinates."""
    canvas.elements.extend(template.replace("%.2f", "%s") % p
                           for p in _per_point_circles(canvas, x, y))


@pytest.mark.parametrize("n", [1, 4999, 5000, 5001])
def test_point_cloud_svgs_equal_per_point_elements(n, tmp_path, monkeypatch):
    from losanova import plots

    rng = np.random.default_rng(n)
    series = [
        ResidualSpread(fitted=np.sort(rng.uniform(0.5, 2.5, n)), residuals=rng.normal(size=n),
                       funnel_ratio=None),
        PPPlotData(empirical=(np.arange(n) + 0.5) / n, theoretical=rng.uniform(size=n),
                   max_abs_deviation=0.0),
    ]
    for i, s in enumerate(series):
        render_plot(s, tmp_path / f"{i}.svg")
    monkeypatch.setattr(plots, "_add_points", _per_point_add_points)
    for i, s in enumerate(series):
        render_plot(s, tmp_path / f"{i}_per_point.svg")
        got = (tmp_path / f"{i}.svg").read_bytes()
        assert got == (tmp_path / f"{i}_per_point.svg").read_bytes()
        assert got.count(b'class="pt"') == min(n, 5000)
