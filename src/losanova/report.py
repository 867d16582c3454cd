"""Report rendering: publication-style text tables, CSV sections, and
full-precision JSON, plus the on-disk report directory layout.

Rendered values follow the conventions of the tables they mirror: sums of
squares, mean squares, F and p to three decimals with the leading zero
stripped below 1 (a p below 5e-4 therefore renders as ".000"), the
effect-size column phi to four decimals. Values are stored at full precision
and only rounded here, so JSON output round-trips exactly. Rendering is
deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .anova import AnovaTable
from .diagnostics import HistogramData, PPPlotData, ResidualSpread, TransformRecommendation
from .errors import ValidationError
from .linmod import CoefficientTable
from .model import FrequencyTable
from .posthoc import HomogeneousSubsets, ScheffeComparison
from .power import PowerResult


def _strip_leading_zero(s: str) -> str:
    if s.startswith("0."):
        return s[1:]
    if s.startswith("-0."):
        return "-" + s[2:]
    return s


def fmtn(x: float | None, decimals: int) -> str:
    """Fixed decimals with the leading zero stripped below one: 0.216 -> '.216'."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return _strip_leading_zero(f"{x:.{decimals}f}")


def fmt3(x: float | None) -> str:
    return fmtn(x, 3)


def fmt4(x: float) -> str:
    return f"{x:.4f}"


def _table_text(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([line(headers), sep, *(line(r) for r in rows)]) + "\n"


def _table_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    def esc(cell: str) -> str:
        if any(ch in cell for ch in ',"\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell
    lines = [",".join(esc(c) for c in headers)]
    lines.extend(",".join(esc(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-table row builders (shared by text and csv)

def anova_rows(t: AnovaTable) -> tuple[list[str], list[list[str]]]:
    headers = ["Source", "Type III Sum of Squares", "df", "Mean Square", "F", "Sig."]
    rows = []
    for r in t.rows:
        rows.append([
            r.source,
            fmt3(r.ss),
            str(r.df),
            fmt3(r.ms) if r.ms is not None else "",
            fmt3(r.f) if r.f is not None else "",
            fmt3(r.p) if r.p is not None else "",
        ])
    return headers, rows


def coefficient_rows(t: CoefficientTable) -> tuple[list[str], list[list[str]]]:
    level = f"{(1 - t.alpha) * 100:g}%"
    headers = ["Parameter", "B", "Std. Error", "t", "Sig.",
               f"{level} CI Lower", f"{level} CI Upper"]
    rows = []
    for r in t.rows:
        rows.append([
            r.label, fmt3(r.estimate), fmt3(r.se), fmt3(r.t), fmt3(r.p),
            fmt3(r.ci_low), fmt3(r.ci_high),
        ])
    return headers, rows


def scheffe_rows(comparisons: Sequence[ScheffeComparison]) -> tuple[list[str], list[list[str]]]:
    factor = comparisons[0].factor if comparisons else "level"
    headers = [f"(I) {factor}", f"(J) {factor}", "Mean Difference (I-J)",
               "Std. Error", "Sig.", "Lower Bound", "Upper Bound"]
    rows = []
    last_i = None
    for c in comparisons:
        show_i = c.level_i if c.level_i != last_i else ""
        last_i = c.level_i
        rows.append([
            show_i, c.level_j, fmtn(c.diff, 4), fmtn(c.se, 5), fmt3(c.p),
            fmtn(c.ci_low, 4), fmtn(c.ci_high, 4),
        ])
    return headers, rows


def subset_rows(h: HomogeneousSubsets, counts: dict[str, int]) -> tuple[list[str], list[list[str]]]:
    k = len(h.subsets)
    headers = [h.factor, "N", *[str(i + 1) for i in range(k)]]
    level_order = []
    for s in h.subsets:
        for lv in s.levels:
            if lv not in level_order:
                level_order.append(lv)
    rows = []
    for lv in level_order:
        cells = [lv, str(counts.get(lv, ""))]
        for s in h.subsets:
            if lv in s.levels:
                cells.append(fmt3(s.means[s.levels.index(lv)]))
            else:
                cells.append("")
        rows.append(cells)
    sig = ["sig.", ""]
    sig.extend(fmt3(s.significance) for s in h.subsets)
    rows.append(sig)
    return headers, rows


def power_rows(results: Sequence[PowerResult]) -> tuple[list[str], list[list[str]]]:
    headers = ["n", "phi", "NFD", "DFD", "beta", "power"]
    rows = []
    for r in results:
        rows.append([
            str(r.n), fmt4(r.phi), str(r.nu1), str(r.nu2),
            fmt4(r.beta), fmt4(r.power),
        ])
    return headers, rows


def frequency_rows(ft: FrequencyTable) -> tuple[list[str], list[list[str]]]:
    """Nested two-way rows against the last factor's levels, with totals."""
    layout = ft.layout
    if layout.n_factors != 3:
        headers = [*layout.names, "count"]
        rows = [
            [*layout.cell_names(cell), str(int(ft.counts[cell]))]
            for cell in layout.cells()
        ]
        rows.append(["total", *[""] * (layout.n_factors - 1), str(ft.total)])
        return headers, rows

    f0, f1, f2 = layout.names
    lv0, lv1, lv2 = (layout.levels(i) for i in range(3))
    headers = [f0, f1, *[f"{f2}={lv}" for lv in lv2], "total"]
    m_012 = ft.marginal(0, 1, 2)
    m_01 = ft.marginal(0, 1)
    m_02 = ft.marginal(0, 2)
    m_12 = ft.marginal(1, 2)
    m_0 = ft.marginal(0)
    m_1 = ft.marginal(1)
    m_2 = ft.marginal(2)
    rows = []
    for a in lv0:
        for b in lv1:
            rows.append([a, b, *[str(m_012[(a, b, c)]) for c in lv2], str(m_01[(a, b)])])
        rows.append([a, "total", *[str(m_02[(a, c)]) for c in lv2], str(m_0[(a,)])])
    for b in lv1:
        rows.append(["total", b, *[str(m_12[(b, c)]) for c in lv2], str(m_1[(b,)])])
    rows.append(["total", "total", *[str(m_2[(c,)]) for c in lv2], str(ft.total)])
    return headers, rows


def transform_rows(rec: TransformRecommendation) -> tuple[list[str], list[list[str]]]:
    headers = ["quantity", "value"]
    rows = [
        ["slope (with intercept)", f"{rec.slope:.4f}"],
        ["intercept", f"{rec.intercept:.4f}"],
        ["r_squared", f"{rec.r_squared:.4f}"],
        ["slope (through origin)", f"{rec.slope_through_origin:.4f}"],
        ["snapped exponent", f"{rec.snapped_exponent:g}"],
        ["transform", rec.transform],
        ["low confidence", str(rec.low_confidence).lower()],
        ["cells used", str(rec.cells_used)],
        ["cells excluded", str(rec.cells_excluded)],
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# full-precision JSON conversion

def _anova_json(t: AnovaTable) -> dict:
    return {
        "response": t.response_name,
        "rows": [
            {"source": r.source, "ss": r.ss, "df": r.df, "ms": r.ms, "f": r.f, "p": r.p}
            for r in t.rows
        ],
    }


def _coefficients_json(t: CoefficientTable, equation: str | None = None) -> dict:
    out = {
        "alpha": t.alpha,
        "rows": [
            {"parameter": r.label, "estimate": r.estimate, "se": _nan_none(r.se),
             "t": _nan_none(r.t), "p": _nan_none(r.p),
             "ci_low": _nan_none(r.ci_low), "ci_high": _nan_none(r.ci_high)}
            for r in t.rows
        ],
    }
    if equation is not None:
        out["equation"] = equation
    return out


def _nan_none(x: float) -> float | None:
    return None if (isinstance(x, float) and math.isnan(x)) else x


def _scheffe_json(comparisons: Sequence[ScheffeComparison]) -> list[dict]:
    return [
        {"factor": c.factor, "i": c.level_i, "j": c.level_j, "diff": c.diff,
         "se": c.se, "p": c.p, "ci_low": c.ci_low, "ci_high": c.ci_high}
        for c in comparisons
    ]


def _subsets_json(h: HomogeneousSubsets) -> dict:
    return {
        "factor": h.factor,
        "alpha": h.alpha,
        "significance_rule": h.significance_rule,
        "subsets": [
            {"levels": list(s.levels), "means": list(s.means), "significance": s.significance}
            for s in h.subsets
        ],
    }


def _frequency_json(ft: FrequencyTable) -> dict:
    return {
        "factors": [
            {"name": name, "levels": list(levels)} for name, levels in ft.layout.factors
        ],
        "cells": [
            {"cell": list(ft.layout.cell_names(cell)), "count": int(ft.counts[cell])}
            for cell in ft.layout.cells()
        ],
        "total": ft.total,
    }


def _series_json(obj) -> dict:
    if isinstance(obj, HistogramData):
        return {"kind": "histogram", "edges": list(obj.edges), "counts": list(obj.counts)}
    if isinstance(obj, ResidualSpread):
        return {
            "kind": "residual_vs_fitted",
            "fitted": obj.fitted.tolist(),
            "residuals": obj.residuals.tolist(),
            "funnel_ratio": obj.funnel_ratio,
        }
    if isinstance(obj, PPPlotData):
        return {
            "kind": "pp",
            "empirical": obj.empirical.tolist(),
            "theoretical": obj.theoretical.tolist(),
            "max_abs_deviation": obj.max_abs_deviation,
        }
    raise ValidationError(f"unknown diagnostic series {type(obj).__name__}")


def _transform_json(rec: TransformRecommendation) -> dict:
    return {
        "slope": rec.slope,
        "intercept": rec.intercept,
        "r_squared": rec.r_squared,
        "slope_through_origin": rec.slope_through_origin,
        "snapped_exponent": rec.snapped_exponent,
        "transform": rec.transform,
        "low_confidence": rec.low_confidence,
        "cells_used": rec.cells_used,
        "cells_excluded": rec.cells_excluded,
    }


# ---------------------------------------------------------------------------
# the bundle

@dataclass
class ReportBundle:
    """Everything one analysis run produces, at full precision."""

    parameters: dict
    frequency: FrequencyTable
    anova: AnovaTable
    coefficients: CoefficientTable
    equation: str
    scheffe: dict[str, list[ScheffeComparison]] = field(default_factory=dict)
    subsets: dict[str, HomogeneousSubsets] = field(default_factory=dict)
    diagnostics: dict[str, object] = field(default_factory=dict)
    transform_rec: TransformRecommendation | None = None


def bundle_to_dict(bundle: ReportBundle) -> dict:
    out = {
        "parameters": bundle.parameters,
        "frequency": _frequency_json(bundle.frequency),
        "anova": _anova_json(bundle.anova),
        "coefficients": _coefficients_json(bundle.coefficients, bundle.equation),
        "scheffe": {f: _scheffe_json(c) for f, c in bundle.scheffe.items()},
        "subsets": {f: _subsets_json(h) for f, h in bundle.subsets.items()},
        "diagnostics": {name: _series_json(s) for name, s in bundle.diagnostics.items()},
    }
    if bundle.transform_rec is not None:
        out["transform_recommendation"] = _transform_json(bundle.transform_rec)
    return out


def _bundle_sections(bundle: ReportBundle) -> list[tuple[str, list[str], list[list[str]], object]]:
    """Each table of the bundle: name, headers, rendered rows, full-precision JSON."""
    sections = [
        ("frequency", *frequency_rows(bundle.frequency), _frequency_json(bundle.frequency)),
        ("anova", *anova_rows(bundle.anova), _anova_json(bundle.anova)),
        ("coefficients", *coefficient_rows(bundle.coefficients),
         _coefficients_json(bundle.coefficients, bundle.equation)),
    ]
    for factor, comparisons in bundle.scheffe.items():
        sections.append(
            (f"scheffe_{factor}", *scheffe_rows(comparisons), _scheffe_json(comparisons))
        )
    for factor, subsets in bundle.subsets.items():
        counts = {level: n for (level,), n in bundle.frequency.marginal(factor).items()}
        sections.append(
            (f"subsets_{factor}", *subset_rows(subsets, counts), _subsets_json(subsets))
        )
    if bundle.transform_rec is not None:
        rec = bundle.transform_rec
        sections.append(("transform", *transform_rows(rec), _transform_json(rec)))
    return sections


def render_report(bundle: ReportBundle, format: str = "text") -> bytes:
    """Render the whole bundle as text, csv, or full-precision json."""
    if format == "json":
        return (json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n").encode()
    if format not in ("text", "csv"):
        raise ValidationError(f"unknown report format {format!r} (text/csv/json)")
    parts = []
    for name, headers, rows, _ in _bundle_sections(bundle):
        if format == "text":
            parts.append(f"== {name} ==\n{_table_text(headers, rows)}")
        else:
            parts.append(f"[{name}]\n{_table_csv(headers, rows)}")
    if format == "text" and bundle.equation:
        parts.append(f"== fitted model ==\n{bundle.equation}\n")
    return "\n".join(parts).encode()


def write_report_dir(bundle: ReportBundle, outdir: str | Path) -> list[str]:
    """Write tables/, plots/ and manifest.json under ``outdir``.

    Returns the relative paths of all artifacts written.
    """
    from . import plots  # local import: plots has no other reason to load here

    outdir = Path(outdir)
    tables = outdir / "tables"
    plots_dir = outdir / "plots"
    tables.mkdir(parents=True, exist_ok=True)
    plots_dir.mkdir(parents=True, exist_ok=True)

    artifacts: list[str] = []
    for name, headers, rows, json_obj in _bundle_sections(bundle):
        (tables / f"{name}.txt").write_text(_table_text(headers, rows), encoding="utf-8")
        (tables / f"{name}.csv").write_text(_table_csv(headers, rows), encoding="utf-8")
        (tables / f"{name}.json").write_text(
            json.dumps(json_obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        artifacts.extend([f"tables/{name}.txt", f"tables/{name}.csv", f"tables/{name}.json"])

    response = bundle.anova.response_name
    for name, series in bundle.diagnostics.items():
        path = plots_dir / f"{name}.svg"
        if isinstance(series, HistogramData):
            plots.render_plot(series, "histogram", path,
                              xlabel=f"residual ({response})", ylabel="count")
        elif isinstance(series, ResidualSpread):
            plots.render_plot(series, "scatter", path,
                              xlabel=f"fitted {response}", ylabel="residual")
        elif isinstance(series, PPPlotData):
            plots.render_plot(series, "pp", path,
                              xlabel="observed cumulative probability",
                              ylabel="expected normal probability")
        else:
            continue
        artifacts.append(f"plots/{name}.svg")
    for factor, subsets in bundle.subsets.items():
        path = plots_dir / f"subset_means_{factor}.svg"
        plots.render_plot(subsets, "subset-means", path,
                          xlabel=factor, ylabel=f"mean {response}")
        artifacts.append(f"plots/subset_means_{factor}.svg")

    manifest = {"parameters": bundle.parameters, "artifacts": sorted(artifacts)}
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    artifacts.append("manifest.json")
    return sorted(artifacts)
