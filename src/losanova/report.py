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

import csv
import functools
import io
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:  # annotations only: rendering a table loads no analysis module
    from .anova import AnovaTable
    from .diagnostics import TransformRecommendation
    from .linmod import CoefficientTable
    from .model import CellTable
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
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
    return buf.getvalue()


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
            fmt3(r.ms),
            fmt3(r.f),
            fmt3(r.p),
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
    factor = comparisons[0].factor
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


def subset_rows(h: HomogeneousSubsets, margin: CellTable) -> tuple[list[str], list[list[str]]]:
    """The subsets table; its N column reads the one-factor cell table ``margin``."""
    counts = dict(zip(margin.layout.levels(0), margin.counts.tolist()))
    headers = [h.factor, "N", *(str(i + 1) for i in range(len(h.subsets)))]
    rows = [[lv, str(counts[lv]), *(fmt3(m) if lv in s.levels else "" for s in h.subsets)]
            for lv, m in h.level_means.items()]
    return headers, [*rows, ["sig.", "", *(fmt3(s.significance) for s in h.subsets)]]


def power_rows(results: Sequence[PowerResult]) -> tuple[list[str], list[list[str]]]:
    headers = ["n", "phi", "NFD", "DFD", "beta", "power"]
    rows = []
    for r in results:
        rows.append([
            str(r.n), fmt4(r.phi), str(r.nu1), str(r.nu2),
            fmt4(r.beta), fmt4(r.power),
        ])
    return headers, rows


def frequency_rows(cells: CellTable) -> tuple[list[str], list[list[str]]]:
    """Counts against the last factor's levels, with a total column: one row per
    level or "total" of each other factor, in layout order with "total" last."""
    layout = cells.layout
    *outer, last = range(layout.n_factors)

    @functools.cache
    def counts(kept: tuple[int, ...]) -> np.ndarray:
        margin = cells.margin(*kept, last)
        return margin.counts.reshape(margin.layout.shape)

    headers = [*layout.names[:-1], *(f"{layout.names[-1]}={lv}" for lv in layout.levels(last)),
               "total"]
    rows = []
    for key in itertools.product(*([*range(layout.n_levels(f)), None] for f in outer)):
        kept = tuple(f for f, i in zip(outer, key) if i is not None)
        row = counts(kept)[tuple(i for i in key if i is not None)].tolist()
        names = ("total" if i is None else layout.levels(f)[i] for f, i in zip(outer, key))
        rows.append([*names, *map(str, row), str(sum(row))])
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
    return {"response": t.response_name, "rows": [asdict(r) for r in t.rows]}


def _coefficients_json(t: CoefficientTable, equation: str) -> dict:
    return {
        "alpha": t.alpha,
        "equation": equation,
        "rows": [
            {"parameter": r.label, "estimate": r.estimate, "se": _nan_none(r.se),
             "t": _nan_none(r.t), "p": _nan_none(r.p),
             "ci_low": _nan_none(r.ci_low), "ci_high": _nan_none(r.ci_high)}
            for r in t.rows
        ],
    }


def _nan_none(x: float) -> float | None:
    return None if (isinstance(x, float) and math.isnan(x)) else x


def _scheffe_json(comparisons: Sequence[ScheffeComparison]) -> list[dict]:
    return [
        {"factor": c.factor, "i": c.level_i, "j": c.level_j, "diff": c.diff,
         "se": c.se, "p": c.p, "ci_low": c.ci_low, "ci_high": c.ci_high}
        for c in comparisons
    ]


def _frequency_json(cells: CellTable) -> dict:
    layout = cells.layout
    return {
        "factors": [
            {"name": name, "levels": list(levels)} for name, levels in layout.factors
        ],
        "cells": [
            {"cell": list(layout.cell_names(cell)), "count": n}
            for cell, n in zip(layout.cells(), cells.counts.tolist())
        ],
        "total": cells.n,
    }


def _series_json(series, array) -> dict:
    """A diagnostic series: its ``kind``, then every field, arrays by ``array``."""
    out = {"kind": series.kind}
    for f in fields(series):
        value = getattr(series, f.name)
        out[f.name] = array(value) if isinstance(value, np.ndarray) else (
            list(value) if isinstance(value, tuple) else value)
    return out


def _json_document(bundle: ReportBundle) -> str:
    """``json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True)`` and a line
    break; each array series is dumped as a placeholder, then replaced by ``repr``
    of each value as ``indent=2`` lays them out, with json's non-finite names."""
    arrays = []

    def placeholder(array: np.ndarray) -> str | list:
        arrays.append(array)
        return f"\0series {len(arrays) - 1}\0" if array.size else []

    def splice(match: re.Match) -> str:
        head, indent, array = match[1], f"\n{match[2]}  ", arrays[int(match[3])]
        # a run of equal bits is formatted once: a fitted series has a run per cell
        bits = array.view(np.int64)
        starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
        texts = np.array(list(map(repr, array[starts].tolist())), dtype=object)
        values = f",{indent}".join(np.repeat(texts, np.diff(starts, append=array.size)).tolist())
        values = values.replace("nan", "NaN").replace("inf", "Infinity")
        return f"{head}[{indent}{values}\n{match[2]}]"

    document = json.dumps(bundle_to_dict(bundle, placeholder), indent=2, sort_keys=True)
    # a placeholder's line: its indent and key, and the index of its array
    line = r'^(( *)".*": )"\\u0000series (\d+)\\u0000"'
    return re.sub(line, splice, document, flags=re.M) + "\n"


# ---------------------------------------------------------------------------
# the bundle

@dataclass
class ReportBundle:
    """Everything one analysis run produces, at full precision."""

    parameters: dict
    cells: CellTable
    anova: AnovaTable
    coefficients: CoefficientTable
    equation: str
    raw_response: str  # the untransformed response: the scale of the raw_ diagnostics
    scheffe: dict[str, list[ScheffeComparison]] = field(default_factory=dict)
    subsets: dict[str, HomogeneousSubsets] = field(default_factory=dict)
    diagnostics: dict[str, object] = field(default_factory=dict)
    transform_rec: TransformRecommendation | None = None


def bundle_to_dict(bundle: ReportBundle, array=np.ndarray.tolist) -> dict:
    out = {
        "parameters": bundle.parameters,
        "scheffe": {},
        "subsets": {},
        "diagnostics": {name: _series_json(s, array) for name, s in bundle.diagnostics.items()},
    }
    for _, path, _, _, json_obj in _bundle_sections(bundle):
        parent = out[path[0]] if len(path) > 1 else out
        parent[path[-1]] = json_obj
    return out


def _bundle_sections(bundle: ReportBundle) -> list[tuple]:
    """Each table of the bundle: its file name, its key path in the JSON
    document, headers, rendered rows and full-precision JSON."""
    sections = [
        ("frequency", ("frequency",), *frequency_rows(bundle.cells),
         _frequency_json(bundle.cells)),
        ("anova", ("anova",), *anova_rows(bundle.anova), _anova_json(bundle.anova)),
        ("coefficients", ("coefficients",), *coefficient_rows(bundle.coefficients),
         _coefficients_json(bundle.coefficients, bundle.equation)),
    ]
    for factor, comparisons in bundle.scheffe.items():
        sections.append((f"scheffe_{factor}", ("scheffe", factor),
                         *scheffe_rows(comparisons), _scheffe_json(comparisons)))
    for factor, subsets in bundle.subsets.items():
        sections.append((f"subsets_{factor}", ("subsets", factor),
                         *subset_rows(subsets, bundle.cells.margin(factor)), asdict(subsets)))
    if bundle.transform_rec is not None:
        rec = bundle.transform_rec
        sections.append(("transform", ("transform_recommendation",),
                         *transform_rows(rec), asdict(rec)))
    return sections


def render_report(bundle: ReportBundle, format: str = "text") -> str:
    """Render the whole bundle as text, csv, or full-precision json; the json is
    ``json.dumps``' document byte for byte, but writes its array series itself."""
    if format == "json":
        return _json_document(bundle)
    if format not in ("text", "csv"):
        raise ValidationError(f"unknown report format {format!r} (text/csv/json)")
    parts = []
    for name, _, headers, rows, _ in _bundle_sections(bundle):
        if format == "text":
            parts.append(f"== {name} ==\n{_table_text(headers, rows)}")
        else:
            parts.append(f"[{name}]\n{_table_csv(headers, rows)}")
    if format == "text" and bundle.equation:
        parts.append(f"== fitted model ==\n{bundle.equation}\n")
    return "\n".join(parts)


def write_report_dir(bundle: ReportBundle, outdir: str | Path) -> list[str]:
    """Write tables/, plots/ and manifest.json under ``outdir``.

    Returns the relative paths of all artifacts written.
    """
    from . import plots  # local import: a table-only command loads no plotting

    outdir = Path(outdir)
    tables = outdir / "tables"
    plots_dir = outdir / "plots"
    tables.mkdir(parents=True, exist_ok=True)
    plots_dir.mkdir(parents=True, exist_ok=True)

    artifacts: list[str] = []
    for name, _, headers, rows, json_obj in _bundle_sections(bundle):
        (tables / f"{name}.txt").write_text(_table_text(headers, rows), encoding="utf-8")
        (tables / f"{name}.csv").write_text(_table_csv(headers, rows), encoding="utf-8")
        (tables / f"{name}.json").write_text(
            json.dumps(json_obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        artifacts.extend([f"tables/{name}.txt", f"tables/{name}.csv", f"tables/{name}.json"])

    subset_means = {f"subset_means_{factor}": s for factor, s in bundle.subsets.items()}
    for name, series in {**bundle.diagnostics, **subset_means}.items():
        response = bundle.raw_response if name.startswith("raw_") else bundle.anova.response_name
        plots.render_plot(series, plots_dir / f"{name}.svg", response)
        artifacts.append(f"plots/{name}.svg")

    manifest = {"parameters": bundle.parameters, "artifacts": sorted(artifacts)}
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    artifacts.append("manifest.json")
    return sorted(artifacts)
