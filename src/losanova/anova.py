"""Type III sums-of-squares ANOVA for crossed fixed-effects factorial designs.

The full model is fitted once under sum-to-zero (deviation) coding. Each
effect's Type III SS is then its hypothesis SS on that fit,

    SS(E) = b_E' (V_EE)^-1 b_E,

where b_E are the effect's estimates and V_EE their block of the unscaled
covariance (X'WX)^-1 (Searle, Linear Models for Unbalanced Data, 1987). The
intercept row is the same with the constant column alone. In exact
arithmetic this equals the reduced-versus-full comparison SSE(full model
minus that effect's columns) - SSE(full model), with every other term --
including higher-order interactions -- present in both models, but it needs
no refit and no difference of two large error sums of squares. This
reproduces the between-subjects-table semantics of the major statistics
packages on designs with all cells occupied and is directly checkable
against a brute-force least-squares oracle.

On unbalanced data the individual effect SS do not generally add up to the
corrected-model SS; no such additivity is assumed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import f_sf
from .errors import ValidationError
from .linmod import build_design, effect_label, full_factorial_terms, linalg, ols_fit
from .model import CellTable, Dataset


@dataclass(frozen=True)
class AnovaRow:
    source: str
    ss: float
    df: int
    ms: float | None = None
    f: float | None = None
    p: float | None = None


@dataclass(frozen=True)
class AnovaTable:
    """Between-subjects test table: one row per source."""

    rows: tuple[AnovaRow, ...]
    response_name: str = "response"

    def row(self, source: str) -> AnovaRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise ValidationError(f"no ANOVA row named {source!r}")

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(r.source for r in self.rows)

    @property
    def effect_rows(self) -> tuple[AnovaRow, ...]:
        skip = {"Corrected Model", "Intercept", "Error", "Total", "Corrected Total"}
        return tuple(r for r in self.rows if r.source not in skip)

    @property
    def ms_error(self) -> float:
        err = self.row("Error")
        return err.ss / err.df

    @property
    def df_error(self) -> int:
        return self.row("Error").df


def type3_anova(d: Dataset, max_order: int | None = None) -> AnovaTable:
    """Between-subjects table with Type III SS for all effects up to
    ``max_order`` (defaults to the full factorial).

    Estimability and every df come from ``df_check`` on the cell counts;
    every sum of squares comes from one fit to the dataset's cell table.
    """
    layout = d.layout
    cells = d.cells
    df = dict(df_check(cells, max_order))
    # every sum of squares below is at most the total SS, so a finite total
    # keeps the fit and the tests finite
    counts, means = cells.counts, cells.means
    within_ss = float(cells.m2.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        total_ss = within_ss + float((counts * means * means).sum())
    if not math.isfinite(total_ss):
        raise ValidationError(
            f"sums of squares overflow on the {d.response_name} scale; "
            "rescale or log-transform the response"
        )
    terms = full_factorial_terms(layout, max_order)
    full = build_design(d, terms, coding="deviation")
    fit = ols_fit(full, cells)
    sse_full = fit.sse
    df_error = df["Error"]
    mse = sse_full / df_error

    grand_mean = float((counts * means).sum()) / cells.n
    corrected_total_ss = within_ss + float((counts * (means - grand_mean) ** 2).sum())
    corrected_model_ss = corrected_total_ss - sse_full

    def hypothesis_ss(term) -> float:
        cols = [i for i, c in enumerate(full.columns) if c.term == term]
        b = fit.estimates[cols]
        return float(b @ linalg.solve(fit.cov_unscaled[np.ix_(cols, cols)], b,
                                      assume_a="pos"))

    def row(source: str, ss: float) -> AnovaRow:
        ms = ss / df[source]
        f = ms / mse
        return AnovaRow(source, ss, df[source], ms, f, f_sf(f, df[source], df_error))

    rows = [
        row("Corrected Model", corrected_model_ss),
        row("Intercept", hypothesis_ss(None)),
    ]
    rows.extend(row(effect_label(layout, term), hypothesis_ss(term)) for term in terms)

    rows.append(AnovaRow("Error", sse_full, df_error, mse))
    rows.append(AnovaRow("Total", total_ss, df["Total"]))
    rows.append(AnovaRow("Corrected Total", corrected_total_ss, df["Corrected Total"]))
    return AnovaTable(tuple(rows), response_name=d.response_name)


def df_check(cells: CellTable, max_order: int | None = None) -> list[tuple[str, int]]:
    """Degrees-of-freedom column computed from cell counts alone.

    Valid when every cell spanned by a model term is occupied and at least
    one error df remains (both checked); rows appear in the same order as
    ``type3_anova`` output.
    """
    layout = cells.layout
    terms = full_factorial_terms(layout, max_order)
    for term in terms:
        margin = cells.margin(*term.factor_indices)
        empty = np.flatnonzero(margin.counts == 0)
        if empty.size:
            names = margin.layout.cell_names(np.unravel_index(empty[0], margin.layout.shape))
            cell = ", ".join(f"{f}={lv}" for f, lv in zip(margin.layout.names, names))
            raise ValidationError(
                f"every cell spanned by a model term must be occupied; empty: {cell}"
            )
    n = cells.n
    effect_dfs = [
        (effect_label(layout, term),
         int(np.prod([layout.n_levels(i) - 1 for i in term.factor_indices])))
        for term in terms
    ]
    model_df = sum(df for _, df in effect_dfs)
    error_df = n - model_df - 1
    if error_df < 1:
        raise ValidationError(f"N = {n} leaves error df {error_df} < 1")
    out = [("Corrected Model", model_df), ("Intercept", 1)]
    out.extend(effect_dfs)
    out.extend([("Error", error_df), ("Total", n), ("Corrected Total", n - 1)])
    return out


@dataclass(frozen=True)
class EffectVerdict:
    source: str
    p: float
    significant_strict: bool
    significant_loose: bool


def significance_summary(
    table: AnovaTable, alpha_strict: float = 0.01, alpha_loose: float = 0.05
) -> list[EffectVerdict]:
    """Label every testable row significant/not at the two alpha levels."""
    if not 0 < alpha_strict <= alpha_loose < 1:
        raise ValidationError("need 0 < alpha_strict <= alpha_loose < 1")
    out = []
    for row in table.rows:
        if row.p is None:
            continue
        out.append(
            EffectVerdict(row.source, row.p, row.p < alpha_strict, row.p < alpha_loose)
        )
    return out
