"""Type III sums-of-squares ANOVA for crossed fixed-effects factorial designs.

A Type III hypothesis says that an effect's contrasts of the unweighted
marginal means of the cell means are zero, whatever the coding (Searle,
Speed & Milliken, Am. Stat. 34, 1980). The model is fitted once, under
reference coding, giving estimates b and the unscaled covariance
V = (X'WX)^-1 of the cell-level design X. For an effect, C is the Kronecker
product over the factors of [I, -1] for its factors and 1'/k for the others
(1'/k for all of them gives the intercept), and with L = C X its SS is

    SS = (Lb)' (L V L')^-1 (Lb) = wald(type3_contrast(layout, factors) @ X, fit).

This Wald statistic of L b = 0, for the Intercept and every effect row,
equals the reduced-versus-full comparison SSE(sum-to-zero coded model minus
the effect's columns) - SSE(model), with every other term present in both,
but needs no refit and no difference of two large error sums of squares. It
reproduces the between-subjects tables of the major statistics packages on
designs with all cells occupied and is directly checkable against a
brute-force least-squares oracle.

On unbalanced data the individual effect SS do not generally add up to the
corrected-model SS; no such additivity is assumed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import f_sf
from .errors import ValidationError
from .linmod import (
    FitResult, build_design, cell_kron, effect_df, effect_label, full_factorial_terms, linalg,
    ols_fit,
)
from .model import CellTable, FactorLayout


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
    """Between-subjects test table: one row per source.

    ``fit`` is the fit whose contrasts the rows test; a table built by hand
    from published rows has none.
    """

    rows: tuple[AnovaRow, ...]
    response_name: str = "response"
    fit: FitResult | None = field(default=None, repr=False, compare=False)

    def row(self, source: str) -> AnovaRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise ValidationError(f"no ANOVA row named {source!r}")

    @property
    def ms_error(self) -> float:
        err = self.row("Error")
        return err.ss / err.df

    @property
    def df_error(self) -> int:
        return self.row("Error").df


def type3_anova(cells: CellTable, max_order: int | None = None,
                response_name: str = "response") -> AnovaTable:
    """Between-subjects table with Type III SS for all effects up to
    ``max_order`` (defaults to the full factorial), labelled ``response_name``.

    Every df comes from ``df_check`` on the cell counts, and every sum of
    squares from one fit to ``cells``, which the table keeps as ``fit``, so
    cell summaries need no raw data. For the full model ``df_check``'s
    occupancy test decides estimability. Below it, occupied term margins
    are necessary but not sufficient: empty cells can still leave the
    design rank deficient, and then the fit raises ``RankDeficiencyError``.
    An error SS of 0 leaves F undefined and raises ``ValidationError``.
    """
    layout = cells.layout
    df = dict(df_check(cells, max_order))
    # every sum of squares below is at most the total SS, so a finite total
    # keeps the fit and the tests finite
    counts, means = cells.counts, cells.means
    within_ss = float(cells.m2.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        total_ss = within_ss + float((counts * means * means).sum())
    if not math.isfinite(total_ss):
        raise ValidationError(
            f"sums of squares overflow on the {response_name} scale; "
            "rescale or log-transform the response"
        )
    terms = full_factorial_terms(layout, max_order)
    full = build_design(layout, terms)
    fit = ols_fit(full, cells)
    sse_full = fit.sse
    df_error = df["Error"]
    mse = sse_full / df_error
    if not mse > 0:
        raise ValidationError(
            f"error sum of squares is 0 on the {response_name} scale, so F is undefined; "
            "the responses have no within-cell spread or are too small to square"
        )

    grand_mean = float((counts * means).sum()) / cells.n
    corrected_total_ss = within_ss + float((counts * (means - grand_mean) ** 2).sum())
    corrected_model_ss = corrected_total_ss - sse_full

    tested = {"Corrected Model": corrected_model_ss}
    for source, factors in [("Intercept", ()),
                            *((effect_label(layout, t), t.factor_indices) for t in terms)]:
        tested[source], _ = wald(type3_contrast(layout, factors) @ full.cell_values, fit)
    rows = []
    for source, ss in tested.items():
        ms = ss / df[source]
        f = ms / mse
        rows.append(AnovaRow(source, ss, df[source], ms, f, f_sf(f, df[source], df_error)))
    rows.append(AnovaRow("Error", sse_full, df_error, mse))
    rows.append(AnovaRow("Total", total_ss, df["Total"]))
    rows.append(AnovaRow("Corrected Total", corrected_total_ss, df["Corrected Total"]))
    return AnovaTable(tuple(rows), response_name=response_name, fit=fit)


def type3_contrast(layout: FactorLayout, factors: tuple[int, ...]) -> np.ndarray:
    """Type III contrast C of the effect crossing ``factors``, on the cell
    means: the Kronecker product of [I, -1] over those factors and 1'/k over
    the others, one row per contrast and one column per layout cell (layout
    cell order). ``factors == ()`` gives the intercept's row, 1'/n_cells."""
    return cell_kron(
        layout.shape, factors,
        lambda k: np.hstack([np.eye(k - 1), -np.ones((k - 1, 1))]),
        lambda k: np.ones((1, k)) / k,
    )


def wald(L: np.ndarray, fit: FitResult) -> tuple[float, int]:
    """Sum of squares (Lb)'(L V L')^-1 (Lb) of the hypothesis L b = 0, and its
    df, the rows of L: b and V = (X'WX)^-1 are the fit's estimates and
    unscaled covariance, and L has one column per design column."""
    if np.ndim(L) != 2 or np.shape(L)[1] != fit.design.n_columns:
        raise ValidationError(f"L must have {fit.design.n_columns} columns, one per design "
                              f"column; got shape {np.shape(L)}")
    lb = L @ fit.estimates
    return float(lb @ linalg.solve(L @ fit.cov_unscaled @ L.T, lb, assume_a="pos")), len(L)


def df_check(cells: CellTable, max_order: int | None = None) -> list[tuple[str, int]]:
    """Degrees-of-freedom column computed from cell counts alone.

    Valid when every cell spanned by a model term is occupied and at least
    one error df remains (both checked); rows appear in the same order as
    ``type3_anova`` output. Occupancy makes the full model estimable; a
    model below it can pass and still be rank deficient, which only the
    fit's rank check detects.
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
    effect_dfs = [(effect_label(layout, term), effect_df(layout, term)) for term in terms]
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
    significant: bool


def significance_summary(table: AnovaTable, alpha: float) -> list[EffectVerdict]:
    """Label every testable row significant or not at level ``alpha``."""
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    return [EffectVerdict(row.source, row.p, row.p <= alpha)
            for row in table.rows if row.p is not None]
