"""Ordinary least squares on coded factorial designs: design-matrix
construction, fitting via Householder QR (never via explicit cross-product
inversion), and coefficient inference on a fit.

Designs use reference coding: one 0/1 dummy per non-reference level, with
the LAST level of each factor as the redundant reference, so a four-level
season factor becomes season(1)..season(3) and the final level is the
all-zeros row. A k-level factor contributes exactly k-1 columns, and
interaction columns are elementwise products of their parents' columns.
Every column is a function of the cell, so each term's block of the
cell-level matrix is a Kronecker product over the factors (``cell_kron``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import t_cdf, t_quantile
from .errors import RankDeficiencyError, ValidationError
from .model import CellTable, FactorLayout

# a column is dependent when its distance from the span of the columns before
# it is at most this times the largest column norm
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Term:
    """One model term: the indices of the factors it crosses (sorted)."""

    factor_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.factor_indices)
        if not idx:
            raise ValidationError("a term involves at least one factor")
        if len(set(idx)) != len(idx):
            raise ValidationError("term factor indices must be distinct")
        object.__setattr__(self, "factor_indices", tuple(sorted(idx)))


def effect_label(layout: FactorLayout, term: Term) -> str:
    """The term's row name in tables: its factor names joined by " * "."""
    return " * ".join(layout.names[i] for i in term.factor_indices)


def effect_df(layout: FactorLayout, term: Term) -> int:
    """The term's numerator df: the product of (k - 1) over its factors."""
    return math.prod([layout.shape[i] - 1 for i in term.factor_indices])


def full_factorial_terms(layout: FactorLayout, max_order: int | None = None) -> list[Term]:
    """All main effects and interactions up to ``max_order``, hierarchical by
    construction."""
    k = layout.n_factors
    max_order = k if max_order is None else max_order
    if not 1 <= max_order <= k:
        raise ValidationError(f"max_order must be in [1, {k}]")
    return [
        Term(combo)
        for order in range(1, max_order + 1)
        for combo in itertools.combinations(range(k), order)
    ]


def cell_kron(
    shape: Sequence[int],
    factors: Sequence[int],
    inside: Callable[[int], np.ndarray],
    outside: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Kronecker product over the factors of ``shape``, in layout order, of
    ``inside(k)`` for the listed factors and ``outside(k)`` for the others (k
    levels each): with levels along each factor's rows (or columns), the
    product's rows (or columns) run over the cells in layout cell order."""
    out = np.ones((1, 1))
    for i, k in enumerate(shape):
        m = inside(k) if i in factors else outside(k)
        # np.kron(out, m), without np.kron's per-call overhead
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(len(out) * len(m), -1)
    return out


@dataclass(frozen=True)
class DesignMatrix:
    """Coded model matrix of a layout: one labelled column per coded effect.

    Every column is a function of the cell, so the matrix is one coded row
    per layout cell (``cell_values``, in layout cell order), whatever the N.
    Only ``bench/spans.py`` reads ``n_rows``, the row count.
    """

    layout: FactorLayout
    labels: tuple[str, ...]
    cell_values: np.ndarray
    n_rows: int = field(init=False)

    def __post_init__(self):
        cell_values = np.asarray(self.cell_values, dtype=float)
        if cell_values.shape != (self.layout.n_cells, len(self.labels)):
            raise ValidationError("design values do not match the declared columns")
        cell_values.setflags(write=False)
        object.__setattr__(self, "cell_values", cell_values)
        object.__setattr__(self, "n_rows", len(cell_values))

    @property
    def n_columns(self) -> int:
        return self.cell_values.shape[1]


def _term_labels(layout: FactorLayout, term: Term) -> list[str]:
    """Column labels of one term, in block order."""
    return [
        " * ".join(f"{layout.names[fi]}({ci})" for fi, ci in zip(term.factor_indices, combo))
        for combo in itertools.product(
            *(range(1, layout.n_levels(fi)) for fi in term.factor_indices))
    ]


def build_design(layout: FactorLayout, terms: Sequence[Term]) -> DesignMatrix:
    """Design matrix of a layout: intercept, then one block per term.

    Each block is the Kronecker product of ``eye(k)[:, :-1]`` over the term's
    factors and ``ones((k, 1))`` over the others, one row per layout cell.
    Rank deficiency (from empty cells or an over-specified formula) is not
    detected here; it surfaces at fit time, where the cell counts are known.
    """
    blocks = [
        cell_kron(layout.shape, factors, lambda k: np.eye(k)[:, :-1], lambda k: np.ones((k, 1)))
        for factors in [(), *(term.factor_indices for term in terms)]
    ]
    labels = ["Intercept"]
    for term in terms:
        labels.extend(_term_labels(layout, term))
    return DesignMatrix(layout=layout, labels=tuple(labels), cell_values=np.hstack(blocks))


@dataclass(frozen=True)
class CoefficientRow:
    label: str
    estimate: float
    se: float
    t: float
    p: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class CoefficientTable:
    """Per-term estimates with Wald inference at the stored confidence level."""

    rows: tuple[CoefficientRow, ...]
    alpha: float = 0.05

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.rows)

    def row(self, label: str) -> CoefficientRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise ValidationError(f"no coefficient named {label!r}")


@dataclass(frozen=True)
class FitResult:
    """An OLS fit: coefficient estimates, one fitted value per cell, and error
    moments.

    Every observation's fitted value is its cell's entry of ``cell_fitted``
    (layout cell order). ``cov_unscaled`` is the read-only (X'WX)^-1 in
    design column order, where W holds the observation counts.
    """

    design: DesignMatrix
    estimates: np.ndarray
    cov_unscaled: np.ndarray
    cell_fitted: np.ndarray
    sse: float
    df_error: int
    mse: float


def ols_fit(X: DesignMatrix, cells: CellTable) -> FitResult:
    """Least-squares fit of the responses summarised by ``cells`` on the
    design of the same layout, solved by Householder QR.

    The estimates depend on the responses only through the per-cell counts
    and means, so the QR runs on the occupied cell rows scaled by the square
    root of their counts: that matrix has the same cross-product and column
    norms as the observation-level matrix, hence the same R (up to row
    signs), rank decision and estimates. The estimates and ``cov_unscaled``
    both come from R's inverse. The SSE is the within-cell part plus the
    count-weighted gaps: sum(m2) + sum(n_c (mean_c - fitted_c)^2).

    Raises ``RankDeficiencyError`` naming, in design order, each column
    within tolerance of the span of the independent columns before it when
    the design is not full rank. ``coefficient_table`` gives the inference.
    """
    if cells.layout != X.layout:
        raise ValidationError(
            f"cell table is on layout {cells.layout.factors}, design on {X.layout.factors}"
        )
    n, p = cells.n, X.n_columns
    occupied = cells.counts > 0
    counts = cells.counts[occupied]
    means = cells.means[occupied]
    root = np.sqrt(counts)
    a = X.cell_values[occupied] * root[:, None]
    q, r = np.linalg.qr(a)
    # |R_jj| is column j's distance from the span of the columns before it
    tol = _RANK_RTOL * np.linalg.norm(a, axis=0).max()
    if len(r) < p or (np.abs(np.diag(r)) <= tol).any():
        # past a dependent column R's diagonal no longer measures distance,
        # so name each column within tol of the span of the kept ones
        kept: list[int] = []
        for j in range(p):
            if np.linalg.norm(np.linalg.qr(a[:, kept + [j]], mode="r")[len(kept):, -1]) > tol:
                kept.append(j)
        raise RankDeficiencyError([X.labels[j] for j in range(p) if j not in kept])

    r_inv = np.linalg.inv(r)
    estimates = r_inv @ (q.T @ (means * root))
    cell_fitted = X.cell_values @ estimates
    cell_fitted.setflags(write=False)
    gap = means - cell_fitted[occupied]
    sse = float(cells.m2.sum() + (counts * gap * gap).sum())
    df_error = n - p
    mse = sse / df_error if df_error > 0 else float("nan")
    cov_unscaled = r_inv @ r_inv.T
    cov_unscaled.setflags(write=False)

    return FitResult(
        design=X,
        estimates=estimates,
        cov_unscaled=cov_unscaled,
        cell_fitted=cell_fitted,
        sse=sse,
        df_error=df_error,
        mse=mse,
    )


def coefficient_table(fit: FitResult, alpha: float = 0.05) -> CoefficientTable:
    """Wald inference per coefficient at confidence level 1 - ``alpha``.

    Standard errors come from the unscaled covariance diagonal times the
    mean squared error; with zero error df the inference fields are NaN.
    """
    X, estimates, df_error = fit.design, fit.estimates, fit.df_error
    nan = float("nan")
    rows = []
    if df_error > 0:
        se = np.sqrt(fit.mse * np.diag(fit.cov_unscaled))
        t_crit = t_quantile(1.0 - alpha / 2.0, df_error)
        for label, b, s in zip(X.labels, estimates, se):
            t = b / s if s > 0 else nan
            p_val = 2.0 * t_cdf(-abs(t), df_error) if math.isfinite(t) else nan
            rows.append(
                CoefficientRow(label, float(b), float(s), float(t), float(p_val),
                               float(b - t_crit * s), float(b + t_crit * s))
            )
    else:
        for label, b in zip(X.labels, estimates):
            rows.append(CoefficientRow(label, float(b), nan, nan, nan, nan, nan))
    return CoefficientTable(tuple(rows), alpha=alpha)


def significant_terms(table: CoefficientTable, alpha: float) -> CoefficientTable:
    """Rows with p <= alpha; the intercept is always retained."""
    kept = tuple(
        r for r in table.rows
        if r.label == "Intercept" or (math.isfinite(r.p) and r.p <= alpha)
    )
    return CoefficientTable(kept, alpha=table.alpha)


def equation_string(table: CoefficientTable, response_name: str = "response") -> str:
    """Render coefficients as a fitted-model formula string."""
    parts = []
    for r in table.rows:
        coef = f"{abs(r.estimate):.3f}"
        name = "" if r.label == "Intercept" else f"[{r.label}]"
        if not parts:
            sign = "-" if r.estimate < 0 else ""
            parts.append(f"{sign}{coef}{name}")
        else:
            sign = "-" if r.estimate < 0 else "+"
            parts.append(f"{sign} {coef}{name}")
    rhs = " ".join(parts) if parts else "0"
    return f"{response_name} = {rhs}"


def significant_model(coefficients: CoefficientTable, response_name: str = "response") -> str:
    """The fitted-model formula of the coefficients that pass the significance
    filter at the table's own ``alpha``."""
    return equation_string(significant_terms(coefficients, coefficients.alpha), response_name)
