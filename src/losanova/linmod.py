"""Ordinary least squares on coded factorial designs: design-matrix
construction, fitting via pivoted QR (never via explicit cross-product
inversion), coefficient inference, and prediction.

Two coding schemes are supported. ``reference`` coding emits one 0/1 dummy
per non-reference level with the LAST level of each factor as the redundant
reference, so a four-level season factor becomes season(1)..season(3) and the
final level is the all-zeros row. ``deviation`` coding is sum-to-zero: the
last level is coded -1 in every column of its factor. Either way a k-level
factor contributes exactly k-1 columns, and interaction columns are
elementwise products of their parents' columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ._lazy import LazyModule
from .distributions import t_cdf, t_quantile
from .errors import RankDeficiencyError, ValidationError
from .model import CellTable, Dataset, FactorLayout

linalg = LazyModule("scipy.linalg")

Coding = Literal["reference", "deviation"]

# relative tolerance on the pivoted-QR diagonal for the rank decision
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

    @property
    def order(self) -> int:
        return len(self.factor_indices)

    @property
    def kind(self) -> str:
        if self.order == 1:
            return "main"
        return f"{self.order}-way interaction"


def effect_label(layout: FactorLayout, term: Term) -> str:
    """The term's row name in tables: its factor names joined by " * "."""
    return " * ".join(layout.names[i] for i in term.factor_indices)


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


def _coding_basis(n_levels: int, coding: Coding) -> np.ndarray:
    """(n_levels, n_levels-1) row-per-level coding matrix."""
    basis = np.zeros((n_levels, n_levels - 1))
    basis[: n_levels - 1, :] = np.eye(n_levels - 1)
    if coding == "deviation":
        basis[n_levels - 1, :] = -1.0
    elif coding != "reference":
        raise ValidationError(f"unknown coding scheme {coding!r}")
    return basis


@dataclass(frozen=True)
class DesignColumn:
    label: str
    term: Term | None  # None marks the intercept


@dataclass(frozen=True)
class DesignMatrix:
    """Coded model matrix plus the metadata needed to recode new observations.

    Every column is a function of the cell, so the matrix is stored as one
    coded row per layout cell (``cell_values``, in layout cell order);
    ``n_rows`` is the number of observations it stands for.
    """

    layout: FactorLayout
    coding: Coding
    terms: tuple[Term, ...]
    columns: tuple[DesignColumn, ...]
    cell_values: np.ndarray
    n_rows: int

    def __post_init__(self):
        cell_values = np.asarray(self.cell_values, dtype=float)
        if cell_values.shape != (self.layout.n_cells, len(self.columns)):
            raise ValidationError("design values do not match the declared columns")
        cell_values.setflags(write=False)
        object.__setattr__(self, "cell_values", cell_values)

    @property
    def n_columns(self) -> int:
        return self.cell_values.shape[1]


def _term_columns(
    layout: FactorLayout, coding: Coding, term: Term
) -> list[tuple[str, list[tuple[int, int]]]]:
    """Labels and (factor, coded column) pairs for one term, in block order."""
    per_factor = [range(layout.n_levels(fi) - 1) for fi in term.factor_indices]
    out = []
    for combo in itertools.product(*per_factor):
        label = " * ".join(
            f"{layout.names[fi]}({ci + 1})" for fi, ci in zip(term.factor_indices, combo)
        )
        out.append((label, list(zip(term.factor_indices, combo))))
    return out


def encode_cells(
    layout: FactorLayout, terms: Sequence[Term], coding: Coding
) -> tuple[np.ndarray, list[DesignColumn]]:
    """Model-matrix columns for every layout cell, one row per cell in layout
    cell order."""
    level_matrix = np.indices(layout.shape).reshape(layout.n_factors, -1).T
    n = level_matrix.shape[0]
    factor_codes = {}
    for term in terms:
        for fi in term.factor_indices:
            if fi not in factor_codes:
                basis = _coding_basis(layout.n_levels(fi), coding)
                factor_codes[fi] = basis[level_matrix[:, fi]]

    columns = [DesignColumn("Intercept", None)]
    blocks = [np.ones((n, 1))]
    for term in terms:
        for label, parts in _term_columns(layout, coding, term):
            col = np.ones(n)
            for fi, ci in parts:
                col = col * factor_codes[fi][:, ci]
            columns.append(DesignColumn(label, term))
            blocks.append(col[:, None])
    return np.hstack(blocks), columns


def build_design(d: Dataset, terms: Sequence[Term], coding: Coding = "reference") -> DesignMatrix:
    """Design matrix for a dataset: intercept, then one block per term.

    Rank deficiency (from empty cells or an over-specified formula) is not
    detected here; it surfaces at fit time.
    """
    terms = tuple(terms)
    cell_values, columns = encode_cells(d.layout, terms, coding)
    return DesignMatrix(
        layout=d.layout, coding=coding, terms=terms, columns=tuple(columns),
        cell_values=cell_values, n_rows=d.n,
    )


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
    """An OLS fit: coefficients, one fitted value per cell, and error moments.

    Every observation's fitted value is its cell's entry of ``cell_fitted``
    (layout cell order). The design (and with it the coding scheme)
    travels with the fit, so ``predict`` can never be called with mismatched
    coding. ``cov_unscaled`` is the read-only (X'WX)^-1 in design column
    order, where W holds the observation counts.
    """

    design: DesignMatrix
    coefficients: CoefficientTable
    estimates: np.ndarray
    cov_unscaled: np.ndarray
    cell_fitted: np.ndarray
    sse: float
    df_error: int
    mse: float

    @classmethod
    def from_coefficients(
        cls,
        layout: FactorLayout,
        terms: Sequence[Term],
        coding: Coding,
        values: dict[str, float],
        alpha: float = 0.05,
    ) -> "FitResult":
        """Assemble a prediction-only fit from published coefficient values.

        Labels absent from ``values`` get a zero coefficient; unknown labels
        are rejected. Inference fields and ``cov_unscaled`` are NaN.
        """
        cell_values, columns = encode_cells(layout, tuple(terms), coding)
        design = DesignMatrix(
            layout=layout, coding=coding, terms=tuple(terms),
            columns=tuple(columns), cell_values=cell_values, n_rows=0,
        )
        known = {c.label for c in columns}
        unknown = set(values) - known
        if unknown:
            raise ValidationError(f"unknown coefficient labels: {sorted(unknown)}")
        estimates = np.array([values.get(c.label, 0.0) for c in columns])
        nan = float("nan")
        table = CoefficientTable(
            rows=tuple(
                CoefficientRow(c.label, float(b), nan, nan, nan, nan, nan)
                for c, b in zip(columns, estimates)
            ),
            alpha=alpha,
        )
        cov_unscaled = np.full((len(columns), len(columns)), nan)
        cov_unscaled.setflags(write=False)
        return cls(design, table, estimates, cov_unscaled, cell_values @ estimates,
                   nan, 0, nan)


def ols_fit(X: DesignMatrix, cells: CellTable, alpha: float = 0.05) -> FitResult:
    """Least-squares fit of the responses summarised by ``cells`` on the
    design, solved by pivoted QR.

    The estimates depend on the responses only through the per-cell counts
    and means, so the QR runs on the occupied cell rows scaled by the square
    root of their counts: that matrix has the same cross-product and column
    norms as the observation-level matrix, hence the same R, pivots, rank
    decision and estimates. The SSE is the within-cell part plus the
    count-weighted gaps: sum(m2) + sum(n_c (mean_c - fitted_c)^2).

    Raises ``RankDeficiencyError`` naming the dependent columns when the
    design is not full rank. Standard errors come from the unscaled
    covariance diagonal times the mean squared error; with zero error df the
    inference fields are NaN.
    """
    n, p = cells.n, X.n_columns
    if cells.layout != X.layout or n != X.n_rows:
        raise ValidationError(
            f"cell table holds {n} observations, design has {X.n_rows} rows"
        )
    occupied = cells.counts > 0
    counts = cells.counts[occupied]
    means = cells.means[occupied]
    root = np.sqrt(counts)
    q, r, piv = linalg.qr(
        X.cell_values[occupied] * root[:, None], mode="economic", pivoting=True
    )
    diag = np.abs(np.diag(r))
    rank = int((diag > _RANK_RTOL * diag[0]).sum()) if diag.size else 0
    if rank < p:
        dependent = [X.columns[piv[i]].label for i in range(rank, p)]
        raise RankDeficiencyError(dependent)

    qty = q.T @ (means * root)
    b_piv = linalg.solve_triangular(r, qty)
    estimates = np.empty(p)
    estimates[piv] = b_piv

    cell_fitted = X.cell_values @ estimates
    cell_fitted.setflags(write=False)
    gap = means - cell_fitted[occupied]
    sse = float(cells.m2.sum() + (counts * gap * gap).sum())
    df_error = n - p
    mse = sse / df_error if df_error > 0 else float("nan")

    r_inv = linalg.solve_triangular(r, np.eye(p))
    cov_unscaled_piv = r_inv @ r_inv.T
    cov_unscaled = np.empty((p, p))
    cov_unscaled[np.ix_(piv, piv)] = cov_unscaled_piv
    cov_unscaled.setflags(write=False)

    nan = float("nan")
    rows = []
    if df_error > 0:
        se = np.sqrt(mse * np.diag(cov_unscaled))
        t_crit = t_quantile(1.0 - alpha / 2.0, df_error)
        for col, b, s in zip(X.columns, estimates, se):
            t = b / s if s > 0 else nan
            p_val = 2.0 * t_cdf(-abs(t), df_error) if math.isfinite(t) else nan
            rows.append(
                CoefficientRow(col.label, float(b), float(s), float(t), float(p_val),
                               float(b - t_crit * s), float(b + t_crit * s))
            )
    else:
        for col, b in zip(X.columns, estimates):
            rows.append(CoefficientRow(col.label, float(b), nan, nan, nan, nan, nan))

    return FitResult(
        design=X,
        coefficients=CoefficientTable(tuple(rows), alpha=alpha),
        estimates=estimates,
        cov_unscaled=cov_unscaled,
        cell_fitted=cell_fitted,
        sse=sse,
        df_error=df_error,
        mse=mse,
    )


def predict(fit: FitResult, level_names: Sequence[str]) -> float:
    """Model prediction for one factor-level combination: its cell's fitted value."""
    layout = fit.design.layout
    cell = layout.resolve_cell(level_names)
    return float(fit.cell_fitted[np.ravel_multi_index(cell, layout.shape)])


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


@dataclass(frozen=True)
class SignificantModel:
    """The significance-filtered coefficient listing and its rendered formula."""

    table: CoefficientTable
    equation: str


def significant_model(
    fit: FitResult, alpha: float, response_name: str = "response"
) -> SignificantModel:
    """Terms of the fit that pass the significance filter, as table + formula."""
    table = significant_terms(fit.coefficients, alpha)
    return SignificantModel(table, equation_string(table, response_name))
