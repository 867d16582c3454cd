"""Residual analysis and variance-stabilizing transform selection.

The transform chooser regresses log10(cell sd) on log10(cell mean). A power
law sd = c * mean^alpha shows up there as a straight line with slope alpha,
and the slope, snapped to the nearest of {0, 0.5, 1, 1.5, 2}, picks the
classical variance-stabilizing transform (none, square root, log, reciprocal
square root, reciprocal). The fit includes an intercept -- the
proportionality constant c -- but the through-origin slope is also reported
for comparison with conventions that omit it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import normal_cdf
from .errors import ValidationError
from .linmod import FitResult
from .model import CellTable, Dataset

# forward map, inverse map and response-name pattern of each transform
_MAPS = {
    "none": (lambda y: y, lambda v: v, "{}"),
    "square_root": (np.sqrt, lambda v: v**2, "sqrt({})"),
    "logarithmic": (np.log10, lambda v: 10.0**v, "log10({})"),
    "reciprocal_square_root": (lambda y: 1.0 / np.sqrt(y), lambda v: 1.0 / v**2, "1/sqrt({})"),
    "reciprocal": (lambda y: 1.0 / y, lambda v: 1.0 / v, "1/({})"),
}
TRANSFORMS = tuple(_MAPS)

_EXPONENT_TO_TRANSFORM = {
    0.0: "none",
    0.5: "square_root",
    1.0: "logarithmic",
    1.5: "reciprocal_square_root",
    2.0: "reciprocal",
}

# a slope farther than this from every grid point still snaps, but is flagged
_SNAP_CONFIDENCE_RADIUS = 0.25


@dataclass(frozen=True)
class HistogramData:
    """Equal-width histogram: len(edges) == len(counts) + 1."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return int(sum(self.counts))


def _freeze_series(obj, *names: str) -> None:
    """Store the named fields of a frozen series as read-only float64 arrays."""
    for name in names:
        array = np.array(getattr(obj, name), dtype=float)
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


@dataclass(frozen=True, eq=False)
class PPPlotData:
    """Empirical vs theoretical normal probabilities of sorted residuals, as
    read-only float64 arrays."""

    empirical: np.ndarray
    theoretical: np.ndarray
    max_abs_deviation: float

    def __post_init__(self):
        _freeze_series(self, "empirical", "theoretical")


@dataclass(frozen=True, eq=False)
class ResidualSpread:
    """Residuals paired with fitted values, plus a variance-funnel summary.

    ``fitted`` and ``residuals`` are read-only float64 arrays ordered by
    fitted value. ``funnel_ratio`` is the residual sd in the top fitted-value
    quartile over the bottom quartile; None when either group is degenerate.
    """

    fitted: np.ndarray
    residuals: np.ndarray
    funnel_ratio: float | None

    def __post_init__(self):
        _freeze_series(self, "fitted", "residuals")


@dataclass(frozen=True)
class TransformRecommendation:
    slope: float
    intercept: float
    r_squared: float
    slope_through_origin: float
    snapped_exponent: float
    transform: str
    low_confidence: bool
    cells_used: int
    cells_excluded: int


def residuals(d: Dataset, fit: FitResult) -> np.ndarray:
    """Observed minus fitted responses, in observation order.

    The one place a fit is expanded to one value per observation: each
    observation's fitted value is its cell's entry of ``fit.cell_fitted``.
    """
    if fit.design.layout != d.layout or fit.design.n_rows != d.n:
        raise ValidationError(
            f"fit has {fit.design.n_rows} observations, dataset has {d.n}"
        )
    return d.responses - fit.cell_fitted[d.codes]


def residual_histogram(e: np.ndarray, bins: int | None = None) -> HistogramData:
    """Equal-width histogram spanning [min, max].

    The automatic bin count is ceil(1 + log2 N) (Sturges' rule).
    """
    e = np.asarray(e, dtype=float)
    if e.size == 0:
        raise ValidationError("no residuals to bin")
    if bins is None:
        bins = math.ceil(1.0 + math.log2(e.size))
    if bins < 1:
        raise ValidationError("bin count must be >= 1")
    lo, hi = float(e.min()), float(e.max())
    if lo == hi:
        # constant residuals: one unit-width bin centered on the value
        edges = np.array([lo - 0.5, lo + 0.5])
        counts = np.array([e.size])
    else:
        counts, edges = np.histogram(e, bins=bins, range=(lo, hi))
    return HistogramData(tuple(float(b) for b in edges), tuple(int(c) for c in counts))


def residual_vs_fitted(e: np.ndarray, fitted: np.ndarray) -> ResidualSpread:
    """Residuals against fitted values, ordered by fitted value.

    The funnel statistic compares residual spread between the top and bottom
    fitted-value quartiles; a ratio well above 1 is the increasing-variance
    signature that motivates a variance-stabilizing transform.
    """
    e = np.asarray(e, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    if e.shape != fitted.shape or e.ndim != 1:
        raise ValidationError("residuals and fitted values must be equal-length vectors")
    if e.size == 0:
        raise ValidationError("no residuals")
    order = np.argsort(fitted, kind="stable")

    funnel = None
    if np.unique(fitted).size > 1:
        q1, q3 = np.percentile(fitted, [25.0, 75.0])
        low = e[fitted <= q1]
        high = e[fitted >= q3]
        if low.size >= 2 and high.size >= 2:
            sd_low = float(low.std(ddof=1))
            sd_high = float(high.std(ddof=1))
            if sd_low > 0:
                funnel = sd_high / sd_low
    return ResidualSpread(fitted=fitted[order], residuals=e[order], funnel_ratio=funnel)


def pp_plot(e: np.ndarray) -> PPPlotData:
    """Normal P-P coordinates of the residuals.

    Residuals are standardized by their own mean and (population) sd; the
    empirical cumulative proportion (i - 0.5)/N is paired with the normal CDF
    at the i-th sorted standardized residual. ``max_abs_deviation`` is the
    largest gap between the two coordinates, a Kolmogorov-style summary.
    """
    e = np.asarray(e, dtype=float)
    if e.size == 0:
        raise ValidationError("no residuals")
    sd = float(e.std(ddof=0))
    if sd == 0:
        raise ValidationError("residuals have zero variance; P-P plot undefined")
    z = np.sort((e - e.mean()) / sd)
    n = e.size
    empirical = (np.arange(1, n + 1) - 0.5) / n
    theoretical = normal_cdf(z)
    max_dev = float(np.max(np.abs(empirical - theoretical)))
    return PPPlotData(empirical, theoretical, max_dev)


def sd_mean_regression(cells: CellTable) -> TransformRecommendation:
    """Fit log10(sd) on log10(mean) across cells and pick a transform.

    A cell's sd is the sample sd sqrt(m2 / (n - 1)). Nonempty cells with
    n < 2, sd = 0, or nonpositive mean cannot contribute (their log is
    undefined), nor can a cell whose responses overflow to a non-finite sd;
    all are counted as excluded. Needs at least 3 usable cells and
    nonconstant log-means.
    """
    n, mean = cells.counts, cells.means
    sd = np.sqrt(np.divide(cells.m2, n - 1, out=np.zeros(n.size), where=n >= 2))
    usable = (n >= 2) & (sd > 0) & np.isfinite(sd) & (mean > 0)
    n_usable = int(usable.sum())
    excluded = int((n > 0).sum()) - n_usable
    if n_usable < 3:
        raise ValidationError(
            f"need at least 3 cells with n >= 2, positive mean and sd > 0; got {n_usable}"
        )
    x = np.log10(mean[usable])
    y = np.log10(sd[usable])
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0:
        raise ValidationError("log cell means are constant; slope undefined")
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    syy = float(((y - y.mean()) ** 2).sum())
    r_squared = (sxy * sxy) / (sxx * syy) if syy > 0 else 1.0
    slope_origin = float((x * y).sum() / (x * x).sum()) if float((x * x).sum()) > 0 else slope

    grid = sorted(_EXPONENT_TO_TRANSFORM)
    snapped = min(grid, key=lambda g: abs(slope - g))
    return TransformRecommendation(
        slope=float(slope),
        intercept=intercept,
        r_squared=float(r_squared),
        slope_through_origin=slope_origin,
        snapped_exponent=snapped,
        transform=_EXPONENT_TO_TRANSFORM[snapped],
        low_confidence=abs(slope - snapped) > _SNAP_CONFIDENCE_RADIUS,
        cells_used=n_usable,
        cells_excluded=excluded,
    )


def apply_transform(d: Dataset, transform: str) -> Dataset:
    """A new dataset with transformed responses; the transform is recorded on
    the dataset so results can be mapped back to the original scale."""
    if transform not in TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}; one of {TRANSFORMS}")
    if transform == "none":
        return d
    y = d.responses
    if (y <= 0).any():
        raise ValidationError(f"transform {transform!r} requires strictly positive responses")
    forward, _, name = _MAPS[transform]
    return Dataset(
        layout=d.layout,
        codes=d.codes,
        responses=forward(y),
        response_name=name.format(d.response_name),
        transform=transform,
    )


def back_transform(values, transform: str):
    """Map transformed-scale values back to the raw response scale."""
    if transform not in _MAPS:
        raise ValidationError(f"unknown transform {transform!r}")
    out = _MAPS[transform][1](np.asarray(values, dtype=float))
    return float(out) if np.isscalar(values) else out
