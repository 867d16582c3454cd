"""Residual analysis and variance-stabilizing transform selection.

The transform chooser regresses log10(cell sd) on log10(cell mean). A power
law sd = c * mean^alpha shows up there as a straight line with slope alpha,
and the slope, snapped to the nearest of {0, 0.5, 1, 1.5, 2}, picks the
classical variance-stabilizing transform (none, square root, log, reciprocal
square root, reciprocal). The fit includes an intercept -- the
proportionality constant c -- but the through-origin slope is also reported
for comparison with conventions that omit it.

``residual_diagnostics`` computes every residual series that the report
draws and ``diagnose`` prints; ``residual_histogram``, ``residual_vs_fitted``
and ``pp_plot`` each build one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distributions import normal_cdf
from .errors import ValidationError
from .model import CellTable, Dataset, frozen

# map and response-name pattern of each transform
_MAPS = {
    "none": (lambda y: y, "{}"),
    "square_root": (np.sqrt, "sqrt({})"),
    "logarithmic": (np.log10, "log10({})"),
    "reciprocal_square_root": (lambda y: 1.0 / np.sqrt(y), "1/sqrt({})"),
    "reciprocal": (lambda y: 1.0 / y, "1/({})"),
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

    kind: ClassVar[str] = "histogram"
    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return int(sum(self.counts))


@dataclass(frozen=True, eq=False)
class PPPlotData:
    """Empirical vs theoretical normal probabilities of sorted residuals, as
    read-only float64 arrays."""

    kind: ClassVar[str] = "pp"
    empirical: np.ndarray
    theoretical: np.ndarray
    max_abs_deviation: float

    def __post_init__(self):
        object.__setattr__(self, "empirical", frozen(self.empirical))
        object.__setattr__(self, "theoretical", frozen(self.theoretical))


@dataclass(frozen=True, eq=False)
class ResidualSpread:
    """Residuals paired with fitted values, plus a variance-funnel summary.

    ``fitted`` and ``residuals`` are read-only float64 arrays ordered by
    fitted value. ``funnel_ratio`` is the residual sd in the top fitted-value
    quartile over the bottom quartile; None when either group is degenerate
    or its sd overflows.
    """

    kind: ClassVar[str] = "residual_vs_fitted"
    fitted: np.ndarray
    residuals: np.ndarray
    funnel_ratio: float | None

    def __post_init__(self):
        object.__setattr__(self, "fitted", frozen(self.fitted))
        object.__setattr__(self, "residuals", frozen(self.residuals))


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


def residuals(d: Dataset) -> np.ndarray:
    """Observed responses minus their cell means, in observation order: the
    residuals of the full factorial model, whose fitted values are the means."""
    return d.responses - d.cells.means[d.codes]


def residual_diagnostics(raw: Dataset, analysis: Dataset) -> dict[str, object]:
    """Every residual series of the full factorial model, by name, in the
    report's order: the raw scale's histogram and spread against the fitted
    values, then the analysis scale's histogram, spread and normal P-P plot.
    Without a transform (``raw is analysis``) there is one scale, and only
    the last three. The P-P plot, drawn from the residuals in observation
    order, is None when they have no spread."""
    scales = [("", analysis)] if raw is analysis else [("raw_", raw), ("", analysis)]
    series: dict[str, object] = {}
    for prefix, d in scales:
        e = residuals(d)
        series[f"{prefix}residual_histogram"] = residual_histogram(e)
        series[f"{prefix}residual_vs_fitted"] = residual_vs_fitted(e, d.codes, d.cells.means)
    try:
        series["pp_plot"] = pp_plot(e)
    except ValidationError:  # zero variance: no P-P plot
        series["pp_plot"] = None
    return series


def residual_histogram(e: np.ndarray) -> HistogramData:
    """Equal-width histogram spanning [min, max], with ceil(1 + log2 N) bins
    (Sturges' rule)."""
    e = np.asarray(e, dtype=float)
    if e.size == 0:
        raise ValidationError("no residuals to bin")
    lo, hi = float(e.min()), float(e.max())
    if lo == hi:
        # constant residuals: one unit-width bin centered on the value
        edges = np.array([lo - 0.5, lo + 0.5])
        counts = np.array([e.size])
    else:
        bins = math.ceil(1.0 + math.log2(e.size))
        counts, edges = np.histogram(e, bins=bins, range=(lo, hi))
    return HistogramData(tuple(float(b) for b in edges), tuple(int(c) for c in counts))


def residual_vs_fitted(e: np.ndarray, codes: np.ndarray, means: np.ndarray) -> ResidualSpread:
    """Residuals against the fitted values ``means[codes]``, stably ordered by
    fitted value: by the rank of each cell mean, a small integer that sorts fast.

    The funnel statistic compares residual spread between the top and bottom
    fitted-value quartiles; a ratio well above 1 is the increasing-variance
    signature that motivates a variance-stabilizing transform. It is None
    when the bottom quartile has no spread.
    """
    e, codes, means = np.asarray(e, dtype=float), np.asarray(codes), np.asarray(means, dtype=float)
    if e.shape != codes.shape or e.ndim != 1:
        raise ValidationError("residuals and fitted values must be equal-length vectors")
    if e.size == 0:
        raise ValidationError("no residuals")
    _, rank = np.unique(means, return_inverse=True)
    order = np.argsort(rank.astype(np.min_scalar_type(means.size - 1))[codes], kind="stable")
    fitted = means[codes[order]]

    funnel = None
    if fitted[0] != fitted[-1]:
        q1, q3 = np.percentile(fitted, [25.0, 75.0])
        # the quartile groups in observation order, as the sd sums them
        low = e[(means <= q1)[codes]]
        high = e[(means >= q3)[codes]]
        if low.size >= 2 and high.size >= 2:
            # huge finite residuals overflow in the squares; no ratio then
            with np.errstate(over="ignore", invalid="ignore"):
                sd_low = float(low.std(ddof=1))
                sd_high = float(high.std(ddof=1))
            if sd_low > 0 and math.isfinite(sd_low) and math.isfinite(sd_high):
                funnel = sd_high / sd_low
    return ResidualSpread(fitted=fitted, residuals=e[order], funnel_ratio=funnel)


def pp_plot(e: np.ndarray) -> PPPlotData:
    """Normal P-P coordinates of the residuals ``e``.

    Residuals are standardized by their own mean and (population) sd; the
    empirical cumulative proportion (i - 0.5)/N is paired with the normal CDF
    at the i-th sorted standardized residual. ``max_abs_deviation`` is the
    largest gap between the two coordinates, a Kolmogorov-style summary.
    Residuals with no spread raise ``ValidationError``.
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
        flat_means = mean[(n >= 2) & (sd == 0)]
        underflow = flat_means.size and ((flat_means > 0) & (flat_means < 2.0**-511)).all()
        raise ValidationError(
            f"need at least 3 cells with n >= 2, positive mean and sd > 0; got {n_usable}"
            + ("; every cell with sd = 0 has a mean below 2**-511, where the responses' "
               "squared deviations underflow: use --transform log10 or rescale the response"
               if underflow else "")
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
    """A new dataset with transformed responses and a response name that
    says so, e.g. "log10(los)"."""
    if transform not in TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}; one of {TRANSFORMS}")
    if transform == "none":
        return d
    y = d.responses
    if (y <= 0).any():
        raise ValidationError(f"transform {transform!r} requires strictly positive responses")
    forward, name = _MAPS[transform]
    return Dataset(
        layout=d.layout,
        codes=d.codes,
        responses=forward(y),
        response_name=name.format(d.response_name),
    )
