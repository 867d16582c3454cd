"""Deterministic SVG renderings of the diagnostic series.

The emitter is dependency-free and writes no timestamps or other
run-varying content, so identical series produce byte-identical files.
Supported kinds: histogram (bars), scatter (residual vs fitted), pp
(probability-probability points with the identity reference line), and
subset-means (per-level means grouped by homogeneous subset).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .diagnostics import HistogramData, PPPlotData, ResidualSpread
from .errors import ValidationError
from .posthoc import HomogeneousSubsets

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 55.0

# point clouds are thinned (deterministically, evenly strided) above this
# count; statistics are always computed on full data upstream of plotting
_MAX_POINTS = 5000

_SUBSET_COLORS = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
                  "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2")


def _num(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    """Linear data-to-pixel mapping plus an SVG element buffer."""

    def __init__(self, x_range, y_range, title, xlabel, ylabel):
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.elements: list[str] = []
        self._decorate(title, xlabel, ylabel)

    def px(self, x: float) -> float:
        span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        return _MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * span

    def py(self, y: float) -> float:
        span = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        return _HEIGHT - _MARGIN_BOTTOM - (y - self.y_lo) / (self.y_hi - self.y_lo) * span

    def _decorate(self, title, xlabel, ylabel):
        left, right = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
        top, bottom = _MARGIN_TOP, _HEIGHT - _MARGIN_BOTTOM
        self.elements.append(
            f'<rect x="{_num(left)}" y="{_num(top)}" width="{_num(right - left)}" '
            f'height="{_num(bottom - top)}" fill="none" stroke="#333" stroke-width="1" '
            f'class="frame"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = self.x_lo + frac * (self.x_hi - self.x_lo)
            y = self.y_lo + frac * (self.y_hi - self.y_lo)
            xp, yp = self.px(x), self.py(y)
            self.elements.append(
                f'<line x1="{_num(xp)}" y1="{_num(bottom)}" x2="{_num(xp)}" '
                f'y2="{_num(bottom + 5)}" stroke="#333" stroke-width="1"/>'
            )
            self.elements.append(
                f'<text x="{_num(xp)}" y="{_num(bottom + 18)}" font-size="11" '
                f'text-anchor="middle">{x:.4g}</text>'
            )
            self.elements.append(
                f'<line x1="{_num(left - 5)}" y1="{_num(yp)}" x2="{_num(left)}" '
                f'y2="{_num(yp)}" stroke="#333" stroke-width="1"/>'
            )
            self.elements.append(
                f'<text x="{_num(left - 8)}" y="{_num(yp + 4)}" font-size="11" '
                f'text-anchor="end">{y:.4g}</text>'
            )
        if title:
            self.elements.append(
                f'<text x="{_num(_WIDTH / 2)}" y="22" font-size="14" '
                f'text-anchor="middle">{_esc(title)}</text>'
            )
        if xlabel:
            self.elements.append(
                f'<text x="{_num((left + right) / 2)}" y="{_num(_HEIGHT - 12)}" '
                f'font-size="12" text-anchor="middle">{_esc(xlabel)}</text>'
            )
        if ylabel:
            cx, cy = 18.0, (top + bottom) / 2
            self.elements.append(
                f'<text x="{_num(cx)}" y="{_num(cy)}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 {_num(cx)} {_num(cy)})">{_esc(ylabel)}</text>'
            )

    def to_svg(self) -> str:
        body = "\n".join(f"  {el}" for el in self.elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
            f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">\n'
            f'{body}\n</svg>\n'
        )


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _thin(*series: np.ndarray) -> tuple[list[float], ...]:
    # as Python floats: per-point arithmetic on numpy scalars is several times slower
    n = len(series[0])
    if n > _MAX_POINTS:
        idx = [round(i * (n - 1) / (_MAX_POINTS - 1)) for i in range(_MAX_POINTS)]
        series = tuple(s[idx] for s in series)
    return tuple(s.tolist() for s in series)


def _histogram_svg(h: HistogramData, title, xlabel, ylabel) -> str:
    if not h.counts:
        raise ValidationError("empty histogram: nothing to plot")
    canvas = _Canvas(
        (h.edges[0], h.edges[-1]), (0.0, max(h.counts) or 1.0), title, xlabel, ylabel
    )
    for i, count in enumerate(h.counts):
        x0, x1 = canvas.px(h.edges[i]), canvas.px(h.edges[i + 1])
        y0, y1 = canvas.py(count), canvas.py(0.0)
        canvas.elements.append(
            f'<rect x="{_num(x0)}" y="{_num(y0)}" width="{_num(x1 - x0)}" '
            f'height="{_num(y1 - y0)}" fill="#4878d0" stroke="#333" '
            f'stroke-width="0.5" class="bar" data-count="{count}"/>'
        )
    return canvas.to_svg()


def _scatter_svg(x: np.ndarray, y: np.ndarray, title, xlabel, ylabel,
                 zero_line: bool = False) -> str:
    if len(x) == 0:
        raise ValidationError("empty series: nothing to plot")
    canvas = _Canvas(
        (float(np.min(x)), float(np.max(x))), (float(np.min(y)), float(np.max(y))),
        title, xlabel, ylabel,
    )
    x, y = _thin(x, y)
    if zero_line and canvas.y_lo < 0.0 < canvas.y_hi:
        yp = canvas.py(0.0)
        canvas.elements.append(
            f'<line x1="{_num(canvas.px(canvas.x_lo))}" y1="{_num(yp)}" '
            f'x2="{_num(canvas.px(canvas.x_hi))}" y2="{_num(yp)}" '
            f'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for xi, yi in zip(x, y):
        canvas.elements.append(
            f'<circle cx="{_num(canvas.px(xi))}" cy="{_num(canvas.py(yi))}" '
            f'r="2.5" fill="#4878d0" fill-opacity="0.6" class="pt"/>'
        )
    return canvas.to_svg()


def _pp_svg(pp: PPPlotData, title, xlabel, ylabel) -> str:
    if len(pp.empirical) == 0:
        raise ValidationError("empty series: nothing to plot")
    canvas = _Canvas((0.0, 1.0), (0.0, 1.0), title, xlabel, ylabel)
    canvas.elements.append(
        f'<line x1="{_num(canvas.px(0.0))}" y1="{_num(canvas.py(0.0))}" '
        f'x2="{_num(canvas.px(1.0))}" y2="{_num(canvas.py(1.0))}" '
        f'stroke="#333" stroke-width="1" class="identity"/>'
    )
    empirical, theoretical = _thin(pp.empirical, pp.theoretical)
    for e, t in zip(empirical, theoretical):
        canvas.elements.append(
            f'<circle cx="{_num(canvas.px(e))}" cy="{_num(canvas.py(t))}" '
            f'r="2.0" fill="#d65f5f" fill-opacity="0.7" class="pt"/>'
        )
    return canvas.to_svg()


def _subset_means_svg(h: HomogeneousSubsets, title, xlabel, ylabel) -> str:
    if not h.subsets:
        raise ValidationError("empty series: nothing to plot")
    levels: list[tuple[str, float, int]] = []
    for si, s in enumerate(h.subsets):
        for lv, m in zip(s.levels, s.means):
            if not any(lv == seen for seen, _, _ in levels):
                levels.append((lv, m, si))
    means = [m for _, m, _ in levels]
    pad = (max(means) - min(means)) * 0.1 or 0.5
    canvas = _Canvas(
        (-0.5, len(levels) - 0.5), (min(means) - pad, max(means) + pad),
        title, xlabel, ylabel,
    )
    for i, (lv, m, si) in enumerate(levels):
        color = _SUBSET_COLORS[si % len(_SUBSET_COLORS)]
        canvas.elements.append(
            f'<circle cx="{_num(canvas.px(i))}" cy="{_num(canvas.py(m))}" r="5" '
            f'fill="{color}" class="mean" data-level="{_esc(lv)}" data-subset="{si + 1}"/>'
        )
        canvas.elements.append(
            f'<text x="{_num(canvas.px(i))}" y="{_num(_HEIGHT - _MARGIN_BOTTOM + 32)}" '
            f'font-size="11" text-anchor="middle">{_esc(lv)}</text>'
        )
    return canvas.to_svg()


def render_plot(series, kind: str, path: str | Path, title: str = "",
                xlabel: str = "", ylabel: str = "") -> None:
    """Write one SVG; raises (writing nothing) when the series is empty."""
    if kind == "histogram":
        if not isinstance(series, HistogramData):
            raise ValidationError("histogram plots take HistogramData")
        svg = _histogram_svg(series, title, xlabel, ylabel)
    elif kind == "scatter":
        if isinstance(series, ResidualSpread):
            svg = _scatter_svg(series.fitted, series.residuals, title, xlabel, ylabel,
                               zero_line=True)
        else:
            x, y = (np.asarray(s, dtype=float) for s in series)
            svg = _scatter_svg(x, y, title, xlabel, ylabel)
    elif kind == "pp":
        if not isinstance(series, PPPlotData):
            raise ValidationError("pp plots take PPPlotData")
        svg = _pp_svg(series, title, xlabel, ylabel)
    elif kind == "subset-means":
        if not isinstance(series, HomogeneousSubsets):
            raise ValidationError("subset-means plots take HomogeneousSubsets")
        svg = _subset_means_svg(series, title, xlabel, ylabel)
    else:
        raise ValidationError(
            f"unknown plot kind {kind!r} (histogram/scatter/pp/subset-means)"
        )
    Path(path).write_text(svg, encoding="utf-8")
