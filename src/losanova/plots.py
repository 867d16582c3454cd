"""Deterministic SVG renderings of the diagnostic series.

The emitter is dependency-free and writes no timestamps or other
run-varying content, so identical series produce byte-identical files.
The series' ``kind`` picks the picture, which names its own axes on the
response scale it is given: a histogram (bars), a residual spread (residuals
against fitted values), P-P data (probability-probability points with the
identity reference line), or homogeneous subsets (per-level means by subset).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError

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

    def __init__(self, x_range, y_range, xlabel, ylabel):
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.elements: list[str] = []
        self._decorate(xlabel, ylabel)

    def px(self, x: float) -> float:
        span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        return _MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * span

    def py(self, y: float) -> float:
        span = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        return _HEIGHT - _MARGIN_BOTTOM - (y - self.y_lo) / (self.y_hi - self.y_lo) * span

    def _decorate(self, xlabel, ylabel):
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
        self.elements.append(
            f'<text x="{_num((left + right) / 2)}" y="{_num(_HEIGHT - 12)}" '
            f'font-size="12" text-anchor="middle">{_esc(xlabel)}</text>'
        )
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


def _add_points(canvas: _Canvas, x: np.ndarray, y: np.ndarray, template: str) -> None:
    """``template % (px, py)`` per point, thinned to at most ``_MAX_POINTS``, in one
    element joined as ``to_svg`` joins elements. numpy's elementwise arithmetic
    rounds as per-point Python floats would, and ``%.2f`` formats as ``_num`` does."""
    n = len(x)
    if n > _MAX_POINTS:
        idx = np.rint(np.arange(_MAX_POINTS) * (n - 1) / (_MAX_POINTS - 1)).astype(np.intp)
        x, y = x[idx], y[idx]
    xy = np.empty(2 * len(x))
    xy[0::2], xy[1::2] = canvas.px(x), canvas.py(y)
    canvas.elements.append("\n  ".join([template] * len(x)) % tuple(xy.tolist()))


def _histogram_svg(h, response: str) -> str:
    if not h.counts:
        raise ValidationError("empty histogram: nothing to plot")
    canvas = _Canvas((h.edges[0], h.edges[-1]), (0.0, max(h.counts) or 1.0),
                     f"residual ({response})", "count")
    for i, count in enumerate(h.counts):
        x0, x1 = canvas.px(h.edges[i]), canvas.px(h.edges[i + 1])
        y0, y1 = canvas.py(count), canvas.py(0.0)
        canvas.elements.append(
            f'<rect x="{_num(x0)}" y="{_num(y0)}" width="{_num(x1 - x0)}" '
            f'height="{_num(y1 - y0)}" fill="#4878d0" stroke="#333" '
            f'stroke-width="0.5" class="bar" data-count="{count}"/>'
        )
    return canvas.to_svg()


def _spread_svg(spread, response: str) -> str:
    x, y = spread.fitted, spread.residuals
    if len(x) == 0:
        raise ValidationError("empty series: nothing to plot")
    canvas = _Canvas(
        (float(np.min(x)), float(np.max(x))), (float(np.min(y)), float(np.max(y))),
        f"fitted {response}", "residual",
    )
    if canvas.y_lo < 0.0 < canvas.y_hi:
        yp = canvas.py(0.0)
        canvas.elements.append(
            f'<line x1="{_num(canvas.px(canvas.x_lo))}" y1="{_num(yp)}" '
            f'x2="{_num(canvas.px(canvas.x_hi))}" y2="{_num(yp)}" '
            f'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    _add_points(canvas, x, y, '<circle cx="%.2f" cy="%.2f" '
                'r="2.5" fill="#4878d0" fill-opacity="0.6" class="pt"/>')
    return canvas.to_svg()


def _pp_svg(pp, response: str) -> str:
    if len(pp.empirical) == 0:
        raise ValidationError("empty series: nothing to plot")
    canvas = _Canvas((0.0, 1.0), (0.0, 1.0),
                     "observed cumulative probability", "expected normal probability")
    canvas.elements.append(
        f'<line x1="{_num(canvas.px(0.0))}" y1="{_num(canvas.py(0.0))}" '
        f'x2="{_num(canvas.px(1.0))}" y2="{_num(canvas.py(1.0))}" '
        f'stroke="#333" stroke-width="1" class="identity"/>'
    )
    _add_points(canvas, pp.empirical, pp.theoretical, '<circle cx="%.2f" cy="%.2f" '
                'r="2.0" fill="#d65f5f" fill-opacity="0.7" class="pt"/>')
    return canvas.to_svg()


def _subset_means_svg(h, response: str) -> str:
    if not h.subsets:
        raise ValidationError("empty series: nothing to plot")
    means = list(h.level_means.values())
    pad = (max(means) - min(means)) * 0.1 or 0.5
    canvas = _Canvas((-0.5, len(means) - 0.5), (min(means) - pad, max(means) + pad),
                     h.factor, f"mean {response}")
    for i, (lv, m) in enumerate(h.level_means.items()):
        si = next(si for si, s in enumerate(h.subsets) if lv in s.levels)
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


_RENDERERS = {
    "histogram": _histogram_svg,
    "residual_vs_fitted": _spread_svg,
    "pp": _pp_svg,
    "subsets": _subset_means_svg,
}


def render_plot(series, path: str | Path, response: str = "response") -> None:
    """Write one SVG of a series whose ``kind`` is that of a HistogramData,
    ResidualSpread, PPPlotData or HomogeneousSubsets, its axes labelled in
    units of ``response``, the name of the scale the series is on. Raises
    (writing nothing) for any other object or an empty series."""
    render = _RENDERERS.get(getattr(series, "kind", None))
    if render is None:
        raise ValidationError(f"cannot plot a {type(series).__name__}")
    Path(path).write_text(render(series, response), encoding="utf-8")
