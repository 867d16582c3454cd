"""Domain model shared by every analysis: factor layouts, datasets and their
per-cell moments.

A dataset is columnar: one flat cell-code array and one response array, both
read-only numpy vectors, plus its ``CellTable`` of per-cell counts, means and
within-cell sums of squares. Every analysis reads the cell table -- totals
over some factors come from ``CellTable.margin`` -- and only the residual
diagnostics go back to the columns.

All types are immutable after construction and all operations are pure, so
they can be shared freely across threads or processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError


def frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as a ``dtype`` array."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class FactorLayout:
    """Named factors with ordered levels.

    Factor order is stable and determines cell indexing: cell ``(i, j, k)``
    refers to level ``i`` of the first factor, ``j`` of the second, and so on.
    """

    factors: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, factors: Iterable[tuple[str, Sequence[str]]]):
        normalized = tuple((str(name), tuple(str(lv) for lv in levels)) for name, levels in factors)
        if not normalized:
            raise ValidationError("a layout needs at least one factor")
        seen = set()
        for name, levels in normalized:
            if name in seen:
                raise ValidationError(f"duplicate factor name {name!r}")
            seen.add(name)
            if len(levels) < 2:
                raise ValidationError(f"factor {name!r} needs at least 2 levels")
            if len(set(levels)) != len(levels):
                raise ValidationError(f"factor {name!r} has duplicate level names")
        object.__setattr__(self, "factors", normalized)

    # cached in the instance dict, which eq, hash and repr do not read
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.factors)

    @cached_property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    def levels(self, factor: int | str) -> tuple[str, ...]:
        return self.factors[self.factor_index(factor)][1]

    def n_levels(self, factor: int | str) -> int:
        return self.shape[self.factor_index(factor)]

    def factor_index(self, factor: int | str) -> int:
        if isinstance(factor, int):
            if not 0 <= factor < self.n_factors:
                raise ValidationError(f"factor index {factor} out of range")
            return factor
        for i, (name, _) in enumerate(self.factors):
            if name == factor:
                return i
        raise ValidationError(f"unknown factor {factor!r}; known: {', '.join(self.names)}")

    def level_index(self, factor: int | str, level: str) -> int:
        fi = self.factor_index(factor)
        name, levels = self.factors[fi]
        try:
            return levels.index(level)
        except ValueError:
            raise ValidationError(
                f"unknown level {level!r} for factor {name!r}; known: {', '.join(levels)}"
            ) from None

    def cells(self) -> Iterator[tuple[int, ...]]:
        """All cell index tuples in layout (row-major) order."""
        return itertools.product(*(range(k) for k in self.shape))

    def cell_names(self, cell: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.levels(i)[li] for i, li in enumerate(cell))

    def resolve_cell(self, level_names: Sequence[str]) -> tuple[int, ...]:
        if len(level_names) != self.n_factors:
            raise ValidationError(
                f"expected {self.n_factors} level names, got {len(level_names)}"
            )
        return tuple(self.level_index(i, lv) for i, lv in enumerate(level_names))


@dataclass(frozen=True, eq=False)
class CellTable:
    """Per-cell moments of a dataset, as read-only arrays in layout cell order:
    the cell sizes, the cell means, and the within-cell sums of squared
    deviations from the mean. An empty cell has mean and ``m2`` 0, so count-
    weighted sums need no mask.
    """

    layout: FactorLayout
    counts: np.ndarray
    means: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        for name, dtype in (("counts", np.int64), ("means", float), ("m2", float)):
            array = frozen(getattr(self, name), dtype)
            if array.shape != (self.layout.n_cells,):
                raise ValidationError(f"cell {name} has shape {array.shape}, not one per cell")
            object.__setattr__(self, name, array)

    @classmethod
    def from_columns(
        cls, layout: FactorLayout, codes: np.ndarray, responses: np.ndarray
    ) -> "CellTable":
        """Cell moments of coded responses: ``_pool`` of one-observation rows."""
        return _pool(layout, codes, responses)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def margin(self, *factors: int | str) -> "CellTable":
        """The table pooled over every factor not listed, on the layout of the
        listed factors in the order given: ``_pool`` of its cells."""
        if not factors:
            raise ValidationError("a margin needs at least one factor")
        keep = [self.layout.factor_index(f) for f in factors]
        if len(set(keep)) != len(keep):
            raise ValidationError(f"duplicate factor in margin {factors!r}")
        layout = FactorLayout(self.layout.factors[i] for i in keep)
        levels = np.unravel_index(np.arange(self.layout.n_cells), self.layout.shape)
        parent = np.ravel_multi_index([levels[i] for i in keep], layout.shape)
        return _pool(layout, parent, self.means, self.counts, self.m2)


def _pool(layout: FactorLayout, groups, means, counts=None, m2=None) -> CellTable:
    """The cell table of rows pooled into the cells of ``layout``: row i joins
    cell ``groups[i]`` and holds ``counts[i]`` observations (1 when None) with
    mean ``means[i]`` and sum of squared deviations ``m2[i]`` (0 when None).

    Counts add. Each cell's mean is the count-weighted mean of its rows, plus
    the count-weighted mean of their deviations from it, so a cell of equal
    rows has exactly their value as its mean. Its m2 is sum(m2_i) + sum(n_i *
    (mean_i - mean)^2) (Chan, Golub & LeVeque, Am. Stat. 37, 1983). Empty
    cells get mean and m2 0. An overflowed sum is pooled again from rows scaled
    by 2^-k. Rows too large to square give an infinite or NaN m2, without a
    warning, and a cell whose deviations sum to a non-finite value keeps its
    first-pass mean; the analyses that need the moments check them.
    """
    n_cells = layout.n_cells

    def total(v):
        return np.bincount(groups, weights=v if counts is None else counts * v,
                           minlength=n_cells)

    pooled_counts = np.bincount(groups, weights=counts, minlength=n_cells)
    occupied = pooled_counts > 0
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = np.divide(total(means), pooled_counts, out=np.zeros(n_cells), where=occupied)
        huge = ~np.isfinite(pooled)
        if huge.any():  # an overflowed sum: pool again rows times 2^-k, 2^k >= 2 max(count)
            scale = 0.5 ** np.ceil(np.log2(2 * pooled_counts.max()))
            scaled = total(means * scale)[huge] / pooled_counts[huge]
            # finite rows have a finite mean, even where their scaled sum rounded up
            top = np.where(np.isfinite(scaled), np.finfo(float).max, np.inf)
            pooled[huge] = np.clip(scaled / scale, -top, top)
        gaps = total(means - pooled[groups])
        np.add(pooled, gaps / np.where(occupied, pooled_counts, 1), out=pooled,
               where=occupied & np.isfinite(gaps))
        between = (means - pooled[groups]) ** 2
        if counts is not None:
            between = counts * between
        pooled_m2 = np.bincount(groups, weights=between if m2 is None else m2 + between,
                                minlength=n_cells)
    return CellTable(layout, pooled_counts, pooled, pooled_m2)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable cohort: analyses read its ``cells``, diagnostics its columns.

    A dataset is two read-only columns in observation order: ``codes``, the
    flat cell index of each observation (layout cell order), and
    ``responses``. The constructor copies both and builds ``cells``, the
    dataset's ``CellTable``.
    """

    layout: FactorLayout
    codes: np.ndarray
    responses: np.ndarray
    response_name: str = "response"
    cells: CellTable = field(init=False, repr=False)

    def __post_init__(self):
        codes = frozen(self.codes, np.intp)
        responses = frozen(self.responses)
        if codes.ndim != 1 or codes.shape != responses.shape:
            raise ValidationError(
                f"codes and responses must be equal-length vectors, "
                f"got shapes {codes.shape} and {responses.shape}"
            )
        out_of_range = (codes < 0) | (codes >= self.layout.n_cells)
        if out_of_range.any():
            i = int(np.argmax(out_of_range))
            raise ValidationError(
                f"observation {i}: cell code {codes[i]} out of range for "
                f"{self.layout.n_cells} cells"
            )
        not_finite = ~np.isfinite(responses)
        if not_finite.any():
            raise ValidationError(
                f"observation {int(np.argmax(not_finite))}: response is not finite"
            )
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "cells", CellTable.from_columns(self.layout, codes, responses))

    @property
    def n(self) -> int:
        return len(self.codes)


def build_dataset(
    layout: FactorLayout,
    rows: Iterable[tuple[Sequence[str], float]],
    response_name: str = "response",
    raw_scale: bool = True,
) -> Dataset:
    """Build a Dataset from (level names, response) rows, preserving order.

    ``raw_scale`` marks the responses as raw measurements, which must be
    strictly positive (a later log transform would otherwise be undefined).
    """
    code_of = {layout.cell_names(cell): flat for flat, cell in enumerate(layout.cells())}
    codes = []
    responses = []
    for i, (level_names, response) in enumerate(rows):
        code = code_of.get(tuple(level_names))
        if code is None:
            code = int(np.ravel_multi_index(layout.resolve_cell(level_names), layout.shape))
        y = float(response)
        if not math.isfinite(y):
            raise ValidationError(f"row {i}: response {response!r} is not finite")
        if raw_scale and y <= 0:
            raise ValidationError(f"row {i}: raw-scale response must be > 0, got {y!r}")
        codes.append(code)
        responses.append(y)
    if not codes:
        raise ValidationError("empty input: no observations")
    return Dataset(layout, codes, responses, response_name=response_name)


# ``bench/run.py`` traces these two names; nothing in the package calls them.
def cell_stats(d: Dataset) -> CellTable:
    """The dataset's cell table, ``d.cells``."""
    return d.cells


def frequency_table(d: Dataset) -> CellTable:
    """The dataset's cell table, ``d.cells``."""
    return d.cells
