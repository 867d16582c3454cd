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
            array = np.array(getattr(self, name), dtype=dtype)
            if array.shape != (self.layout.n_cells,):
                raise ValidationError(f"cell {name} has shape {array.shape}, not one per cell")
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_columns(
        cls, layout: FactorLayout, codes: np.ndarray, responses: np.ndarray
    ) -> "CellTable":
        """Cell moments of coded responses, computed two-pass: the means
        first, each corrected by the mean of its responses' deviations from
        it (so a cell of equal responses has exactly their value as its
        mean), then the squared deviations from the means. Responses too
        large to square give an infinite or NaN moment, without a warning;
        the analyses that need the moments check them."""
        n_cells = layout.n_cells
        counts = np.bincount(codes, minlength=n_cells)
        with np.errstate(over="ignore", invalid="ignore"):
            means = _cell_means(codes, responses, counts)
            m2 = np.bincount(codes, weights=(responses - means[codes]) ** 2, minlength=n_cells)
        return cls(layout, counts, means, m2)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def margin(self, *factors: int | str) -> "CellTable":
        """The table pooled over every factor not listed, on the layout of the
        listed factors in the order given.

        Each cell counts as a weighted observation of its parent cell: counts
        and count-weighted means add up, the means get ``from_columns``'
        correction pass, and m2 pools as sum(m2_c) + sum(n_c * (mean_c -
        mean)^2) (Chan, Golub & LeVeque, Am. Stat. 37, 1983).
        """
        if not factors:
            raise ValidationError("a margin needs at least one factor")
        keep = [self.layout.factor_index(f) for f in factors]
        if len(set(keep)) != len(keep):
            raise ValidationError(f"duplicate factor in margin {factors!r}")
        layout = FactorLayout(self.layout.factors[i] for i in keep)
        levels = np.unravel_index(np.arange(self.layout.n_cells), self.layout.shape)
        parent = np.ravel_multi_index([levels[i] for i in keep], layout.shape)
        n_cells = layout.n_cells
        counts = np.bincount(parent, weights=self.counts, minlength=n_cells)
        with np.errstate(over="ignore", invalid="ignore"):
            means = _cell_means(parent, self.means, counts, self.counts)
            between = self.counts * (self.means - means[parent]) ** 2
            m2 = np.bincount(parent, weights=self.m2 + between, minlength=n_cells)
        return CellTable(layout, counts, means, m2)


def _cell_means(codes, values, counts, weights=None) -> np.ndarray:
    """Each cell's (``weights``-weighted) mean of ``values``: the sum over the
    count, plus the mean of the values' deviations from that. Empty cells get
    0, and a cell whose deviations sum to a non-finite value keeps its sum
    over its count."""
    def total(v):
        return np.bincount(codes, weights=v if weights is None else weights * v,
                           minlength=counts.size)

    occupied = counts > 0
    means = np.divide(total(values), counts, out=np.zeros(counts.size), where=occupied)
    gaps = total(values - means[codes])
    np.add(means, gaps / np.where(occupied, counts, 1), out=means,
           where=occupied & np.isfinite(gaps))
    return means


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable cohort; the unit every analysis consumes.

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
        codes = np.array(self.codes, dtype=np.intp)
        responses = np.array(self.responses, dtype=float)
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
        for array in (codes, responses):
            array.setflags(write=False)
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
