"""Domain model shared by every analysis: factors, datasets, per-cell
statistics, and frequency tables with marginal totals.

A dataset is columnar: one flat cell-code array and one response array, both
read-only numpy vectors. Analyses, ingest, transforms and the synthetic
generator work on those columns; ``Observation`` objects exist only as the
elements of the on-demand ``Dataset.observations`` view.

All types are immutable after construction and all operations are pure, so
they can be shared freely across threads or processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(levels) for _, levels in self.factors)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    def levels(self, factor: int | str) -> tuple[str, ...]:
        return self.factors[self.factor_index(factor)][1]

    def n_levels(self, factor: int | str) -> int:
        return len(self.levels(factor))

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

    def cell_label(self, cell: Sequence[int]) -> str:
        return ", ".join(
            f"{name}={self.levels(i)[li]}" for i, (name, li) in enumerate(zip(self.names, cell))
        )

    def resolve_cell(self, level_names: Sequence[str]) -> tuple[int, ...]:
        if len(level_names) != self.n_factors:
            raise ValidationError(
                f"expected {self.n_factors} level names, got {len(level_names)}"
            )
        return tuple(self.level_index(i, lv) for i, lv in enumerate(level_names))


@dataclass(frozen=True)
class Observation:
    """One measured response at a particular factor-level combination; the
    element type of ``Dataset.observations``."""

    level_indices: tuple[int, ...]
    response: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable cohort; the unit every analysis consumes.

    A dataset is two read-only columns in observation order: ``codes``, the
    flat cell index of each observation (layout cell order), and
    ``responses``. The constructor copies both.

    ``transform`` records the scale of the responses ("none" for raw data);
    it is set by ``diagnostics.apply_transform`` so results can be mapped back.
    """

    layout: FactorLayout
    codes: np.ndarray
    responses: np.ndarray
    response_name: str = "response"
    transform: str = "none"

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
        levels = np.stack(np.unravel_index(codes, self.layout.shape), axis=1)
        for array in (codes, responses, levels):
            array.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "_levels", levels)

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def level_matrix(self) -> np.ndarray:
        """(n, n_factors) level-index matrix in observation order (read-only)."""
        return self._levels

    def cell_codes(self) -> np.ndarray:
        """Flat cell index per observation, matching layout cell order."""
        return self.codes

    @property
    def observations(self) -> tuple[Observation, ...]:
        """One ``Observation`` per row, built on each access; the analyses
        read the columns instead."""
        return tuple(
            map(Observation, map(tuple, self._levels.tolist()), self.responses.tolist())
        )


@dataclass(frozen=True)
class CellStats:
    """Count, mean and sample standard deviation (n-1 divisor) of one cell.

    ``sd`` is None when the cell has fewer than two observations.
    """

    cell: tuple[int, ...]
    n: int
    mean: float
    sd: float | None


@dataclass(frozen=True)
class FrequencyTable:
    """Cell counts plus all marginal totals for a layout."""

    layout: FactorLayout
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != self.layout.shape:
            raise ValidationError(
                f"counts shape {counts.shape} does not match layout shape {self.layout.shape}"
            )
        if (counts < 0).any():
            raise ValidationError("cell counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_cell_counts(
        cls, layout: FactorLayout, cell_counts: dict[tuple[str, ...], int]
    ) -> "FrequencyTable":
        """Build directly from a {level-name tuple: count} mapping."""
        counts = np.zeros(layout.shape, dtype=np.int64)
        for names, count in cell_counts.items():
            counts[layout.resolve_cell(names)] = count
        return cls(layout, counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def count(self, level_names: Sequence[str]) -> int:
        return int(self.counts[self.layout.resolve_cell(level_names)])

    def marginal(self, *factors: int | str) -> dict[tuple[str, ...], int]:
        """Totals over all factors not listed, keyed by level-name tuples."""
        keep = [self.layout.factor_index(f) for f in factors]
        if len(set(keep)) != len(keep):
            raise ValidationError("duplicate factor in marginal request")
        drop = tuple(i for i in range(self.layout.n_factors) if i not in keep)
        summed = self.counts.sum(axis=drop) if drop else self.counts
        out: dict[tuple[str, ...], int] = {}
        for idx in itertools.product(*(range(self.layout.n_levels(f)) for f in keep)):
            key = tuple(self.layout.levels(f)[i] for f, i in zip(keep, idx))
            out[key] = int(summed[idx])
        return out


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


def cell_stats(d: Dataset) -> list[CellStats]:
    """Per-cell count, mean and sample sd for every nonempty cell.

    Means and sds use a two-pass computation. Cells appear in layout order;
    empty cells are simply absent.
    """
    codes = d.cell_codes()
    n_cells = d.layout.n_cells
    counts = np.bincount(codes, minlength=n_cells)
    sums = np.bincount(codes, weights=d.responses, minlength=n_cells)
    with np.errstate(invalid="ignore"):
        means = sums / counts
    sq = np.bincount(codes, weights=(d.responses - means[codes]) ** 2, minlength=n_cells)

    out = []
    for flat, cell in enumerate(d.layout.cells()):
        n = int(counts[flat])
        if n == 0:
            continue
        sd = math.sqrt(sq[flat] / (n - 1)) if n >= 2 else None
        out.append(CellStats(cell=cell, n=n, mean=float(means[flat]), sd=sd))
    return out


def frequency_table(d: Dataset) -> FrequencyTable:
    """Cell occupancy counts of a dataset, with marginals available on demand."""
    counts = np.bincount(d.cell_codes(), minlength=d.layout.n_cells)
    return FrequencyTable(d.layout, counts.reshape(d.layout.shape))
