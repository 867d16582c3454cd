"""Shared fixtures: reference-cohort layouts and small synthetic datasets."""

import numpy as np
import pytest

from losanova import CellTable, FactorLayout, build_dataset
from losanova.synth import REFERENCE_CELL_COUNTS, default_layout


@pytest.fixture
def cohort_layout():
    """gender(2) x season(4) x age_group(5), the data-schema order."""
    return default_layout()


@pytest.fixture
def anova_layout():
    """age_group(5) x season(4) x gender(2), the between-subjects-table order."""
    return FactorLayout(
        [
            ("age_group", ("1", "2", "3", "4", "5")),
            ("season", ("spring", "summer", "autumn", "winter")),
            ("gender", ("male", "female")),
        ]
    )


@pytest.fixture
def reference_counts():
    return REFERENCE_CELL_COUNTS


def random_dataset(layout, n, seed, effects=None, sd=1.0, positive_shift=None,
                   min_per_cell=0):
    """Unbalanced random dataset with optional additive cell effects.

    ``min_per_cell`` seeds that many observations into every cell first, so
    full-factorial designs stay estimable.
    """
    rng = np.random.default_rng(seed)
    shape = layout.shape
    cells = []
    for cell in layout.cells():
        cells.extend([cell] * min_per_cell)
    while len(cells) < n:
        cells.append(tuple(int(rng.integers(k)) for k in shape))
    rows = []
    for cell in cells[:n]:
        mu = effects(cell) if effects is not None else 0.0
        y = rng.normal(mu, sd)
        rows.append((layout.cell_names(cell), y))
    if positive_shift is None:
        lowest = min(y for _, y in rows)
        positive_shift = max(0.0, 1.0 - lowest)
    rows = [(names, y + positive_shift) for names, y in rows]
    return build_dataset(layout, rows)


def count_table(layout, cell_counts):
    """Cell table of the given counts (means and m2 zero), from a
    {level-name tuple: count} mapping; unlisted cells are empty."""
    counts = np.zeros(layout.shape, dtype=np.int64)
    for names, count in cell_counts.items():
        counts[layout.resolve_cell(names)] = count
    zeros = np.zeros(layout.n_cells)
    return CellTable(layout, counts.ravel(), zeros, zeros)


def published_margin(factor, counts, means):
    """One-factor cell table of published per-level counts and means (m2
    zero), from {level: count} and {level: mean} mappings, in the counts'
    level order."""
    levels = tuple(counts)
    zeros = np.zeros(len(levels))
    return CellTable(FactorLayout([(factor, levels)]), [counts[lv] for lv in levels],
                     [means[lv] for lv in levels], zeros)


@pytest.fixture
def two_by_two():
    return FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2"))])


def level_matrix(d):
    """(n, n_factors) level-index matrix of dataset ``d`` in observation order,
    read-only."""
    levels = np.stack(np.unravel_index(d.codes, d.layout.shape), axis=1)
    levels.setflags(write=False)
    return levels


def effect_rows(table):
    """The effect rows of an ANOVA table: every row but the model, intercept,
    error and total ones."""
    skip = {"Corrected Model", "Intercept", "Error", "Total", "Corrected Total"}
    return tuple(r for r in table.rows if r.source not in skip)
