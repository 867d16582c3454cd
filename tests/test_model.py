"""Core domain model: layouts, datasets, cell tables and their margins."""

import copy
import math
import pickle

import numpy as np
import pytest

from losanova import (
    CellTable,
    Dataset,
    FactorLayout,
    ValidationError,
    build_dataset,
)
from losanova.synth import default_layout

from conftest import count_table, level_matrix, random_dataset


def _sds(table):
    """Sample sd of each cell with n >= 2 (NaN elsewhere)."""
    n = table.counts
    return np.sqrt(np.where(n >= 2, table.m2 / np.maximum(n - 1, 1), np.nan))


def _count(table, level_names):
    """Count of one cell, addressed by its level names."""
    layout = table.layout
    return int(table.counts[np.ravel_multi_index(layout.resolve_cell(level_names), layout.shape)])


def _margin_counts(table, *factors):
    """Margin counts keyed by level-name tuples, in the order the factors are given."""
    margin = table.margin(*factors)
    return {
        margin.layout.cell_names(cell): n
        for cell, n in zip(margin.layout.cells(), margin.counts.tolist())
    }


def test_layout_validation():
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("only",))])
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("x", "x"))])
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("x", "y")), ("a", ("u", "v"))])


def test_layout_cached_properties_are_invisible():
    def fresh():
        return FactorLayout([("season", ("spring", "summer", "autumn", "winter")),
                             ("gender", ("male", "female"))])

    used = fresh()
    assert (used.shape, used.n_cells, used.names) == ((4, 2), 8, ("season", "gender"))
    assert used.n_levels("gender") == 2 and used.n_levels(0) == 4
    for layout in (used, pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert layout == fresh() and fresh() == layout
        assert hash(layout) == hash(fresh())
        assert repr(layout) == repr(fresh())
        assert (layout.shape, layout.n_cells, layout.names) == ((4, 2), 8, ("season", "gender"))


def test_minimal_construction(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 2.0), (("a1", "b1"), 3.0)])
    assert d.n == 2
    assert d.responses.tolist() == [2.0, 3.0]


def test_unknown_level_rejected():
    layout = FactorLayout([("season", ("spring", "summer", "autumn", "winter"))])
    with pytest.raises(ValidationError, match="fall"):
        build_dataset(layout, [(("fall",), 1.0)])


def test_empty_and_bad_responses(two_by_two):
    with pytest.raises(ValidationError, match="empty"):
        build_dataset(two_by_two, [])
    with pytest.raises(ValidationError, match="finite"):
        build_dataset(two_by_two, [(("a1", "b1"), float("nan"))])
    with pytest.raises(ValidationError, match="> 0"):
        build_dataset(two_by_two, [(("a1", "b1"), 0.0)])
    # transformed-scale data may be nonpositive
    d = build_dataset(two_by_two, [(("a1", "b1"), -1.5)], raw_scale=False)
    assert d.responses[0] == -1.5


def test_order_preserved(two_by_two):
    rows = [(("a1", "b2"), 5.0), (("a2", "b1"), 1.0), (("a1", "b1"), 3.0)]
    d = build_dataset(two_by_two, rows)
    levels = level_matrix(d)
    for i, (names, y) in enumerate(rows):
        assert d.layout.cell_names(levels[i]) == names
        assert d.responses[i] == y


def test_cell_stats_constant_cell(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 2.0)] * 3)
    assert d.cells.counts.tolist() == [3, 0, 0, 0]
    assert d.cells.means[0] == 2.0
    assert _sds(d.cells)[0] == 0.0


def test_cell_stats_hand_computed(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 1.0), (("a1", "b1"), 3.0)])
    assert d.cells.counts.tolist() == [2, 0, 0, 0]
    assert d.cells.means[0] == pytest.approx(2.0)
    assert _sds(d.cells)[0] == pytest.approx(math.sqrt(2.0))


def test_cell_stats_singleton_has_no_sd(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 4.0)])
    assert d.cells.counts.tolist() == [1, 0, 0, 0]
    assert d.cells.m2[0] == 0.0 and math.isnan(_sds(d.cells)[0])


def test_cell_moments_of_huge_responses_overflow_without_warning(two_by_two):
    # finite responses whose squares overflow give a non-finite m2, not a
    # RuntimeWarning; an overflowed sum still gives the exact mean, and the
    # other cells keep their exact moments
    rows = [(("a1", "b1"), v) for v in (3.0, 5.0, 4.0, 1e200, 2e200)]
    rows += [(("a2", "b2"), v) for v in (1e308, 1.7e308)]
    rows += [(("a1", "b2"), v) for v in (1.0, 3.0)]
    cells = build_dataset(two_by_two, rows).cells
    assert cells.means[0] == pytest.approx(6e199) and math.isinf(cells.m2[0])
    assert cells.means[3] == 1.35e308 and not math.isfinite(cells.m2[3])
    assert (cells.means[1], cells.m2[1]) == (2.0, 2.0)
    margin = cells.margin("b")
    assert not np.isfinite(margin.m2).any()
    assert cells.margin("a").counts.tolist() == [7, 2]


@pytest.mark.parametrize("log10", [False, True])
def test_cells_of_equal_responses_have_exact_means(cohort_layout, log10):
    # 40 constant cells of 3 to 10^5 responses: each mean is the responses'
    # value, so the residuals and within-cell sums of squares are exactly 0
    rng = np.random.default_rng(8)
    sizes = np.geomspace(3, 1e5, cohort_layout.n_cells).astype(np.int64)
    values = rng.uniform(1.0, 60.0, cohort_layout.n_cells)
    if log10:
        values = np.log10(values)
    codes = np.repeat(np.arange(cohort_layout.n_cells), sizes)
    d = Dataset(cohort_layout, codes, values[codes])
    assert np.array_equal(d.cells.means, values)
    assert np.array_equal(d.cells.m2, np.zeros(cohort_layout.n_cells))
    assert np.array_equal(d.responses - d.cells.means[d.codes], np.zeros(d.n))


def test_cohort_layout_has_40_cells(cohort_layout):
    assert cohort_layout.n_cells == 40
    d = random_dataset(cohort_layout, 4000, seed=1)
    assert int((d.cells.counts > 0).sum()) == 40


def test_cell_means_reproduce_grand_mean(cohort_layout):
    d = random_dataset(cohort_layout, 500, seed=7)
    weighted = float((d.cells.counts * d.cells.means).sum()) / d.n
    assert weighted == pytest.approx(float(d.responses.mean()), rel=1e-10)


def test_frequency_single_observation(two_by_two):
    d = build_dataset(two_by_two, [(("a2", "b1"), 1.0)])
    assert d.cells.n == 1
    assert _margin_counts(d.cells, "a")[("a2",)] == 1
    assert _margin_counts(d.cells, "b")[("b1",)] == 1
    assert _count(d.cells, ("a2", "b1")) == 1


def test_frequency_random_recount(cohort_layout):
    d = random_dataset(cohort_layout, 100, seed=3)
    counts = d.cells.counts.reshape(cohort_layout.shape)
    # brute-force recount straight off the observations
    observed = level_matrix(d).tolist()
    for cell in cohort_layout.cells():
        expected = sum(1 for levels in observed if tuple(levels) == cell)
        assert counts[cell] == expected
    assert d.cells.n == 100


def test_reference_cohort_marginals(reference_counts):
    table = count_table(default_layout(), reference_counts)
    assert table.n == 82718
    gender = _margin_counts(table, "gender")
    assert gender[("male",)] == 46510
    assert gender[("female",)] == 36208
    assert _count(table, ("female", "winter", "1")) == 609
    assert int(table.counts.min()) == 609  # the smallest cell in the cohort
    season = _margin_counts(table, "season")
    assert season == {
        ("spring",): 21963, ("summer",): 21564, ("autumn",): 19374, ("winter",): 19817,
    }
    age = _margin_counts(table, "age_group")
    assert [age[(g,)] for g in "12345"] == [6433, 7875, 11064, 27890, 29456]


def test_marginal_consistency_property(cohort_layout):
    d = random_dataset(cohort_layout, 257, seed=11)
    for keep in [("gender",), ("season",), ("age_group",), ("gender", "season")]:
        marg = _margin_counts(d.cells, *keep)
        assert sum(marg.values()) == d.cells.n
    two_way = _margin_counts(d.cells, "gender", "age_group")
    one_way = _margin_counts(d.cells, "gender")
    for g in ("male", "female"):
        assert sum(v for (gg, _), v in two_way.items() if gg == g) == one_way[(g,)]


def test_dataset_arrays_read_only(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 2.0)])
    with pytest.raises(ValueError):
        d.responses[0] = 9.0
    with pytest.raises(ValueError):
        level_matrix(d)[0, 0] = 1


def test_dataset_columns_validated(two_by_two):
    with pytest.raises(ValidationError, match="equal-length"):
        Dataset(two_by_two, [0, 1], [1.0])
    with pytest.raises(ValidationError, match="equal-length"):
        Dataset(two_by_two, [[0, 1]], [[1.0, 2.0]])
    with pytest.raises(ValidationError, match=r"^observation 2: cell code 4 out of range"):
        Dataset(two_by_two, [0, 3, 4, -1], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match=r"^observation 1: cell code -1"):
        Dataset(two_by_two, [0, -1], [1.0, 1.0])
    with pytest.raises(ValidationError, match=r"^observation 1: response is not finite"):
        Dataset(two_by_two, [0, 1, 2], [1.0, math.inf, math.nan])


def test_dataset_is_two_read_only_columns(two_by_two):
    codes = np.array([3, 0, 2])
    responses = np.array([5.0, -1.0, 2.5])
    d = Dataset(two_by_two, codes, responses, response_name="y")
    codes[0] = 1
    responses[0] = 9.0  # the dataset holds its own copies
    assert d.codes.dtype == np.intp and d.codes.tolist() == [3, 0, 2]
    assert d.responses.tolist() == [5.0, -1.0, 2.5]
    assert level_matrix(d).tolist() == [[1, 1], [0, 0], [1, 0]]
    assert not level_matrix(d).flags.writeable
    with pytest.raises(ValueError):
        d.codes[0] = 0
    assert list(zip(map(tuple, level_matrix(d).tolist()), d.responses.tolist())) == [
        ((1, 1), 5.0), ((0, 0), -1.0), ((1, 0), 2.5)
    ]
    assert build_dataset(
        two_by_two, [(("a2", "b2"), 5.0), (("a1", "b1"), -1.0), (("a2", "b1"), 2.5)],
        raw_scale=False,
    ).codes.tolist() == [3, 0, 2]


def test_cell_table_matches_per_cell_numpy(cohort_layout):
    # 60 observations over 40 cells: empty, singleton and larger cells
    d = random_dataset(cohort_layout, 60, seed=17)
    table = d.cells
    assert (table.counts == 0).any() and (table.counts == 1).any() and (table.counts > 2).any()
    for flat in range(cohort_layout.n_cells):
        y = d.responses[d.codes == flat]
        assert table.counts[flat] == y.size
        if y.size == 0:
            assert table.means[flat] == 0.0 and table.m2[flat] == 0.0
            continue
        mean = y.mean()
        assert table.means[flat] == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert table.m2[flat] == pytest.approx(((y - mean) ** 2).sum(), rel=1e-12, abs=1e-12)
    for array in (table.counts, table.means, table.m2):
        assert not array.flags.writeable



def test_margin_keeps_the_order_the_factors_are_given():
    layout = FactorLayout([("a", ("a1", "a2", "a3")), ("b", ("b1", "b2", "b3"))])
    table = count_table(layout, {("a1", "b2"): 5})
    swapped = table.margin("b", "a")
    assert swapped.layout.names == ("b", "a")
    counts = _margin_counts(table, "b", "a")
    assert counts[("b2", "a1")] == 5
    assert counts[("b1", "a2")] == 0
    assert sum(counts.values()) == 5


def test_margin_out_of_layout_order_on_cohort(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=5)
    levels = level_matrix(d).tolist()
    for keep in [("season", "gender"), ("age_group", "season"),
                 ("age_group", "gender", "season"), ("season", "age_group", "gender")]:
        fi = [cohort_layout.factor_index(f) for f in keep]
        got = _margin_counts(d.cells, *keep)
        assert len(got) == math.prod(cohort_layout.n_levels(f) for f in keep)
        for names, n in got.items():
            idx = tuple(cohort_layout.level_index(f, lv) for f, lv in zip(keep, names))
            assert n == sum(1 for row in levels if tuple(row[i] for i in fi) == idx)


def test_margin_pools_like_from_columns(cohort_layout):
    # 60 observations over 40 cells leave empty cells and empty margin cells
    for n, seed in ((60, 17), (2000, 3)):
        d = random_dataset(cohort_layout, n, seed=seed, positive_shift=1e3)
        for keep in [("gender",), ("season",), ("age_group",), ("age_group", "gender"),
                     ("season", "gender"), ("gender", "season", "age_group"),
                     ("age_group", "season", "gender")]:
            margin = d.cells.margin(*keep)
            fi = [cohort_layout.factor_index(f) for f in keep]
            codes = np.ravel_multi_index(level_matrix(d)[:, fi].T, margin.layout.shape)
            direct = CellTable.from_columns(margin.layout, codes, d.responses)
            assert margin.counts.tolist() == direct.counts.tolist()
            np.testing.assert_allclose(margin.means, direct.means, rtol=1e-12, atol=0)
            np.testing.assert_allclose(margin.m2, direct.m2, rtol=1e-12, atol=0)
    full = d.cells.margin(*cohort_layout.names)
    assert full.layout == cohort_layout
    # crossed with a factor that gives each observation its own cell, every
    # cell holds at most one observation; pooled back over that factor, the
    # table is the cohort's own, bit for bit, as one rule builds both
    small = random_dataset(cohort_layout, 60, seed=17, positive_shift=1e3)
    crossed = FactorLayout([*cohort_layout.factors, ("obs", [str(i) for i in range(60)])])
    singles = Dataset(crossed, small.codes * 60 + np.arange(60), small.responses).cells
    assert set(singles.counts.tolist()) == {0, 1}
    pooled = singles.margin(*cohort_layout.names)
    for table, cells in ((full, d.cells), (pooled, small.cells)):
        for name in ("counts", "means", "m2"):
            assert getattr(table, name).tobytes() == getattr(cells, name).tobytes(), name


def test_stored_arrays_are_read_only_copies(cohort_layout):
    from losanova.diagnostics import PPPlotData, ResidualSpread
    from losanova.linmod import DesignMatrix

    def fresh(shape):
        return np.arange(math.prod(shape), dtype=float).reshape(shape) + 1.0

    n_cells = cohort_layout.n_cells
    built = {
        "cells": (CellTable, dict(layout=cohort_layout, counts=fresh((n_cells,)),
                                  means=fresh((n_cells,)), m2=fresh((n_cells,)))),
        "dataset": (Dataset, dict(layout=cohort_layout, codes=np.arange(n_cells, dtype=float),
                                  responses=fresh((n_cells,)))),
        "design": (DesignMatrix, dict(layout=cohort_layout, labels=("a", "b"),
                                      cell_values=fresh((n_cells, 2)))),
        "pp": (PPPlotData, dict(empirical=fresh((5,)), theoretical=fresh((5,)),
                                max_abs_deviation=0.0)),
        "spread": (ResidualSpread, dict(fitted=fresh((5,)), residuals=fresh((5,)),
                                        funnel_ratio=None)),
    }
    for name, (cls, kwargs) in built.items():
        obj = cls(**kwargs)
        for field, value in kwargs.items():
            if not isinstance(value, np.ndarray):
                continue
            before = value.copy()
            assert value.flags.writeable, (name, field)
            value += 1.0  # the caller's array stays theirs to change
            stored = getattr(obj, field)
            assert not stored.flags.writeable, (name, field)
            assert np.array_equal(stored, before), (name, field)
            with pytest.raises(ValueError):
                stored[0] = 2.0


def test_margin_rejects_bad_factor_lists(cohort_layout):
    table = random_dataset(cohort_layout, 100, seed=2).cells
    with pytest.raises(ValidationError, match="unknown factor 'ward'"):
        table.margin("ward")
    with pytest.raises(ValidationError, match="duplicate factor"):
        table.margin("season", "season")
    with pytest.raises(ValidationError, match="duplicate factor"):
        table.margin("season", 1)
    with pytest.raises(ValidationError, match="at least one factor"):
        table.margin()
