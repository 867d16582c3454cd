"""Core domain model: datasets, cell statistics, frequency tables."""

import math

import numpy as np
import pytest

from losanova import (
    Dataset,
    FactorLayout,
    FrequencyTable,
    Observation,
    ValidationError,
    build_dataset,
    cell_stats,
    frequency_table,
)
from losanova.synth import default_layout

from conftest import random_dataset


def test_layout_validation():
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("only",))])
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("x", "x"))])
    with pytest.raises(ValidationError):
        FactorLayout([("a", ("x", "y")), ("a", ("u", "v"))])


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
    for i, (names, y) in enumerate(rows):
        assert d.layout.cell_names(d.observations[i].level_indices) == names
        assert d.observations[i].response == y


def test_cell_stats_constant_cell(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 2.0)] * 3)
    (stats,) = cell_stats(d)
    assert stats.n == 3
    assert stats.mean == 2.0
    assert stats.sd == 0.0


def test_cell_stats_hand_computed(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 1.0), (("a1", "b1"), 3.0)])
    (stats,) = cell_stats(d)
    assert stats.mean == pytest.approx(2.0)
    assert stats.sd == pytest.approx(math.sqrt(2.0))


def test_cell_stats_singleton_has_no_sd(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 4.0)])
    (stats,) = cell_stats(d)
    assert stats.n == 1 and stats.sd is None


def test_cohort_layout_has_40_cells(cohort_layout):
    assert cohort_layout.n_cells == 40
    d = random_dataset(cohort_layout, 4000, seed=1)
    assert len(cell_stats(d)) == 40


def test_cell_means_reproduce_grand_mean(cohort_layout):
    d = random_dataset(cohort_layout, 500, seed=7)
    stats = cell_stats(d)
    weighted = sum(s.n * s.mean for s in stats) / d.n
    assert weighted == pytest.approx(float(d.responses.mean()), rel=1e-10)


def test_frequency_single_observation(two_by_two):
    d = build_dataset(two_by_two, [(("a2", "b1"), 1.0)])
    ft = frequency_table(d)
    assert ft.total == 1
    assert ft.marginal("a")[("a2",)] == 1
    assert ft.marginal("b")[("b1",)] == 1
    assert ft.count(("a2", "b1")) == 1


def test_frequency_random_recount(cohort_layout):
    d = random_dataset(cohort_layout, 100, seed=3)
    ft = frequency_table(d)
    # brute-force recount straight off the observations
    for cell in cohort_layout.cells():
        expected = sum(1 for o in d.observations if o.level_indices == cell)
        assert ft.counts[cell] == expected
    assert ft.total == 100


def test_reference_cohort_marginals(reference_counts):
    ft = FrequencyTable.from_cell_counts(default_layout(), reference_counts)
    assert ft.total == 82718
    gender = ft.marginal("gender")
    assert gender[("male",)] == 46510
    assert gender[("female",)] == 36208
    assert ft.count(("female", "winter", "1")) == 609
    assert int(ft.counts.min()) == 609  # the smallest cell in the cohort
    season = ft.marginal("season")
    assert season == {
        ("spring",): 21963, ("summer",): 21564, ("autumn",): 19374, ("winter",): 19817,
    }
    age = ft.marginal("age_group")
    assert [age[(g,)] for g in "12345"] == [6433, 7875, 11064, 27890, 29456]


def test_marginal_consistency_property(cohort_layout):
    d = random_dataset(cohort_layout, 257, seed=11)
    ft = frequency_table(d)
    for keep in [("gender",), ("season",), ("age_group",), ("gender", "season")]:
        marg = ft.marginal(*keep)
        assert sum(marg.values()) == ft.total
    two_way = ft.marginal("gender", "age_group")
    one_way = ft.marginal("gender")
    for g in ("male", "female"):
        assert sum(v for (gg, _), v in two_way.items() if gg == g) == one_way[(g,)]


def test_dataset_arrays_read_only(two_by_two):
    d = build_dataset(two_by_two, [(("a1", "b1"), 2.0)])
    with pytest.raises(ValueError):
        d.responses[0] = 9.0
    with pytest.raises(ValueError):
        d.level_matrix[0, 0] = 1


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
    assert d.level_matrix.tolist() == [[1, 1], [0, 0], [1, 0]]
    assert not d.level_matrix.flags.writeable
    with pytest.raises(ValueError):
        d.codes[0] = 0
    assert d.observations == (
        Observation((1, 1), 5.0), Observation((0, 0), -1.0), Observation((1, 0), 2.5)
    )
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

