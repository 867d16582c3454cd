"""Scheffe comparisons, published-table reconstructions, homogeneous subsets."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from losanova import (
    ValidationError,
    apply_transform,
    build_dataset,
    f_quantile,
    f_sf,
    generate,
    homogeneous_subsets,
    reference_cohort_spec,
    scheffe_pairwise,
    t_cdf,
    type3_anova,
)
from losanova.model import CellTable, FactorLayout
from losanova.synth import REFERENCE_CELL_COUNTS, default_layout

from conftest import level_matrix, published_margin, random_dataset

# published reference analysis: error mean square and df on the log scale
MSE = 17897.142 / 82678
DF_ERROR = 82678

AGE_COUNTS = {"1": 6433, "2": 7875, "3": 11064, "4": 27890, "5": 29456}
AGE_MEANS = {"1": 0.547, "5": 0.567, "4": 0.618, "2": 0.706, "3": 0.749}
AGE_SE = {
    ("1", "2"): 0.00782, ("1", "3"): 0.00729, ("1", "4"): 0.00644,
    ("1", "5"): 0.00640, ("2", "3"): 0.00686, ("2", "4"): 0.00594,
    ("2", "5"): 0.00590, ("3", "4"): 0.00523, ("3", "5"): 0.00519,
    ("4", "5"): 0.00389,
}

SEASON_COUNTS = {"spring": 21963, "summer": 21564, "autumn": 19374, "winter": 19817}
SEASON_MEANS = {"spring": 0.593, "summer": 0.616, "winter": 0.633, "autumn": 0.642}
SEASON_SE = {
    ("spring", "summer"): 0.00446, ("spring", "autumn"): 0.00459,
    ("spring", "winter"): 0.00456, ("summer", "autumn"): 0.00461,
    ("summer", "winter"): 0.00458, ("autumn", "winter"): 0.00470,
}

AGES = published_margin("age_group", AGE_COUNTS, AGE_MEANS)
SEASONS = published_margin("season", SEASON_COUNTS, SEASON_MEANS)


def _find(comparisons, i, j):
    for c in comparisons:
        if c.level_i == i and c.level_j == j:
            return c
    raise AssertionError(f"pair ({i}, {j}) missing")


# --- published standard errors ----------------------------------------------------

def test_age_group_standard_errors():
    comparisons = scheffe_pairwise(AGES, MSE, DF_ERROR)
    for (i, j), se in AGE_SE.items():
        assert _find(comparisons, i, j).se == pytest.approx(se, abs=1e-4)


def test_season_standard_errors():
    comparisons = scheffe_pairwise(SEASONS, MSE, DF_ERROR)
    for (i, j), se in SEASON_SE.items():
        assert _find(comparisons, i, j).se == pytest.approx(se, abs=1e-4)


# --- published inference rows -------------------------------------------------------

def test_age_1_vs_5_inference():
    # published diff = -.0199; the other levels' means do not enter the row
    ages = published_margin("age_group", AGE_COUNTS,
                            dict.fromkeys(AGE_COUNTS, 0.0) | {"5": 0.0199})
    c = _find(scheffe_pairwise(ages, MSE, DF_ERROR, alpha=0.05), "1", "5")
    assert c.diff == pytest.approx(-0.0199)
    assert c.p == pytest.approx(0.047, abs=0.005)
    assert c.ci_low == pytest.approx(-0.0396, abs=5e-4)
    assert c.ci_high == pytest.approx(-0.0002, abs=5e-4)


def test_season_autumn_winter_inference():
    seasons = published_margin("season", SEASON_COUNTS,
                               dict.fromkeys(SEASON_COUNTS, 0.0) | {"autumn": 0.0089})
    c = _find(scheffe_pairwise(seasons, MSE, DF_ERROR, alpha=0.05), "autumn", "winter")
    assert c.p == pytest.approx(0.306, abs=0.01)


def test_self_comparison_is_null():
    # no level is compared with itself, and equal means compare as null
    margin = published_margin("f", {"x": 100, "y": 100, "z": 40}, {"x": 2.5, "y": 2.5, "z": 1.0})
    comparisons = scheffe_pairwise(margin, mse=1.0, df_error=50, alpha=0.05)
    assert all(c.level_i != c.level_j for c in comparisons)
    c = _find(comparisons, "x", "y")
    assert c.diff == 0.0
    assert c.p == 1.0
    assert c.ci_low == pytest.approx(-c.ci_high)


# --- published subset structure ------------------------------------------------------

def test_age_groups_split_into_five_singletons():
    comparisons = scheffe_pairwise(AGES, MSE, DF_ERROR, alpha=0.05)
    subsets = homogeneous_subsets(comparisons, AGES, alpha=0.05)
    assert [s.levels for s in subsets.subsets] == [("1",), ("5",), ("4",), ("2",), ("3",)]
    assert all(s.significance == 1.0 for s in subsets.subsets)


def test_seasons_pair_winter_with_autumn():
    comparisons = scheffe_pairwise(SEASONS, MSE, DF_ERROR, alpha=0.05)
    subsets = homogeneous_subsets(comparisons, SEASONS, alpha=0.05)
    assert [s.levels for s in subsets.subsets] == [
        ("spring",), ("summer",), ("winter", "autumn"),
    ]
    pair_p = _find(comparisons, "winter", "autumn").p
    assert subsets.subsets[-1].significance == pytest.approx(pair_p)
    assert "pairwise" in subsets.significance_rule
    # the mean order is a property, not a field: the subsets' JSON is unchanged
    assert list(subsets.level_means) == ["spring", "summer", "winter", "autumn"]
    assert "level_means" not in dataclasses.asdict(subsets)


def test_identical_means_form_one_subset():
    margin = published_margin("f", dict.fromkeys("abc", 50), dict.fromkeys("abc", 3.0))
    comparisons = scheffe_pairwise(margin, 1.0, 100, alpha=0.05)
    subsets = homogeneous_subsets(comparisons, margin, alpha=0.05)
    assert len(subsets.subsets) == 1
    assert subsets.subsets[0].levels == ("a", "b", "c")


# --- the array form against the scalar formulas -----------------------------------------

def _scalar_scheffe(margin, mse, df_error, alpha):
    """The module docstring's formulas, one pair at a time in Python floats."""
    (factor, levels), = margin.layout.factors
    n, m = margin.counts.tolist(), margin.means.tolist()
    k = len(levels)
    out = []
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            diff = m[a] - m[b]
            se = math.sqrt(mse * (1.0 / n[a] + 1.0 / n[b]))
            p = f_sf(diff * diff / ((k - 1) * se * se), k - 1, df_error)
            half_width = math.sqrt((k - 1) * f_quantile(1.0 - alpha, k - 1, df_error)) * se
            out.append((factor, levels[a], levels[b], diff, se, p,
                        diff - half_width, diff + half_width))
    return out


def test_scheffe_pairwise_matches_scalar_formulas():
    cases = 0
    for n, seeds in ((2000, range(6)), (8000, (11,))):
        for seed in seeds:
            raw = generate(reference_cohort_spec(n=n, seed=seed))
            for transform in ("none", "logarithmic"):
                d = apply_transform(raw, transform)
                table = type3_anova(d.cells)
                for factor in d.layout.names:
                    margin = d.cells.margin(factor)
                    for alpha in (0.01, 0.05):
                        got = scheffe_pairwise(margin, table.ms_error, table.df_error, alpha)
                        want = _scalar_scheffe(margin, table.ms_error, table.df_error, alpha)
                        # every field bit for bit: repr distinguishes every float
                        assert [repr(dataclasses.astuple(c)) for c in got] == \
                            [repr(w) for w in want]
                        assert all(type(v) is float for c in got
                                   for v in dataclasses.astuple(c)[3:])
                        cases += 1
    assert cases == 7 * 2 * 3 * 2


# --- structural properties ------------------------------------------------------------

def test_antisymmetry_and_duality(cohort_layout):
    d = random_dataset(cohort_layout, 400, seed=31, min_per_cell=2)
    for alpha in (0.01, 0.05, 0.2):
        comparisons = scheffe_pairwise(d.cells.margin("season"), 1.3, 360, alpha=alpha)
        by_pair = {(c.level_i, c.level_j): c for c in comparisons}
        for (i, j), c in by_pair.items():
            r = by_pair[(j, i)]
            assert r.diff == pytest.approx(-c.diff, rel=1e-12)
            assert r.se == pytest.approx(c.se, rel=1e-12)
            assert r.p == pytest.approx(c.p, rel=1e-12)
            assert r.ci_low == pytest.approx(-c.ci_high, rel=1e-12)
            excludes_zero = c.ci_low > 0 or c.ci_high < 0
            assert excludes_zero == (c.p < alpha)


def test_scheffe_dominates_plain_t(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=37, min_per_cell=2)
    mse, dfe = 0.9, 260
    comparisons = scheffe_pairwise(d.cells.margin("age_group"), mse, dfe, alpha=0.05)
    for c in comparisons:
        t = abs(c.diff) / c.se
        p_t = 2.0 * (1.0 - t_cdf(t, dfe))
        assert c.p >= p_t - 1e-12


def test_shift_invariance(cohort_layout):
    d = random_dataset(cohort_layout, 250, seed=41, min_per_cell=2)
    shifted = build_dataset(
        cohort_layout,
        [
            (cohort_layout.cell_names(levels), y + 11.5)
            for levels, y in zip(level_matrix(d), d.responses)
        ],
    )
    m1, m2 = d.cells.margin("season"), shifted.cells.margin("season")
    c1 = scheffe_pairwise(m1, 1.1, 200, alpha=0.05)
    c2 = scheffe_pairwise(m2, 1.1, 200, alpha=0.05)
    for a, b in zip(c1, c2):
        assert a.diff == pytest.approx(b.diff, abs=1e-10)
        assert a.se == b.se
        assert a.p == pytest.approx(b.p, abs=1e-12)
    s1 = homogeneous_subsets(c1, m1, 0.05)
    s2 = homogeneous_subsets(c2, m2, 0.05)
    assert [x.levels for x in s1.subsets] == [x.levels for x in s2.subsets]


def _brute_force_interval_subsets(levels_sorted, pair_p, alpha):
    """All maximal intervals of the sorted order whose pairs all exceed alpha."""
    n = len(levels_sorted)
    valid = []
    for i in range(n):
        for j in range(i, n):
            window = levels_sorted[i : j + 1]
            if all(
                pair_p[frozenset((a, b))] > alpha
                for a, b in itertools.combinations(window, 2)
            ):
                valid.append(tuple(window))
    return [
        w for w in valid
        if not any(set(w) < set(v) for v in valid)
    ]


def test_subsets_match_brute_force_oracle(cohort_layout):
    rng = np.random.default_rng(53)
    for trial in range(25):
        d = random_dataset(cohort_layout, 120, seed=500 + trial, min_per_cell=1)
        factor = ("season", "age_group")[trial % 2]
        alpha = float(rng.choice([0.01, 0.05, 0.3, 0.6]))
        mse = float(rng.uniform(0.4, 2.0))
        margin = d.cells.margin(factor)
        comparisons = scheffe_pairwise(margin, mse, 100, alpha=alpha)
        got = homogeneous_subsets(comparisons, margin, alpha=alpha)
        levels = margin.layout.levels(0)
        sorted_levels = [levels[i] for i in np.argsort(margin.means, kind="stable")]
        pair_p = {frozenset((c.level_i, c.level_j)): c.p for c in comparisons}
        expected = _brute_force_interval_subsets(sorted_levels, pair_p, alpha)
        assert [s.levels for s in got.subsets] == expected
        covered = {lv for s in got.subsets for lv in s.levels}
        assert covered == set(sorted_levels)
        means = dict(zip(levels, margin.means.tolist()))
        assert list(got.level_means.items()) == [(lv, means[lv]) for lv in sorted_levels]


# --- marginal means ----------------------------------------------------------------------

def _by_level(margin, values):
    return dict(zip(margin.layout.levels(0), values.tolist()))


def test_marginal_means_single_observation_per_level():
    layout = default_layout()
    rows = [
        (("male", "spring", "1"), 4.0),
        (("male", "summer", "1"), 6.5),
        (("male", "autumn", "1"), 2.0),
        (("male", "winter", "1"), 9.0),
    ]
    d = build_dataset(layout, rows)
    margin = d.cells.margin("season")
    assert margin.layout.names == ("season",)
    assert _by_level(margin, margin.means) == {
        "spring": 4.0, "summer": 6.5, "autumn": 2.0, "winter": 9.0}


def test_marginal_means_random_recount(cohort_layout):
    d = random_dataset(cohort_layout, 200, seed=61)
    for factor in cohort_layout.names:
        fi = cohort_layout.factor_index(factor)
        margin = d.cells.margin(factor)
        for level, n, mean in zip(margin.layout.levels(0), margin.counts, margin.means):
            members = [
                y for levels, y in zip(level_matrix(d), d.responses)
                if cohort_layout.levels(fi)[levels[fi]] == level
            ]
            assert n == len(members)
            if members:
                assert mean == pytest.approx(float(np.mean(members)), rel=1e-12)


def test_marginal_counts_reproduce_reference_n_column():
    layout = default_layout()
    rows = []
    for (g, s, a), count in REFERENCE_CELL_COUNTS.items():
        rows.extend([((g, s, a), 1.0)] * count)
    d = build_dataset(layout, rows)
    ages = d.cells.margin("age_group")
    assert _by_level(ages, ages.counts) == AGE_COUNTS
    seasons = d.cells.margin("season")
    assert _by_level(seasons, seasons.counts) == SEASON_COUNTS
    # the cohort-sized dataset also reproduces the full frequency marginals
    gender = d.cells.margin("gender")
    assert d.cells.n == 82718
    assert dict(zip(gender.layout.levels(0), gender.counts.tolist())) == {
        "male": 46510, "female": 36208}
    assert d.cells.counts[
        np.ravel_multi_index(layout.resolve_cell(("female", "winter", "1")), layout.shape)
    ] == 609


def test_zero_count_level_rejected(cohort_layout):
    rows = [(("male", "spring", "1"), 2.0), (("male", "spring", "2"), 3.0)]
    d = build_dataset(cohort_layout, rows)
    with pytest.raises(ValidationError, match="level 'summer' of 'season' has no observations"):
        scheffe_pairwise(d.cells.margin("season"), 1.0, 10, 0.05)


def test_scheffe_input_guards():
    margin = published_margin("f", {"a": 5, "b": 5}, {"a": 1.0, "b": 2.0})
    with pytest.raises(ValidationError, match="mse"):
        scheffe_pairwise(margin, -1.0, 10)
    with pytest.raises(ValidationError, match="df_error"):
        scheffe_pairwise(margin, 1.0, 0)
    with pytest.raises(ValidationError, match="alpha"):
        scheffe_pairwise(margin, 1.0, 10, alpha=1.5)
    with pytest.raises(ValidationError, match="'b' of 'f' has no observations"):
        scheffe_pairwise(published_margin("f", {"a": 5, "b": 0}, {"a": 1.0, "b": 0.0}), 1.0, 10)
    # a two-factor table is not a margin: neither post hoc step takes it
    layout = FactorLayout([("f", ("a", "b")), ("g", ("c", "d"))])
    two_factor = CellTable(layout, [5] * 4, [1.0, 2.0, 3.0, 4.0], np.zeros(4))
    with pytest.raises(ValidationError, match="one-factor table, got f, g"):
        scheffe_pairwise(two_factor, 1.0, 10)
    comparisons = scheffe_pairwise(margin, 1.0, 10)
    with pytest.raises(ValidationError, match="one-factor table"):
        homogeneous_subsets(comparisons, two_factor)
