"""Residual diagnostics and variance-stabilizing transform selection."""

import functools
import math

import numpy as np
import pytest

from losanova import (
    CellTable,
    FactorLayout,
    ValidationError,
    apply_transform,
    build_dataset,
    build_design,
    normal_cdf,
    ols_fit,
    pp_plot,
    residual_diagnostics,
    residual_histogram,
    residual_vs_fitted,
    residuals,
    sd_mean_regression,
)
from losanova.diagnostics import TRANSFORMS
from losanova.linmod import Term, full_factorial_terms
from losanova.synth import generate, reference_cohort_spec

from conftest import level_matrix, random_dataset


# --- residuals -----------------------------------------------------------------

def test_saturated_model_zero_residuals(two_by_two):
    rows = [(("a1", "b1"), 2.0)] * 2 + [(("a1", "b2"), 5.0)] * 2 \
        + [(("a2", "b1"), 3.0)] * 2 + [(("a2", "b2"), 9.0)] * 2
    d = build_dataset(two_by_two, rows)
    assert np.array_equal(residuals(d), np.zeros(d.n))


def _full_factorial_residuals(d):
    """The residuals of a reference-coded full factorial least-squares fit."""
    X = build_design(d, full_factorial_terms(d.layout))
    return d.responses - ols_fit(X, d.cells).cell_fitted[d.codes]


def test_residuals_match_full_factorial_fit(cohort_layout, two_by_two):
    datasets = [random_dataset(cohort_layout, 400, seed=s, min_per_cell=2) for s in range(5)]
    datasets += [random_dataset(two_by_two, 30, seed=s, min_per_cell=1, positive_shift=1e6)
                 for s in range(3)]
    cohort = generate(reference_cohort_spec(n=8000, seed=0))
    datasets += [cohort, apply_transform(cohort, "logarithmic")]
    for d in datasets:
        scale = float(np.abs(d.responses).max())
        assert np.abs(residuals(d) - _full_factorial_residuals(d)).max() <= 1e-12 * scale


def test_residual_diagnostics_series(cohort_layout, two_by_two):
    raw = random_dataset(cohort_layout, 300, seed=8, min_per_cell=2)
    logged = apply_transform(raw, "logarithmic")
    names = ["residual_histogram", "residual_vs_fitted", "pp_plot"]
    series = residual_diagnostics(raw, logged)
    assert list(series) == ["raw_residual_histogram", "raw_residual_vs_fitted", *names]
    assert series["raw_residual_histogram"] == residual_histogram(residuals(raw))
    assert series["residual_histogram"] == residual_histogram(residuals(logged))
    spread = series["residual_vs_fitted"]
    assert np.array_equal(np.sort(spread.fitted), np.sort(logged.cells.means[logged.codes]))
    assert series["raw_residual_vs_fitted"].funnel_ratio == residual_vs_fitted(
        residuals(raw), raw.codes, raw.cells.means).funnel_ratio
    # the P-P plot is the analysis scale's, from the residuals in observation order
    assert series["pp_plot"].max_abs_deviation == pp_plot(
        residuals(logged)).max_abs_deviation
    # without a transform there is one scale, and each series comes once
    same = residual_diagnostics(raw, raw)
    assert list(same) == names
    assert same["residual_histogram"] == series["raw_residual_histogram"]
    assert same["pp_plot"].max_abs_deviation == pp_plot(residuals(raw)).max_abs_deviation
    # residuals with no spread have no P-P plot, on either scale
    cells = [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
    flat = build_dataset(two_by_two, [(cell, 2.0 + j) for j, cell in enumerate(cells)] * 2)
    for analysis in (flat, apply_transform(flat, "logarithmic")):
        undefined = residual_diagnostics(flat, analysis)
        assert undefined["pp_plot"] is None
        assert undefined["residual_histogram"].counts == (8,)


def test_intercept_only_residuals_center(two_by_two):
    d = random_dataset(two_by_two, 25, seed=4)
    fit = ols_fit(build_design(d, []), d.cells)
    e = d.responses - fit.cell_fitted[d.codes]
    assert float(e.sum()) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(e, d.responses - d.responses.mean())


def test_residuals_match_prediction_oracle(two_by_two):
    d = random_dataset(two_by_two, 30, seed=6)
    fit = ols_fit(build_design(d, [Term((0,)), Term((1,))]), d.cells)
    e = d.responses - fit.cell_fitted[d.codes]
    # the additive model fitted observation by observation
    levels = level_matrix(d)
    X = np.column_stack([np.ones(d.n), levels[:, 0] == 0, levels[:, 1] == 0]).astype(float)
    beta, *_ = np.linalg.lstsq(X, d.responses, rcond=None)
    np.testing.assert_allclose(e, d.responses - X @ beta, rtol=0, atol=1e-10)


# --- histogram --------------------------------------------------------------------

def test_histogram_hand_binned():
    # Sturges: ceil(1 + log2 3) = 3 equal-width bins over [0, 3]
    h = residual_histogram(np.array([0.0, 0.5, 3.0]))
    assert h.edges == (0.0, 1.0, 2.0, 3.0)
    assert h.counts == (2, 0, 1)


def test_histogram_constant_residuals():
    h = residual_histogram(np.full(10, 3.25))
    assert len(h.counts) == 1 and h.counts[0] == 10
    assert h.edges[0] < 3.25 < h.edges[1]


def test_histogram_auto_bin_rule():
    rng = np.random.default_rng(0)
    h = residual_histogram(rng.normal(size=82718))
    assert len(h.counts) == 18  # ceil(1 + log2 N)
    assert h.n == 82718
    assert sum(h.counts) == 82718


# --- residual vs fitted --------------------------------------------------------------

def test_funnel_flat_under_homoscedasticity():
    rng = np.random.default_rng(12)
    fitted = rng.uniform(1.0, 10.0, size=2000)
    e = rng.normal(0.0, 1.0, size=2000)
    spread = residual_vs_fitted(e, np.arange(2000), fitted)  # a cell per observation
    assert spread.funnel_ratio == pytest.approx(1.0, abs=0.15)
    assert list(spread.fitted) == sorted(spread.fitted)


def test_funnel_detects_sd_proportional_to_mean():
    rng = np.random.default_rng(13)
    fitted = rng.uniform(1.0, 10.0, size=2000)
    e = rng.normal(0.0, 0.2 * fitted)
    spread = residual_vs_fitted(e, np.arange(2000), fitted)
    assert spread.funnel_ratio > 1.5


def test_funnel_undefined_for_single_fitted_value():
    spread = residual_vs_fitted(np.array([1.0, -1.0, 0.5]), np.zeros(3, dtype=int),
                                np.array([2.0]))
    assert spread.funnel_ratio is None


def test_funnel_undefined_when_an_sd_overflows():
    # the top quartile's squared deviations overflow; RuntimeWarnings are errors here
    e = np.array([1.0, -1.0, 0.5, -0.5, 1e200, -1e200])
    spread = residual_vs_fitted(e, np.array([0, 0, 1, 1, 2, 2]), np.array([1.0, 2.0, 3.0]))
    assert spread.funnel_ratio is None


def test_series_are_read_only_float_arrays():
    e = np.array([0.3, -1.0, 0.7])
    spread = residual_vs_fitted(e, np.array([1, 0, 2]), np.array([1.0, 2.0, 3.0]))
    pp = pp_plot(e)
    assert np.array_equal(spread.fitted, [1.0, 2.0, 3.0])
    assert np.array_equal(spread.residuals, [-1.0, 0.3, 0.7])
    for series in (spread.fitted, spread.residuals, pp.empirical, pp.theoretical):
        assert series.dtype == np.float64 and not series.flags.writeable


def _argsort_spread(e, fitted):
    """``residual_vs_fitted`` as a stable float argsort of the fitted values
    gives it: the fitted values, the residuals and the funnel ratio."""
    order = np.argsort(fitted, kind="stable")
    funnel = None
    if np.unique(fitted).size > 1:
        q1, q3 = np.percentile(fitted, [25.0, 75.0])
        low, high = e[fitted <= q1], e[fitted >= q3]
        if low.size >= 2 and high.size >= 2:
            with np.errstate(over="ignore", invalid="ignore"):
                sd_low, sd_high = float(low.std(ddof=1)), float(high.std(ddof=1))
            if sd_low > 0 and math.isfinite(sd_low) and math.isfinite(sd_high):
                funnel = sd_high / sd_low
    return fitted[order], e[order], funnel


@functools.cache
def _spread_cases():
    rng = np.random.default_rng(2310)
    cases = {
        # equal means in different cells, and cells no observation is in
        "tied and empty cells": (rng.normal(size=500), rng.choice([0, 1, 3, 4, 6], 500),
                                 np.array([2.0, 1.0, 9.0, 2.0, 3.0, 1.0, 2.0, 7.0])),
        "one occupied cell": (rng.normal(size=50), np.full(50, 2), np.array([0.0, 1.0, 4.0])),
        "signed zeros": (rng.normal(size=200), rng.integers(0, 3, 200),
                         np.array([-0.0, 0.0, -1.0])),
        "overflowing sd": (np.array([1.0, -1.0, 0.5, -0.5, 1e200, -1e200]),
                           np.array([0, 0, 1, 1, 2, 2]), np.array([1.0, 2.0, 3.0])),
        "one observation": (np.array([0.25]), np.array([0]), np.array([5.0])),
        "non-finite means": (rng.normal(size=300), rng.integers(0, 5, 300),
                             np.array([np.nan, np.inf, 1.0, np.nan, -np.inf])),
    }
    cohort = generate(reference_cohort_spec(n=8000, seed=7))
    for transform in TRANSFORMS:
        d = apply_transform(cohort, transform)
        cases[f"cohort, {transform}"] = (residuals(d), d.codes, d.cells.means)
    return cases


@pytest.mark.parametrize("name", list(_spread_cases()))
def test_cell_rank_order_matches_a_float_argsort(name):
    e, codes, means = _spread_cases()[name]
    spread = residual_vs_fitted(e, codes, means)
    fitted, ordered, funnel = _argsort_spread(e, means[codes])
    assert spread.fitted.tobytes() == fitted.tobytes()
    assert spread.residuals.tobytes() == ordered.tobytes()
    assert repr(spread.funnel_ratio) == repr(funnel)


# --- P-P plot ----------------------------------------------------------------------

def test_pp_two_point_case():
    pp = pp_plot(np.array([-1.0, 1.0]))
    assert np.array_equal(pp.empirical, [0.25, 0.75])
    assert pp.theoretical[0] == pytest.approx(normal_cdf(-1.0))
    assert pp.theoretical[1] == pytest.approx(normal_cdf(1.0))


def test_pp_normal_sample_close_to_line():
    rng = np.random.default_rng(14)
    pp = pp_plot(rng.normal(2.0, 3.0, size=10_000))
    assert pp.max_abs_deviation < 0.02
    assert all(b >= a for a, b in zip(pp.theoretical, pp.theoretical[1:]))


def test_pp_skewed_sample_departs():
    rng = np.random.default_rng(15)
    pp = pp_plot(rng.lognormal(0.0, 1.0, size=10_000))
    assert pp.max_abs_deviation > 0.05


def test_pp_rejects_constant():
    with pytest.raises(ValidationError):
        pp_plot(np.ones(5))


def test_rounding_noise_has_no_spread(cohort_layout):
    # log10 of cells without spread leaves exactly zero residuals
    rows = [(cohort_layout.cell_names(cell), i + 1.0)
            for i, cell in enumerate(cohort_layout.cells()) for _ in range(3)]
    logged = apply_transform(build_dataset(cohort_layout, rows), "logarithmic")
    e, codes, means = residuals(logged), logged.codes, logged.cells.means
    assert np.abs(e).max() == 0
    assert residual_vs_fitted(e, codes, means).funnel_ratio is None
    with pytest.raises(ValidationError, match="zero variance"):
        pp_plot(e)
    # spread far below the responses' size still counts
    spread = np.tile([-1e-9, 0.0, 1e-9], cohort_layout.n_cells)
    assert residual_vs_fitted(spread, codes, means).funnel_ratio == pytest.approx(1.0)
    assert pp_plot(spread).max_abs_deviation > 0


# --- sd/mean regression ----------------------------------------------------------------

def _table(cells):
    """One-factor cell table from (n, mean, sample sd) triples."""
    n, mean, sd = (np.array(column, dtype=float) for column in zip(*cells))
    layout = FactorLayout([("cell", tuple(str(i) for i in range(len(cells))))])
    return CellTable(layout, n, mean, sd**2 * np.maximum(n - 1, 0))


def _power_law_cells(exponent, coefficient=0.3, means=(1.5, 3.0, 6.0, 12.0, 24.0)):
    return [(50, m, coefficient * m**exponent) for m in means]


def test_exact_power_law_recovery():
    rec = sd_mean_regression(_table(_power_law_cells(1.176)))
    assert rec.slope == pytest.approx(1.176, abs=1e-9)
    assert rec.snapped_exponent == 1.0
    assert rec.transform == "logarithmic"
    assert not rec.low_confidence
    assert rec.r_squared == pytest.approx(1.0, abs=1e-12)


def test_constant_sd_means_no_transform():
    cells = [(50, m, 2.0) for m in (2.0, 4.0, 8.0, 16.0)]
    rec = sd_mean_regression(_table(cells))
    assert rec.slope == pytest.approx(0.0, abs=1e-12)
    assert rec.transform == "none"


def test_each_grid_exponent_maps_to_its_transform():
    expected = {
        0.0: "none", 0.5: "square_root", 1.0: "logarithmic",
        1.5: "reciprocal_square_root", 2.0: "reciprocal",
    }
    for exponent, transform in expected.items():
        rec = sd_mean_regression(_table(_power_law_cells(exponent)))
        assert rec.snapped_exponent == exponent
        assert rec.transform == transform


def test_low_confidence_outside_grid_hull():
    rec = sd_mean_regression(_table(_power_law_cells(2.6)))
    assert rec.snapped_exponent == 2.0
    assert rec.low_confidence


def test_snapped_exponent_recovered_from_noisy_cells():
    # >= 40 cells of >= 100 observations per cell, normal within-cell errors:
    # the snapped exponent must match the generating one in >= 95% of runs
    rng_master = np.random.default_rng(1234)
    for exponent in (0.0, 0.5, 1.0, 1.5, 2.0):
        hits = 0
        for _ in range(20):
            rng = np.random.default_rng(rng_master.integers(2**63))
            cells = []
            for i in range(40):
                mu = float(rng.uniform(2.0, 40.0))
                # power law sd = c * mu^a, with c set so sd/mu stays moderate
                sd = 0.2 * mu * (mu / 10.0) ** (exponent - 1.0)
                sample = rng.normal(mu, sd, size=120)
                cells.append((120, float(sample.mean()), float(sample.std(ddof=1))))
            if sd_mean_regression(_table(cells)).snapped_exponent == exponent:
                hits += 1
        assert hits >= 19, f"exponent {exponent}: {hits}/20"


def test_synthetic_cohort_default_seed_recovers_log():
    # the generator's log-scale noise makes raw cell sd proportional to cell
    # mean; at the default seed the fitted slope sits inside the 1.0 +/- 0.1
    # band (heavy-tailed cells make the slope noisy across seeds)
    from losanova import generate, reference_cohort_spec

    d = generate(reference_cohort_spec(n=8000, seed=0))
    rec = sd_mean_regression(d.cells)
    assert rec.transform == "logarithmic"
    assert rec.slope == pytest.approx(1.0, abs=0.1)


def test_regression_input_guards():
    with pytest.raises(ValidationError, match="at least 3"):
        sd_mean_regression(_table(_power_law_cells(1.0)[:2]))
    same_mean = [(50, 4.0, 1.0 + i) for i in range(5)]
    with pytest.raises(ValidationError, match="constant"):
        sd_mean_regression(_table(same_mean))
    # unusable cells are excluded and counted
    cells = _power_law_cells(1.0) + [(1, 5.0, 0.0), (30, 5.0, 0.0)]
    rec = sd_mean_regression(_table(cells))
    assert rec.cells_used == 5 and rec.cells_excluded == 2


def test_slope_invariant_under_response_scaling():
    cells = _power_law_cells(1.176)
    scaled = [(n, 7.3 * mean, 7.3 * sd) for n, mean, sd in cells]
    r1, r2 = sd_mean_regression(_table(cells)), sd_mean_regression(_table(scaled))
    assert r1.slope == pytest.approx(r2.slope, abs=1e-12)
    assert r1.intercept != pytest.approx(r2.intercept, abs=1e-6)


def test_regression_counts_each_unusable_cell_of_a_table():
    # an empty cell is not counted; a singleton, a zero-sd cell and cells with
    # zero or negative mean are counted as excluded
    usable = _power_law_cells(1.0)
    unusable = [(0, 0.0, 0.0), (1, 5.0, 0.0), (30, 5.0, 0.0), (30, 0.0, 1.0), (30, -2.0, 1.0)]
    rec = sd_mean_regression(_table(usable + unusable))
    assert rec.cells_used == 5 and rec.cells_excluded == 4
    assert rec.slope == sd_mean_regression(_table(usable)).slope


def test_regression_excludes_a_non_finite_sd():
    # responses too large to square leave a cell with an infinite or NaN m2
    usable = _power_law_cells(1.0)
    table = _table(usable + [(30, 5.0, 1.0), (30, 6e199, 1.0)])
    m2 = table.m2.copy()
    m2[-2:] = (math.nan, math.inf)
    rec = sd_mean_regression(CellTable(table.layout, table.counts, table.means, m2))
    assert rec.cells_used == 5 and rec.cells_excluded == 2
    assert rec.slope == sd_mean_regression(_table(usable)).slope


def test_regression_reads_sd_from_cell_m2(two_by_two):
    # cells (a1,b1), (a1,b2), (a2,b1) with n = 2, 3, 2; (a2,b2) empty
    rows = [(("a1", "b1"), 1.0), (("a1", "b1"), 3.0),
            (("a1", "b2"), 2.0), (("a1", "b2"), 4.0), (("a1", "b2"), 9.0),
            (("a2", "b1"), 5.0), (("a2", "b1"), 11.0)]
    d = build_dataset(two_by_two, rows)
    rec = sd_mean_regression(d.cells)
    x = np.log10([2.0, 5.0, 8.0])
    y = np.log10([np.sqrt(2.0), np.sqrt(13.0), np.sqrt(18.0)])
    assert rec.cells_used == 3 and rec.cells_excluded == 0
    assert rec.slope == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)


# --- transforms ------------------------------------------------------------------------

def _raw_dataset(values, layout=None):
    layout = layout or FactorLayout([("f", ("x", "y"))])
    return build_dataset(layout, [(("x",), v) for v in values], response_name="los")


def test_log_transform_anchors():
    d = apply_transform(_raw_dataset([1.0, 10.0, 100.0]), "logarithmic")
    assert d.responses.tolist() == [0.0, 1.0, 2.0]
    assert d.response_name == "log10(los)"


def test_none_transform_is_identity():
    d = _raw_dataset([2.0, 3.0])
    assert apply_transform(d, "none") is d


def test_log_requires_positive():
    d = build_dataset(
        FactorLayout([("f", ("x", "y"))]), [(("x",), -1.0)], raw_scale=False
    )
    with pytest.raises(ValidationError, match="positive"):
        apply_transform(d, "logarithmic")
    with pytest.raises(ValidationError, match="unknown transform"):
        apply_transform(d, "boxcox")


def test_transform_keeps_each_observations_cell(two_by_two):
    d = random_dataset(two_by_two, 40, seed=9)
    t = apply_transform(d, "square_root")
    assert t.codes.tolist() == d.codes.tolist()
    assert np.array_equal(t.responses, np.sqrt(d.responses))
