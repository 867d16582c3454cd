"""Residual diagnostics and variance-stabilizing transform selection."""

import math

import numpy as np
import pytest

from losanova import (
    CellTable,
    FactorLayout,
    ValidationError,
    apply_transform,
    back_transform,
    build_dataset,
    build_design,
    normal_cdf,
    ols_fit,
    pp_plot,
    predict,
    residual_histogram,
    residual_vs_fitted,
    residuals,
    sd_mean_regression,
)
from losanova.linmod import Term, full_factorial_terms

from conftest import random_dataset


# --- residuals -----------------------------------------------------------------

def test_saturated_model_zero_residuals(two_by_two):
    rows = [(("a1", "b1"), 2.0)] * 2 + [(("a1", "b2"), 5.0)] * 2 \
        + [(("a2", "b1"), 3.0)] * 2 + [(("a2", "b2"), 9.0)] * 2
    d = build_dataset(two_by_two, rows)
    fit = ols_fit(build_design(d, full_factorial_terms(two_by_two), "reference"),
                  d.cells)
    assert np.allclose(residuals(d, fit), 0.0, atol=1e-12)


def test_intercept_only_residuals_center(two_by_two):
    d = random_dataset(two_by_two, 25, seed=4)
    fit = ols_fit(build_design(d, [], "reference"), d.cells)
    e = residuals(d, fit)
    assert float(e.sum()) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(e, d.responses - d.responses.mean())


def test_residuals_match_prediction_oracle(two_by_two):
    d = random_dataset(two_by_two, 30, seed=6)
    fit = ols_fit(build_design(d, [Term((0,)), Term((1,))], "reference"), d.cells)
    e = residuals(d, fit)
    for i, (levels, y) in enumerate(zip(d.level_matrix, d.responses)):
        yhat = predict(fit, d.layout.cell_names(levels))
        assert e[i] == pytest.approx(y - yhat, abs=1e-10)


# --- histogram --------------------------------------------------------------------

def test_histogram_hand_binned():
    h = residual_histogram(np.array([-1.0, 0.0, 1.0]), bins=2)
    assert h.edges == (-1.0, 0.0, 1.0)
    assert h.counts == (1, 2)


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
    spread = residual_vs_fitted(e, fitted)
    assert spread.funnel_ratio == pytest.approx(1.0, abs=0.15)
    assert list(spread.fitted) == sorted(spread.fitted)


def test_funnel_detects_sd_proportional_to_mean():
    rng = np.random.default_rng(13)
    fitted = rng.uniform(1.0, 10.0, size=2000)
    e = rng.normal(0.0, 0.2 * fitted)
    spread = residual_vs_fitted(e, fitted)
    assert spread.funnel_ratio > 1.5


def test_funnel_undefined_for_single_fitted_value():
    spread = residual_vs_fitted(np.array([1.0, -1.0, 0.5]), np.full(3, 2.0))
    assert spread.funnel_ratio is None


def test_series_are_read_only_float_arrays():
    e = np.array([0.3, -1.0, 0.7])
    spread = residual_vs_fitted(e, np.array([2.0, 1.0, 3.0]))
    pp = pp_plot(e)
    assert np.array_equal(spread.fitted, [1.0, 2.0, 3.0])
    assert np.array_equal(spread.residuals, [-1.0, 0.3, 0.7])
    for series in (spread.fitted, spread.residuals, pp.empirical, pp.theoretical):
        assert series.dtype == np.float64 and not series.flags.writeable


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
    assert d.transform == "logarithmic"
    assert d.response_name == "log10(los)"


def test_back_transform_round_trip():
    values = np.array([0.3, 1.0, 2.5, 84.0, 1234.5])
    d = _raw_dataset(list(values))
    for transform in ("none", "square_root", "logarithmic",
                      "reciprocal_square_root", "reciprocal"):
        t = apply_transform(d, transform)
        rt = back_transform(t.responses, transform)
        assert np.allclose(rt, values, rtol=1e-12)
    assert back_transform(2.0, "logarithmic") == pytest.approx(100.0)


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
