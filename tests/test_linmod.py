"""Design coding, QR least squares, inference, prediction, significance filter."""

import itertools
import math

import numpy as np
import pytest

from losanova import (
    Dataset,
    FactorLayout,
    RankDeficiencyError,
    ValidationError,
    build_dataset,
    build_design,
    full_factorial_terms,
    ols_fit,
    predict,
    residuals,
    significant_terms,
)
from losanova.linmod import (
    CoefficientRow,
    CoefficientTable,
    FitResult,
    Term,
    equation_string,
    significant_model,
)
from losanova.synth import default_layout

from conftest import random_dataset


# --- design construction ----------------------------------------------------

def _cell_row(X, level_names):
    """The design row of the cell named by its levels."""
    cell = X.layout.resolve_cell(level_names)
    return X.cell_values[np.ravel_multi_index(cell, X.layout.shape)]


def test_reference_coding_rows(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=0)
    X = build_design(d, [Term((1,))], "reference")
    spring = _cell_row(X, ("male", "spring", "1"))
    assert spring.tolist() == [1.0, 1.0, 0.0, 0.0]  # intercept + season(1..3)
    winter = _cell_row(X, ("male", "winter", "1"))
    assert winter.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_deviation_coding_rows(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=0)
    X = build_design(d, [Term((1,))], "deviation")
    winter = _cell_row(X, ("male", "winter", "1"))
    assert winter.tolist() == [1.0, -1.0, -1.0, -1.0]


def test_full_model_has_40_columns(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=0)
    X = build_design(d, full_factorial_terms(cohort_layout), "reference")
    # 1 + (1+3+4) + (3+4+12) + 12
    assert X.n_columns == 40
    labels = [c.label for c in X.columns]
    assert labels[0] == "Intercept"
    assert "season(1)" in labels and "gender(1) * season(3) * age_group(4)" in labels


def test_column_count_is_levels_minus_one():
    layout = FactorLayout([("f", ("a", "b", "c", "d", "e"))])
    d = build_dataset(layout, [(("a",), 1.0), (("e",), 2.0)])
    for coding in ("reference", "deviation"):
        X = build_design(d, [Term((0,))], coding)
        assert X.n_columns == 5  # intercept + 4


# --- fitting ------------------------------------------------------------------

def test_perfect_fit_zero_residuals():
    layout = FactorLayout([("f", ("a", "b"))])
    d = build_dataset(layout, [(("a",), 3.0), (("a",), 3.0), (("b",), 7.0), (("b",), 7.0)])
    fit = ols_fit(build_design(d, [Term((0,))], "reference"), d.cells)
    assert np.allclose(residuals(d, fit), 0.0, atol=1e-12)
    assert fit.df_error == 2
    assert fit.sse == pytest.approx(0.0, abs=1e-20)


def test_two_group_closed_form():
    layout = FactorLayout([("g", ("g1", "g2"))])
    rows = [(("g1",), 1.0), (("g1",), 2.0), (("g1",), 3.0), (("g2",), 4.0), (("g2",), 6.0)]
    d = build_dataset(layout, rows)
    fit = ols_fit(build_design(d, [Term((0,))], "reference"), d.cells)
    intercept = fit.coefficients.row("Intercept")
    slope = fit.coefficients.row("g(1)")
    # reference level is g2, so the intercept is the g2 mean
    assert intercept.estimate == pytest.approx(5.0)
    assert slope.estimate == pytest.approx(2.0 - 5.0)
    mse = 4.0 / 3.0  # SSE = 2 + 2 over df = 3
    assert fit.mse == pytest.approx(mse)
    assert intercept.se == pytest.approx(math.sqrt(mse / 2.0))
    assert slope.se == pytest.approx(math.sqrt(mse * (1 / 3 + 1 / 2)))
    # two-sample t against the closed form
    assert slope.t == pytest.approx(-3.0 / math.sqrt(mse * 5 / 6))


def test_intercept_only_model(cohort_layout):
    d = random_dataset(cohort_layout, 40, seed=5)
    fit = ols_fit(build_design(d, [], "reference"), d.cells)
    y = d.responses
    assert fit.coefficients.row("Intercept").estimate == pytest.approx(float(y.mean()))
    assert fit.sse == pytest.approx(float(((y - y.mean()) ** 2).sum()))


def test_residual_orthogonality(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=9)
    X = build_design(d, full_factorial_terms(cohort_layout, 2), "deviation")
    fit = ols_fit(X, d.cells)
    e = residuals(d, fit)
    norm_e = np.linalg.norm(e)
    for j in range(X.n_columns):
        col = X.cell_values[d.codes, j]
        assert abs(col @ e) <= 1e-8 * np.linalg.norm(col) * norm_e


def test_nesting_never_increases_sse(cohort_layout):
    rng_seeds = (3, 4, 5)
    for seed in rng_seeds:
        d = random_dataset(cohort_layout, 150, seed=seed, min_per_cell=2)
        sse_prev = math.inf
        for order in (1, 2, 3):
            X = build_design(d, full_factorial_terms(cohort_layout, order), "deviation")
            fit = ols_fit(X, d.cells)
            assert fit.sse <= sse_prev + 1e-9
            sse_prev = fit.sse


def test_one_factor_fit_recovers_cell_means():
    layout = FactorLayout([("f", ("a", "b", "c"))])
    rows = [(("a",), 1.0), (("a",), 3.0), (("b",), 10.0), (("b",), 14.0), (("c",), 7.0)]
    d = build_dataset(layout, rows)
    fit = ols_fit(build_design(d, [Term((0,))], "reference"), d.cells)
    assert predict(fit, ("a",)) == pytest.approx(2.0)
    assert predict(fit, ("b",)) == pytest.approx(12.0)
    assert predict(fit, ("c",)) == pytest.approx(7.0)


def test_rank_deficiency_names_columns():
    layout = FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2"))])
    # cell (a2, b2) empty -> interaction column collinear
    rows = [
        (("a1", "b1"), 1.0), (("a1", "b1"), 2.0),
        (("a1", "b2"), 3.0), (("a1", "b2"), 2.5),
        (("a2", "b1"), 4.0), (("a2", "b1"), 5.0),
    ]
    # fewer observations (2) than columns (4)
    too_few = [(("a1", "b1"), 1.0), (("a2", "b2"), 2.0)]
    for data in (rows, too_few):
        d = build_dataset(layout, data)
        X = build_design(d, full_factorial_terms(layout), "reference")
        with pytest.raises(RankDeficiencyError) as exc_info:
            ols_fit(X, d.cells)
        assert len(exc_info.value.dependent_columns) >= 1


def test_fit_and_residuals_reject_another_datasets_cells(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=1)
    other = random_dataset(cohort_layout, 61, seed=2)
    X = build_design(d, [Term((0,))], "reference")
    with pytest.raises(ValidationError, match="61 observations"):
        ols_fit(X, other.cells)
    with pytest.raises(ValidationError, match="dataset has 61"):
        residuals(other, ols_fit(X, d.cells))


def _row_level_design(layout, levels, order, coding):
    """Observation-level model matrix from level indices, in build_design's
    column order, coded independently of the library."""
    n = levels.shape[0]
    codes = []
    for f, k in enumerate(layout.shape):
        basis = np.vstack([np.eye(k - 1), -np.ones(k - 1) if coding == "deviation"
                           else np.zeros(k - 1)])
        codes.append(basis[levels[:, f]])
    cols = [np.ones(n)]
    for size in range(1, order + 1):
        for term in itertools.combinations(range(layout.n_factors), size):
            for combo in itertools.product(*(range(layout.shape[f] - 1) for f in term)):
                cols.append(np.prod([codes[f][:, c] for f, c in zip(term, combo)], axis=0))
    return np.column_stack(cols)


@pytest.mark.parametrize("coding", ["reference", "deviation"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_cell_fit_matches_row_level_least_squares(cohort_layout, order, coding):
    # unbalanced, with many singleton cells (70 observations over 40 cells)
    d = random_dataset(cohort_layout, 70, seed=100 + order, min_per_cell=1)
    terms = full_factorial_terms(cohort_layout, order)
    fit = ols_fit(build_design(d, terms, coding), d.cells)
    X = _row_level_design(cohort_layout, d.level_matrix, order, coding)
    y = d.responses
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ beta
    sse = float((y - fitted) @ (y - fitted))
    se = np.sqrt(sse / (d.n - X.shape[1]) * np.diag(np.linalg.inv(X.T @ X)))
    assert fit.df_error == d.n - X.shape[1]
    np.testing.assert_allclose(fit.estimates, beta, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose([r.se for r in fit.coefficients.rows], se, rtol=1e-9)
    np.testing.assert_allclose(fit.cell_fitted[d.codes], fitted, rtol=1e-9)
    assert fit.sse == pytest.approx(sse, rel=1e-9)

    # responses of 1e6 + N(0, 1): a one-pass sum(y^2) - n * mean^2 per cell
    # loses the SSE to cancellation, the two-pass cell m2 keeps it
    rng = np.random.default_rng(200 + order)
    shifted = Dataset(cohort_layout, d.codes, 1e6 + rng.normal(size=d.n))
    fit = ols_fit(build_design(shifted, terms, coding), shifted.cells)
    y = shifted.responses
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ beta
    assert fit.sse == pytest.approx(float(r @ r), rel=1e-9)


@pytest.mark.parametrize("coding", ["reference", "deviation"])
def test_cov_unscaled_is_read_only_inverse_cross_product(cohort_layout, coding):
    d = random_dataset(cohort_layout, 120, seed=31, min_per_cell=1)
    X = build_design(d, full_factorial_terms(cohort_layout), coding)
    fit = ols_fit(X, d.cells)
    xtwx = X.cell_values.T @ (X.cell_values * d.cells.counts[:, None])
    np.testing.assert_allclose(fit.cov_unscaled, np.linalg.inv(xtwx), rtol=1e-10)
    with pytest.raises(ValueError):
        fit.cov_unscaled[0, 0] = 1.0


def test_ci_matches_t_quantile(cohort_layout):
    from losanova import t_quantile

    d = random_dataset(cohort_layout, 200, seed=21)
    fit = ols_fit(build_design(d, full_factorial_terms(cohort_layout, 1), "reference"),
                  d.cells, alpha=0.05)
    t_crit = t_quantile(0.975, fit.df_error)
    for row in fit.coefficients.rows:
        assert row.ci_low == pytest.approx(row.estimate - t_crit * row.se, rel=1e-12)
        assert row.ci_high == pytest.approx(row.estimate + t_crit * row.se, rel=1e-12)
        assert row.p == pytest.approx(
            2 * (1 - __import__("losanova").t_cdf(abs(row.t), fit.df_error)), abs=1e-12
        )


def test_large_t_p_value_matches_mpmath():
    # two groups of 21, means 1 apart: t = -13.7 on 40 df and p = 1.05e-16,
    # which 2 * (1 - F(|t|)) loses to cancellation (it gives 0)
    import mpmath

    layout = FactorLayout([("g", ("g1", "g2"))])
    noise = [2.0 + math.sin(1.7 * k) / 3.0 for k in range(21)]
    rows = [(("g1",), v) for v in noise] + [(("g2",), 1.0 + v) for v in noise]
    d = build_dataset(layout, rows)
    fit = ols_fit(build_design(d, [Term((0,))], "reference"), d.cells)
    row = fit.coefficients.row("g(1)")
    with mpmath.workdps(50):
        groups = [[mpmath.mpf(v) for v in noise], [mpmath.mpf(1.0 + v) for v in noise]]
        means = [sum(g) / 21 for g in groups]
        sse = sum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
        t = (means[0] - means[1]) / mpmath.sqrt(sse / 40 * (mpmath.mpf(2) / 21))
        p = mpmath.betainc(20, 0.5, 0, 40 / (40 + t * t), regularized=True)
        assert row.t == pytest.approx(float(t), rel=1e-10, abs=0.0)
        assert 1e-17 < p < 1e-12
        assert row.p == pytest.approx(float(p), rel=1e-10, abs=0.0)


# --- prediction with published coefficients ------------------------------------

PUBLISHED_TERMS = [Term((2,)), Term((1,)), Term((1, 2)), Term((0, 2))]
PUBLISHED_VALUES = {
    "Intercept": 0.573,
    "age_group(2)": 0.161,
    "age_group(3)": 0.091,
    "season(1)": -0.037,
    "season(2)": -0.032,
    "season(2) * age_group(2)": -0.056,
    "gender(1) * age_group(3)": 0.133,
    "gender(1) * age_group(4)": 0.053,
}


@pytest.fixture
def published_fit():
    return FitResult.from_coefficients(
        default_layout(), PUBLISHED_TERMS, "reference", PUBLISHED_VALUES
    )


def test_predict_reference_cell(published_fit):
    assert predict(published_fit, ("female", "winter", "5")) == pytest.approx(0.573)


def test_predict_single_term(published_fit):
    assert predict(published_fit, ("female", "winter", "2")) == pytest.approx(0.734)


def test_predict_manual_expansion(published_fit):
    # male, summer, age group 2: intercept + age2 + summer + age2*summer
    expected = 0.573 + 0.161 - 0.032 - 0.056
    assert predict(published_fit, ("male", "summer", "2")) == pytest.approx(expected)
    # male, autumn, age group 3: intercept + age3 + age3*male
    assert predict(published_fit, ("male", "autumn", "3")) == pytest.approx(
        0.573 + 0.091 + 0.133
    )


def test_from_coefficients_rejects_unknown_labels():
    with pytest.raises(ValidationError, match="unknown"):
        FitResult.from_coefficients(
            default_layout(), PUBLISHED_TERMS, "reference", {"bogus(9)": 1.0}
        )


# --- significance filter --------------------------------------------------------

def _published_coefficient_table():
    nan = float("nan")
    entries = [
        ("Intercept", 0.573, 0.0),
        ("age_group(2)", 0.161, 0.0),
        ("age_group(3)", 0.091, 0.0),
        ("season(1)", -0.037, 0.001),
        ("season(2)", -0.032, 0.005),
        ("season(2) * age_group(2)", -0.056, 0.030),
        ("gender(1) * age_group(3)", 0.133, 0.0),
        ("gender(1) * age_group(4)", 0.053, 0.001),
        ("gender(1) * season(3)", 0.031, 0.056),
    ]
    rows = tuple(
        CoefficientRow(label, b, nan, nan, p, nan, nan) for label, b, p in entries
    )
    return CoefficientTable(rows)


def test_significance_filter_at_005():
    table = significant_terms(_published_coefficient_table(), alpha=0.05)
    assert len(table.rows) == 8  # the borderline p=.056 interaction drops out
    assert "gender(1) * season(3)" not in table.labels


def test_significance_filter_at_001():
    table = significant_terms(_published_coefficient_table(), alpha=0.01)
    assert "season(2) * age_group(2)" not in table.labels  # p = .030 drops
    assert "season(2)" in table.labels  # p = .005 stays
    assert "Intercept" in table.labels


def test_significance_filter_keeps_intercept_when_nothing_passes():
    nan = float("nan")
    table = CoefficientTable(
        (
            CoefficientRow("Intercept", 1.0, nan, nan, 0.9, nan, nan),
            CoefficientRow("f(1)", 0.5, nan, nan, 0.7, nan, nan),
        )
    )
    reduced = significant_terms(table, alpha=0.05)
    assert reduced.labels == ("Intercept",)


def test_equation_string_format():
    table = significant_terms(_published_coefficient_table(), alpha=0.05)
    eq = equation_string(table, "logstay")
    assert eq.startswith("logstay = 0.573 + 0.161[age_group(2)]")
    assert "- 0.037[season(1)]" in eq
    assert "[gender(1) * season(3)]" not in eq


def test_significant_model_on_real_fit(cohort_layout):
    d = random_dataset(cohort_layout, 150, seed=2)
    fit = ols_fit(build_design(d, full_factorial_terms(cohort_layout, 1), "reference"),
                  d.cells)
    model = significant_model(fit, 0.05, response_name="y")
    assert model.equation.startswith("y = ")
    assert model.table.labels[0] == "Intercept"
