"""Design coding, QR least squares, inference, the published model, significance filter."""

import itertools
import math
import re

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
    significant_terms,
)
from losanova.linmod import (
    CoefficientRow,
    CoefficientTable,
    Term,
    coefficient_table,
    equation_string,
    significant_model,
)
from losanova.synth import cell_mean, reference_cohort_spec

from conftest import level_matrix, random_dataset


# --- design construction ----------------------------------------------------

def _cell_row(X, level_names):
    """The design row of the cell named by its levels."""
    cell = X.layout.resolve_cell(level_names)
    return X.cell_values[np.ravel_multi_index(cell, X.layout.shape)]


def test_reference_coding_rows(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=0)
    X = build_design(d.layout, [Term((1,))])
    spring = _cell_row(X, ("male", "spring", "1"))
    assert spring.tolist() == [1.0, 1.0, 0.0, 0.0]  # intercept + season(1..3)
    winter = _cell_row(X, ("male", "winter", "1"))
    assert winter.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_full_model_has_40_columns(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=0)
    X = build_design(d.layout, full_factorial_terms(cohort_layout))
    # 1 + (1+3+4) + (3+4+12) + 12
    assert X.n_columns == 40
    labels = list(X.labels)
    assert labels[0] == "Intercept"
    assert "season(1)" in labels and "gender(1) * season(3) * age_group(4)" in labels


def test_column_count_is_levels_minus_one():
    layout = FactorLayout([("f", ("a", "b", "c", "d", "e"))])
    d = build_dataset(layout, [(("a",), 1.0), (("e",), 2.0)])
    X = build_design(d.layout, [Term((0,))])
    assert X.n_columns == 5  # intercept + 4


# --- fitting ------------------------------------------------------------------

def test_perfect_fit_zero_residuals():
    layout = FactorLayout([("f", ("a", "b"))])
    d = build_dataset(layout, [(("a",), 3.0), (("a",), 3.0), (("b",), 7.0), (("b",), 7.0)])
    fit = ols_fit(build_design(d.layout, [Term((0,))]), d.cells)
    assert np.allclose(d.responses - fit.cell_fitted[d.codes], 0.0, atol=1e-12)
    assert fit.df_error == 2
    assert fit.sse == pytest.approx(0.0, abs=1e-20)


def test_two_group_closed_form():
    layout = FactorLayout([("g", ("g1", "g2"))])
    rows = [(("g1",), 1.0), (("g1",), 2.0), (("g1",), 3.0), (("g2",), 4.0), (("g2",), 6.0)]
    d = build_dataset(layout, rows)
    fit = ols_fit(build_design(d.layout, [Term((0,))]), d.cells)
    table = coefficient_table(fit)
    intercept = table.row("Intercept")
    slope = table.row("g(1)")
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
    fit = ols_fit(build_design(d.layout, []), d.cells)
    y = d.responses
    assert coefficient_table(fit).row("Intercept").estimate == pytest.approx(float(y.mean()))
    assert fit.sse == pytest.approx(float(((y - y.mean()) ** 2).sum()))


def test_residual_orthogonality(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=9)
    X = build_design(d.layout, full_factorial_terms(cohort_layout, 2))
    fit = ols_fit(X, d.cells)
    e = d.responses - fit.cell_fitted[d.codes]
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
            X = build_design(d.layout, full_factorial_terms(cohort_layout, order))
            fit = ols_fit(X, d.cells)
            assert fit.sse <= sse_prev + 1e-9
            sse_prev = fit.sse


def test_one_factor_fit_recovers_cell_means():
    layout = FactorLayout([("f", ("a", "b", "c"))])
    rows = [(("a",), 1.0), (("a",), 3.0), (("b",), 10.0), (("b",), 14.0), (("c",), 7.0)]
    d = build_dataset(layout, rows)
    fit = ols_fit(build_design(d.layout, [Term((0,))]), d.cells)
    np.testing.assert_allclose(fit.cell_fitted, [2.0, 12.0, 7.0])


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
        X = build_design(d.layout, full_factorial_terms(layout))
        with pytest.raises(RankDeficiencyError) as exc_info:
            ols_fit(X, d.cells)
        assert len(exc_info.value.dependent_columns) >= 1


def test_fit_rejects_a_cell_table_on_another_layout(cohort_layout):
    d = random_dataset(cohort_layout, 60, seed=1)
    X = build_design(d.layout, [Term((0,))])
    margin = d.cells.margin("season", "age_group")
    with pytest.raises(ValidationError, match=r"layout \(\('season'.*design on \(\('gender'"):
        ols_fit(X, margin)
    # the design is the layout's, whatever the sample size
    assert X.n_rows == cohort_layout.n_cells
    other = random_dataset(cohort_layout, 61, seed=2)
    assert ols_fit(X, other.cells).df_error == 61 - X.n_columns


def _row_level_design(layout, levels, order):
    """Observation-level reference-coded model matrix from level indices, in
    build_design's column order, coded independently of the library."""
    n = levels.shape[0]
    codes = []
    for f, k in enumerate(layout.shape):
        basis = np.vstack([np.eye(k - 1), np.zeros(k - 1)])
        codes.append(basis[levels[:, f]])
    cols = [np.ones(n)]
    for size in range(1, order + 1):
        for term in itertools.combinations(range(layout.n_factors), size):
            for combo in itertools.product(*(range(layout.shape[f] - 1) for f in term)):
                cols.append(np.prod([codes[f][:, c] for f, c in zip(term, combo)], axis=0))
    return np.column_stack(cols)


@pytest.mark.parametrize("coding", ["reference"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_cell_fit_matches_row_level_least_squares(cohort_layout, order, coding):
    # unbalanced, with many singleton cells (70 observations over 40 cells)
    d = random_dataset(cohort_layout, 70, seed=100 + order, min_per_cell=1)
    terms = full_factorial_terms(cohort_layout, order)
    fit = ols_fit(build_design(d.layout, terms), d.cells)
    X = _row_level_design(cohort_layout, level_matrix(d), order)
    y = d.responses
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ beta
    sse = float((y - fitted) @ (y - fitted))
    se = np.sqrt(sse / (d.n - X.shape[1]) * np.diag(np.linalg.inv(X.T @ X)))
    assert fit.df_error == d.n - X.shape[1]
    np.testing.assert_allclose(fit.estimates, beta, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose([r.se for r in coefficient_table(fit).rows], se, rtol=1e-9)
    np.testing.assert_allclose(fit.cell_fitted[d.codes], fitted, rtol=1e-9)
    assert fit.sse == pytest.approx(sse, rel=1e-9)

    # responses of 1e6 + N(0, 1): a one-pass sum(y^2) - n * mean^2 per cell
    # loses the SSE to cancellation, the two-pass cell m2 keeps it
    rng = np.random.default_rng(200 + order)
    shifted = Dataset(cohort_layout, d.codes, 1e6 + rng.normal(size=d.n))
    fit = ols_fit(build_design(shifted.layout, terms), shifted.cells)
    y = shifted.responses
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ beta
    assert fit.sse == pytest.approx(float(r @ r), rel=1e-9)


@pytest.mark.parametrize("coding", ["reference"])
def test_cov_unscaled_is_read_only_inverse_cross_product(cohort_layout, coding):
    d = random_dataset(cohort_layout, 120, seed=31, min_per_cell=1)
    X = build_design(d.layout, full_factorial_terms(cohort_layout))
    fit = ols_fit(X, d.cells)
    xtwx = X.cell_values.T @ (X.cell_values * d.cells.counts[:, None])
    np.testing.assert_allclose(fit.cov_unscaled, np.linalg.inv(xtwx), rtol=1e-10)
    with pytest.raises(ValueError):
        fit.cov_unscaled[0, 0] = 1.0


def test_ci_matches_t_quantile(cohort_layout):
    from losanova import t_quantile

    d = random_dataset(cohort_layout, 200, seed=21)
    fit = ols_fit(build_design(d.layout, full_factorial_terms(cohort_layout, 1)), d.cells)
    t_crit = t_quantile(0.975, fit.df_error)
    for row in coefficient_table(fit, 0.05).rows:
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
    fit = ols_fit(build_design(d.layout, [Term((0,))]), d.cells)
    row = coefficient_table(fit).row("g(1)")
    with mpmath.workdps(50):
        groups = [[mpmath.mpf(v) for v in noise], [mpmath.mpf(1.0 + v) for v in noise]]
        means = [sum(g) / 21 for g in groups]
        sse = sum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
        t = (means[0] - means[1]) / mpmath.sqrt(sse / 40 * (mpmath.mpf(2) / 21))
        p = mpmath.betainc(20, 0.5, 0, 40 / (40 + t * t), regularized=True)
        assert row.t == pytest.approx(float(t), rel=1e-10, abs=0.0)
        assert 1e-17 < p < 1e-12
        assert row.p == pytest.approx(float(p), rel=1e-10, abs=0.0)


# --- the published model -----------------------------------------------------

def _published_mean(level_names):
    """The synthetic cohort's log-scale cell mean: the sum of the published
    coefficients whose terms match the cell."""
    spec = reference_cohort_spec()
    return cell_mean(spec, spec.layout.resolve_cell(level_names))


def test_predict_reference_cell():
    assert _published_mean(("female", "winter", "5")) == pytest.approx(0.573)


def test_predict_single_term():
    assert _published_mean(("female", "winter", "2")) == pytest.approx(0.734)


def test_predict_manual_expansion():
    # male, summer, age group 2: intercept + age2 + summer + age2*summer
    expected = 0.573 + 0.161 - 0.032 - 0.056
    assert _published_mean(("male", "summer", "2")) == pytest.approx(expected)
    # male, autumn, age group 3: intercept + age3 + age3*male
    assert _published_mean(("male", "autumn", "3")) == pytest.approx(
        0.573 + 0.091 + 0.133
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
    fit = ols_fit(build_design(d.layout, full_factorial_terms(cohort_layout, 1)),
                  d.cells)
    for alpha in (0.01, 0.05, 0.5):
        table = coefficient_table(fit, alpha)
        equation = significant_model(table, response_name="y")
        assert equation.startswith("y = ")
        # the filter runs at the table's own alpha
        assert re.findall(r"\[(.*?)\]", equation) == [
            r.label for r in table.rows if r.label != "Intercept" and r.p <= alpha
        ]
