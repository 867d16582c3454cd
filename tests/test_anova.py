"""Type III engine against independent least-squares oracles and published
table structure."""

import itertools
import math

import numpy as np
import pytest

from losanova import anova, linmod, posthoc
from losanova import (
    CellTable,
    Dataset,
    FactorLayout,
    ValidationError,
    apply_transform,
    build_dataset,
    build_design,
    coefficient_table,
    df_check,
    generate,
    ols_fit,
    reference_cohort_spec,
    sd_mean_regression,
    significance_summary,
    type3_anova,
    type3_contrast,
    wald,
)
from losanova.anova import AnovaRow, AnovaTable
from losanova.linmod import Term, full_factorial_terms
from losanova.synth import REFERENCE_CELL_COUNTS

from conftest import (
    count_table,
    effect_rows,
    level_matrix,
    published_margin,
    random_dataset,
)


# --- independent brute-force oracle (numpy only, own encoder) -----------------

def _dev_main_columns(codes, k):
    return [
        (codes == j).astype(float) - (codes == k - 1).astype(float)
        for j in range(k - 1)
    ]


def _reference_main_columns(codes, k):
    return [(codes == j).astype(float) for j in range(k - 1)]


def _oracle_design(levels, shape, terms, main_columns=_dev_main_columns):
    n = levels.shape[0]
    mains = [main_columns(levels[:, f], k) for f, k in enumerate(shape)]
    cols = [np.ones(n)]
    owners = [None]
    for term in terms:
        for combo in itertools.product(*(range(len(mains[f])) for f in term)):
            col = np.ones(n)
            for f, j in zip(term, combo):
                col = col * mains[f][j]
            cols.append(col)
            owners.append(term)
    return np.column_stack(cols), owners


def _oracle_sse(X, y):
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ beta
    return float(r @ r)


def brute_force_type3(d, terms=None):
    """Each term's SSE(model without the term's sum-to-zero columns) -
    SSE(model), and the model's SSE. Terms are tuples of factor indices; the
    default is the full factorial."""
    shape = d.layout.shape
    if terms is None:
        terms = [
            combo
            for order in range(1, len(shape) + 1)
            for combo in itertools.combinations(range(len(shape)), order)
        ]
    X_full, owners = _oracle_design(level_matrix(d), shape, terms)
    sse_full = _oracle_sse(X_full, d.responses)
    out = {}
    for term in terms:
        keep = [i for i, owner in enumerate(owners) if owner != term]
        out[term] = _oracle_sse(X_full[:, keep], d.responses) - sse_full
    return out, sse_full


def _sequential_ss(d, terms):
    """Type I SS via incremental fits (balanced-case oracle)."""
    included = []
    sse_prev = ols_fit(build_design(d.layout, []), d.cells).sse
    out = {}
    for term in terms:
        included.append(term)
        sse = ols_fit(build_design(d.layout, included), d.cells).sse
        out[term] = sse_prev - sse
        sse_prev = sse
    return out


def _label(layout, term):
    indices = term.factor_indices if isinstance(term, Term) else term
    return " * ".join(layout.names[i] for i in indices)


# --- core equivalences ---------------------------------------------------------

def test_balanced_type3_equals_sequential(two_by_two):
    rng = np.random.default_rng(1)
    rows = []
    for a in ("a1", "a2"):
        for b in ("b1", "b2"):
            for _ in range(4):
                rows.append(((a, b), float(rng.normal(0, 1) + 5)))
    d = build_dataset(two_by_two, rows)
    table = type3_anova(d.cells)
    seq = _sequential_ss(d, full_factorial_terms(two_by_two))
    for term, ss_seq in seq.items():
        ss3 = table.row(_label(two_by_two, term)).ss
        assert ss3 == pytest.approx(ss_seq, rel=1e-10, abs=1e-10)


def test_unbalanced_2x2_matches_brute_force(two_by_two):
    rows = (
        [(("a1", "b1"), y) for y in (1.0, 2.0, 4.0)]
        + [(("a1", "b2"), y) for y in (2.0, 5.0)]
        + [(("a2", "b1"), y) for y in (3.0, 3.5)]
        + [(("a2", "b2"), 8.0), (("a2", "b2"), 6.0)]
    )
    d = build_dataset(two_by_two, rows)
    table = type3_anova(d.cells)
    oracle, sse_full = brute_force_type3(d)
    for term, ss_ref in oracle.items():
        got = table.row(_label(two_by_two, term)).ss
        assert got == pytest.approx(ss_ref, rel=1e-8, abs=1e-10)
    assert table.row("Error").ss == pytest.approx(sse_full, rel=1e-10)


def _assert_matches_oracle(d, max_order):
    terms = [t.factor_indices for t in full_factorial_terms(d.layout, max_order)]
    table = type3_anova(d.cells, max_order)
    oracle, sse = brute_force_type3(d, terms)
    assert [r.source for r in effect_rows(table)] == [_label(d.layout, t) for t in terms]
    for term, ss_ref in oracle.items():
        got = table.row(_label(d.layout, term)).ss
        assert got == pytest.approx(ss_ref, rel=1e-8, abs=1e-9), (max_order, term)
    assert table.row("Error").ss == pytest.approx(sse, rel=1e-10)


_ORACLE_LAYOUTS = [
    FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2"))]),
    FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2", "b3")), ("c", ("c1", "c2"))]),
]


def test_random_unbalanced_designs_match_oracle():
    rng = np.random.default_rng(99)
    for trial in range(12):
        layout = _ORACLE_LAYOUTS[trial % 2]
        d = random_dataset(layout, int(rng.integers(30, 61)), seed=1000 + trial,
                           min_per_cell=1)
        for max_order in range(1, layout.n_factors + 1):
            _assert_matches_oracle(d, max_order)


def test_reduced_models_with_empty_cells_match_oracle():
    # 14 to 30 observations over 12 cells leave some cells empty; a reduced
    # model is tested when every cell its terms span is occupied and the
    # oracle's design has full rank
    layout = _ORACLE_LAYOUTS[1]
    rng = np.random.default_rng(314)
    checked = set()
    for trial in range(60):
        d = random_dataset(layout, int(rng.integers(14, 31)), seed=5000 + trial)
        if (d.cells.counts > 0).all():
            continue
        for max_order in (1, 2):
            terms = [t.factor_indices for t in full_factorial_terms(layout, max_order)]
            if any((d.cells.margin(*t).counts == 0).any() for t in terms):
                continue
            X, _ = _oracle_design(level_matrix(d), layout.shape, terms)
            if np.linalg.matrix_rank(X) < X.shape[1]:
                continue
            _assert_matches_oracle(d, max_order)
            checked.add((trial, max_order))
    assert len({order for _, order in checked}) == 2 and len(checked) >= 40


def _mp_normal_equations(X, counts, means):
    """X'NX (an exact integer matrix) and the count-weighted least-squares
    coefficients of the cell means on the integer matrix X, solved in mpmath."""
    import mpmath

    xtwx = mpmath.matrix(((X.T * counts) @ X).tolist())
    weighted = [int(n) * m for n, m in zip(counts, means)]
    xtwy = mpmath.matrix([mpmath.fsum(int(x) * w for x, w in zip(col, weighted))
                          for col in X.T])
    return xtwx, mpmath.cholesky_solve(xtwx, xtwy)


def _mp_gap_sse(X, counts, means):
    """sum n_c (mean_c - fitted_c)^2 of the count-weighted least-squares fit of
    the cell means on X, in mpmath."""
    import mpmath

    X = X.astype(np.int64)
    _, beta = _mp_normal_equations(X, counts, means)
    total = mpmath.mpf(0)
    for row, n, m in zip(X, counts, means):
        gap = m - mpmath.fsum(int(x) * b for x, b in zip(row, beta))
        total += int(n) * gap * gap
    return total


def test_paper_cohort_type3_matches_50_digit_model_comparison():
    """Seed-11 N = 82,718 log10 cohort: every Type III SS against SSE(reduced)
    - SSE(full) evaluated at 50 digits on the 40 cell means (the within-cell
    SS is common to both fits and cancels exactly)."""
    import mpmath

    from losanova.diagnostics import apply_transform
    from losanova.synth import generate, reference_cohort_spec

    d = apply_transform(generate(reference_cohort_spec(n=82718, seed=11)), "logarithmic")
    table = type3_anova(d.cells)
    shape = d.layout.shape
    terms = [
        combo
        for order in range(1, len(shape) + 1)
        for combo in itertools.combinations(range(len(shape)), order)
    ]
    cell_levels = np.indices(shape).reshape(len(shape), -1).T
    X_full, owners = _oracle_design(cell_levels, shape, terms)
    counts = d.cells.counts.astype(np.int64)
    with mpmath.workdps(50):
        means = [mpmath.mpf(float(m)) for m in d.cells.means]
        sse_full = _mp_gap_sse(X_full, counts, means)
        for term in [None] + terms:
            keep = [i for i, owner in enumerate(owners) if owner != term]
            exact = _mp_gap_sse(X_full[:, keep], counts, means) - sse_full
            source = "Intercept" if term is None else _label(d.layout, term)
            assert table.row(source).ss == pytest.approx(float(exact), rel=2e-13), source


@pytest.mark.parametrize("cohort", ["paper log10", "paper none", "oracle layout"])
def test_fit_matches_50_digit_normal_equations(cohort):
    """The fit's estimates and (X'NX)^-1 against the normal equations solved
    at 50 digits on the cell means, with the reference-coded design encoded
    here: the seed-11 N = 82,718 cohort under log10 and no transform, and an
    unbalanced 2x3x2 cohort at max order 2. Each is within 1e-11 of the
    largest |entry|."""
    import mpmath

    from losanova.diagnostics import apply_transform

    if cohort == "oracle layout":
        d, max_order = random_dataset(_ORACLE_LAYOUTS[1], 60, seed=43, min_per_cell=1), 2
    else:
        d, max_order = generate(reference_cohort_spec(n=82718, seed=11)), None
        d = apply_transform(d, "logarithmic" if cohort == "paper log10" else "none")
    layout = d.layout
    terms = full_factorial_terms(layout, max_order)
    fit = ols_fit(build_design(layout, terms), d.cells)
    cell_levels = np.indices(layout.shape).reshape(layout.n_factors, -1).T
    X, _ = _oracle_design(cell_levels, layout.shape, [t.factor_indices for t in terms],
                          _reference_main_columns)
    with mpmath.workdps(50):
        means = [mpmath.mpf(float(m)) for m in d.cells.means]
        xtwx, beta = _mp_normal_equations(X.astype(np.int64), d.cells.counts, means)
        exact_cov = np.array(mpmath.inverse(xtwx).tolist(), dtype=float)
    exact_estimates = np.array([float(b) for b in beta])
    for got, exact in ((fit.estimates, exact_estimates), (fit.cov_unscaled, exact_cov)):
        assert np.abs(got - exact).max() <= 1e-11 * np.abs(exact).max()


def test_saturated_responses_zero_error(two_by_two):
    # responses equal their cell means exactly
    rows = (
        [(("a1", "b1"), 2.0)] * 3
        + [(("a1", "b2"), 5.0)] * 2
        + [(("a2", "b1"), 1.0)] * 2
        + [(("a2", "b2"), 4.0)] * 2
    )
    d = build_dataset(two_by_two, rows)
    table = type3_anova(d.cells)
    assert table.row("Error").ss == pytest.approx(0.0, abs=1e-18)


# --- a cell table is enough input ------------------------------------------------

def test_cell_table_is_enough_input(cohort_layout):
    for module in (anova, linmod, posthoc):
        assert not hasattr(module, "Dataset"), module.__name__
    cohorts = [generate(reference_cohort_spec(n=8000, seed=7)),
               random_dataset(cohort_layout, 500, seed=31, min_per_cell=1)]
    for d in cohorts:
        # a table built straight from the arrays is the dataset's own table
        rebuilt = CellTable(d.layout, d.cells.counts.tolist(), d.cells.means.tolist(),
                            d.cells.m2.tolist())
        assert type3_anova(rebuilt).rows == type3_anova(d.cells).rows

        # the two-factor margin against the observations recoded onto its layout
        margin = d.cells.margin("season", "age_group")
        levels = level_matrix(d)
        recoded = Dataset(margin.layout,
                          np.ravel_multi_index((levels[:, 1], levels[:, 2]),
                                               margin.layout.shape),
                          d.responses, response_name=d.response_name)
        got = type3_anova(margin, response_name=d.response_name)
        want = type3_anova(recoded.cells, response_name=recoded.response_name)
        assert got.response_name == want.response_name == d.response_name
        assert [r.source for r in got.rows] == [r.source for r in want.rows]
        for g, w in zip(got.rows, want.rows):
            assert g.df == w.df, g.source
            assert g.ss == pytest.approx(w.ss, rel=1e-12, abs=0), g.source
            if w.f is not None:
                assert g.f == pytest.approx(w.f, rel=1e-12, abs=0), g.source


# --- every row is one Wald statistic ------------------------------------------------

def _wald_cohorts():
    """A log10 reference cohort and a small unbalanced one on the 2x3x2 layout."""
    return [apply_transform(generate(reference_cohort_spec(n=8000, seed=7)), "logarithmic"),
            random_dataset(_ORACLE_LAYOUTS[1], 60, seed=41, min_per_cell=2)]


def test_wald_of_one_coefficient_is_its_t_squared():
    for d in _wald_cohorts():
        fit = type3_anova(d.cells).fit
        p = fit.design.n_columns
        for i, row in enumerate(coefficient_table(fit).rows):
            ss, df = wald(np.eye(p)[[i]], fit)
            assert df == 1
            assert ss == pytest.approx(row.t ** 2 * fit.mse, rel=1e-12, abs=0), row.label


def test_joint_wald_is_the_brute_force_model_comparison():
    # the first factor's main effect stacked on its interaction with the
    # third, against dropping both terms' sum-to-zero columns at once
    for d in _wald_cohorts():
        layout = d.layout
        fit = type3_anova(d.cells).fit
        L = np.vstack([type3_contrast(layout, (0,)), type3_contrast(layout, (0, 2))])
        ss, df = wald(L @ fit.design.cell_values, fit)

        terms = [t.factor_indices for t in full_factorial_terms(layout)]
        X, owners = _oracle_design(level_matrix(d), layout.shape, terms)
        keep = [i for i, owner in enumerate(owners) if owner not in {(0,), (0, 2)}]
        exact = _oracle_sse(X[:, keep], d.responses) - _oracle_sse(X, d.responses)
        assert df == len(owners) - len(keep)
        assert ss == pytest.approx(exact, rel=1e-10, abs=0)


def test_wald_df_is_the_df_check_column():
    for d in _wald_cohorts():
        layout = d.layout
        for max_order in (1, 2, None):
            fit = type3_anova(d.cells, max_order).fit
            want = dict(df_check(d.cells, max_order))
            sources = [("Intercept", ())] + [
                (_label(layout, t), t.factor_indices)
                for t in full_factorial_terms(layout, max_order)
            ]
            for source, factors in sources:
                _, df = wald(type3_contrast(layout, factors) @ fit.design.cell_values, fit)
                assert df == want[source], (max_order, source)


def test_wald_refuses_a_contrast_of_another_width(two_by_two):
    d = random_dataset(two_by_two, 20, seed=3, min_per_cell=2)
    fit = type3_anova(d.cells).fit
    for L in (np.ones((1, fit.design.n_columns + 1)), np.ones(fit.design.n_columns),
              type3_contrast(two_by_two, (0,))[:, :-1]):
        with pytest.raises(ValidationError, match="4 columns, one per design column"):
            wald(L, fit)


def test_wald_refuses_linearly_dependent_rows():
    # season's contrast with the sum of its first two rows appended: solving
    # its singular L V L' would give an SS on 4 df for a 3-df hypothesis
    d = generate(reference_cohort_spec(n=8000, seed=7))
    fit = type3_anova(d.cells).fit
    L = type3_contrast(d.layout, (d.layout.names.index("season"),)) @ fit.design.cell_values
    assert wald(L, fit)[1] == 3
    with pytest.raises(ValidationError, match=r"the 4 rows of L are linearly dependent \(rank 3\)"):
        wald(np.vstack([L, L[0] + L[1]]), fit)


# --- table identities ------------------------------------------------------------

def test_ss_additivity_and_totals(cohort_layout):
    d = random_dataset(cohort_layout, 400, seed=13, min_per_cell=2)
    t = type3_anova(d.cells)
    cm, err, ct = t.row("Corrected Model"), t.row("Error"), t.row("Corrected Total")
    assert cm.ss + err.ss == pytest.approx(ct.ss, rel=1e-8)
    n = d.n
    grand = float(d.responses.mean())
    assert t.row("Total").ss == pytest.approx(ct.ss + n * grand**2, rel=1e-10)
    assert cm.df + err.df == ct.df
    assert cm.df == sum(r.df for r in effect_rows(t))


def test_effect_ss_additivity_only_when_balanced(two_by_two):
    rng = np.random.default_rng(8)
    balanced_rows, unbalanced_rows = [], []
    for a in ("a1", "a2"):
        for b in ("b1", "b2"):
            for _ in range(5):
                balanced_rows.append(((a, b), float(rng.normal(5, 1))))
    counts = {("a1", "b1"): 6, ("a1", "b2"): 2, ("a2", "b1"): 3, ("a2", "b2"): 7}
    for (a, b), c in counts.items():
        for _ in range(c):
            unbalanced_rows.append(((a, b), float(rng.normal(5, 1) + (a == "a2") * 2)))

    bal = type3_anova(build_dataset(two_by_two, balanced_rows).cells)
    gap_balanced = abs(
        sum(r.ss for r in effect_rows(bal)) - bal.row("Corrected Model").ss
    )
    assert gap_balanced < 1e-8

    unb = type3_anova(build_dataset(two_by_two, unbalanced_rows).cells)
    gap_unbalanced = abs(
        sum(r.ss for r in effect_rows(unb)) - unb.row("Corrected Model").ss
    )
    assert gap_unbalanced > 1e-6  # no additivity off balance


def test_permutation_invariance(cohort_layout):
    d = random_dataset(cohort_layout, 200, seed=17, min_per_cell=2)
    rng = np.random.default_rng(0)
    perm = rng.permutation(d.n)
    levels = level_matrix(d)
    shuffled = build_dataset(
        cohort_layout,
        [
            (cohort_layout.cell_names(levels[i]), d.responses[i])
            for i in perm
        ],
    )
    t1, t2 = type3_anova(d.cells), type3_anova(shuffled.cells)
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.source == r2.source
        assert r1.ss == pytest.approx(r2.ss, rel=1e-10, abs=1e-10)


# 30 seeded exponents in [-200, 200], then both ends and +-1
_SCALE_EXPONENTS = [*np.random.default_rng(20261020).integers(-200, 201, 30).tolist(),
                    -200, -1, 1, 200]


def test_scaling_by_a_power_of_two_changes_no_verdict():
    # y * 2^k is exact, and every statistic scales by an exact power of two,
    # so the raw-scale F and p, the subsets and the transform choice are
    # bit-identical; the subsets' means scale by 2^k
    d = generate(reference_cohort_spec(n=8000, seed=3))

    def verdicts(cells):
        table = type3_anova(cells)
        subsets = []
        for factor in ("season", "age_group"):
            margin = cells.margin(factor)
            pairs = posthoc.scheffe_pairwise(margin, table.ms_error, table.df_error, 0.05)
            subsets.append(posthoc.homogeneous_subsets(pairs, margin, 0.05))
        return ([(r.source, r.f, r.p) for r in table.rows], subsets,
                sd_mean_regression(cells).transform)

    rows, subsets, transform = verdicts(d.cells)
    assert transform == "reciprocal_square_root" and len(rows) == 12
    assert [len(s.subsets) for s in subsets] == [1, 2]
    for k in _SCALE_EXPONENTS:
        scaled = Dataset(d.layout, d.codes, np.ldexp(d.responses, k), d.response_name)
        got_rows, got_subsets, got_transform = verdicts(scaled.cells)
        assert repr(got_rows) == repr(rows), k
        assert got_transform == transform, k
        for got, want in zip(got_subsets, subsets):
            assert [(s.levels, s.significance) for s in got.subsets] \
                == [(s.levels, s.significance) for s in want.subsets], k
            assert [math.ldexp(m, -k) for s in got.subsets for m in s.means] \
                == [m for s in want.subsets for m in s.means], k


def test_f_and_p_columns(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=23, min_per_cell=2)
    t = type3_anova(d.cells)
    mse = t.ms_error
    for r in t.rows:
        if r.f is not None:
            assert r.ms == pytest.approx(r.ss / r.df, rel=1e-12)
            assert r.f == pytest.approx(r.ms / mse, rel=1e-12)
            assert 0.0 <= r.p <= 1.0


# --- guards ----------------------------------------------------------------------

def test_empty_cell_is_named(two_by_two):
    rows = [
        (("a1", "b1"), 1.0), (("a1", "b1"), 2.0),
        (("a1", "b2"), 3.0), (("a2", "b1"), 4.0),
        (("a2", "b1"), 4.5), (("a1", "b2"), 2.0),
    ]
    d = build_dataset(two_by_two, rows)
    with pytest.raises(ValidationError, match="a=a2, b=b2"):
        type3_anova(d.cells)
    # without the interaction the margins are all occupied
    table = type3_anova(d.cells, max_order=1)
    assert {r.source for r in effect_rows(table)} == {"a", "b"}


def test_overflowing_sums_of_squares_are_named(two_by_two):
    # an infinite cell m2, or a finite cell whose n * mean^2 overflows
    small = [(("a1", "b2"), 1.0), (("a1", "b2"), 2.0), (("a2", "b1"), 3.0),
             (("a2", "b1"), 4.0), (("a2", "b2"), 5.0), (("a2", "b2"), 6.0)]
    for huge in ((3.0, 1e200, 2e200), (1e200, 1e200)):
        d = build_dataset(two_by_two, small + [(("a1", "b1"), v) for v in huge],
                          response_name="los")
        with pytest.raises(ValidationError, match="overflow on the los scale"):
            type3_anova(d.cells, response_name="los")
        logged = apply_transform(d, "logarithmic")
        assert math.isfinite(type3_anova(logged.cells).row("Error").ss)


def test_zero_error_ss_is_refused(two_by_two):
    # distinct responses near 1e-300, and subnormal ones near 1e-310: their
    # squared deviations underflow, so every m2 and the SSE are exactly 0
    for scale in (1e-300, 1e-310):
        rows = [((a, b), scale * (1.0 + j / 4)) for a in ("a1", "a2")
                for b in ("b1", "b2") for j in range(3)]
        d = build_dataset(two_by_two, rows, response_name="los")
        assert np.ptp(d.responses) > 0 and (d.cells.m2 == 0).all()
        with pytest.raises(ValidationError, match="error sum of squares is 0 on the los "
                           "scale, so F is undefined"):
            type3_anova(d.cells, response_name="los")
        logged = apply_transform(d, "logarithmic")
        assert type3_anova(logged.cells).row("Error").ss > 0


def test_zero_error_df_refused(two_by_two):
    rows = [(("a1", "b1"), 1.0), (("a1", "b2"), 2.0), (("a2", "b1"), 3.0),
            (("a2", "b2"), 4.0)]
    with pytest.raises(ValidationError, match="error df"):
        type3_anova(build_dataset(two_by_two, rows).cells)


# --- df column from counts alone ---------------------------------------------------

def test_df_check_reference_counts(anova_layout):
    counts = {
        (a, s, g): c for (g, s, a), c in REFERENCE_CELL_COUNTS.items()
    }
    got = df_check(count_table(anova_layout, counts))
    assert [df for _, df in got] == [39, 1, 4, 3, 1, 12, 4, 3, 12, 82678, 82718, 82717]
    assert [src for src, _ in got] == [
        "Corrected Model", "Intercept", "age_group", "season", "gender",
        "age_group * season", "age_group * gender", "season * gender",
        "age_group * season * gender", "Error", "Total", "Corrected Total",
    ]


def test_df_check_single_factor():
    layout = FactorLayout([("f", ("x", "y"))])
    got = df_check(count_table(layout, {("x",): 6, ("y",): 4}))
    assert [df for _, df in got] == [1, 1, 1, 8, 10, 9]


def test_df_check_rejects_empty_cell():
    layout = FactorLayout([("f", ("x", "y"))])
    cells = count_table(layout, {("x",): 10, ("y",): 0})
    with pytest.raises(ValidationError, match="occupied"):
        df_check(cells)


def test_df_check_rejects_zero_error_df():
    layout = FactorLayout([("f", ("x", "y")), ("g", ("u", "v"))])
    one_each = count_table(
        layout, {(f, g): 1 for f in ("x", "y") for g in ("u", "v")}
    )
    with pytest.raises(ValidationError, match=r"^N = 4 leaves error df 0 < 1$"):
        df_check(one_each)
    # main effects only: 4 - 2 - 1 leaves one error df
    assert df_check(one_each, max_order=1)[-3] == ("Error", 1)
    two = count_table(layout, {("x", "u"): 1, ("y", "v"): 1})
    with pytest.raises(ValidationError, match=r"^N = 2 leaves error df -1 < 1$"):
        df_check(two, max_order=1)


# --- narrative significance summary --------------------------------------------------

def _published_anova_table():
    rows = [
        AnovaRow("Corrected Model", 513.847, 39, 13.176, 60.866, 1e-6),
        AnovaRow("Intercept", 21676.552, 1, 21676.552, 100137.437, 1e-12),
        AnovaRow("age_group", 300.734, 4, 75.183, 347.319, 1e-9),
        AnovaRow("season", 12.165, 3, 4.055, 18.733, 1e-9),
        AnovaRow("gender", 46.741, 1, 46.741, 215.926, 1e-9),
        AnovaRow("age_group * season", 4.456, 12, 0.371, 1.715, 0.057),
        AnovaRow("age_group * gender", 50.402, 4, 12.600, 58.209, 1e-9),
        AnovaRow("season * gender", 1.783, 3, 0.594, 2.745, 0.041),
        AnovaRow("age_group * season * gender", 2.354, 12, 0.196, 0.906, 0.540),
        AnovaRow("Error", 17897.142, 82678, 0.216),
        AnovaRow("Total", 50201.596, 82718),
        AnovaRow("Corrected Total", 18410.989, 82717),
    ]
    return AnovaTable(tuple(rows), response_name="logstay")


def test_significance_summary_reference_pattern():
    table = _published_anova_table()
    strict = {v.source for v in significance_summary(table, 0.01) if v.significant}
    verdicts = significance_summary(table, 0.05)
    loose = {v.source for v in verdicts if v.significant}
    assert strict == {
        "Corrected Model", "Intercept", "age_group", "season", "gender",
        "age_group * gender",
    }
    assert loose == strict | {"season * gender"}  # p = .041 clears 0.05 only
    assert {v.source for v in verdicts if not v.significant} == {
        "age_group * season", "age_group * season * gender",
    }


def test_significance_summary_nothing_significant():
    rows = [AnovaRow("f", 1.0, 1, 1.0, 0.5, 1.0), AnovaRow("Error", 10.0, 10, 1.0)]
    for alpha in (0.01, 0.05):
        verdicts = significance_summary(AnovaTable(tuple(rows)), alpha)
        assert [v.source for v in verdicts] == ["f"]
        assert all(not v.significant for v in verdicts)


def test_significance_at_p_equal_alpha_agrees_everywhere():
    # p == alpha is significant for the ANOVA verdict, the coefficient filter
    # and the homogeneous subsets alike
    from losanova.linmod import CoefficientRow, CoefficientTable, significant_terms
    from losanova.posthoc import ScheffeComparison, homogeneous_subsets

    alpha = 0.05
    table = AnovaTable((AnovaRow("f", 1.0, 1, 1.0, 4.0, alpha),
                        AnovaRow("Error", 10.0, 10, 1.0)))
    assert [v.significant for v in significance_summary(table, alpha)] == [True]
    coefficients = CoefficientTable((CoefficientRow("Intercept", 1.0, 0.1, 10.0, 0.0, 0.8, 1.2),
                                     CoefficientRow("f(1)", 1.0, 0.5, 2.0, alpha, 0.0, 2.0)))
    assert significant_terms(coefficients, alpha).labels == ("Intercept", "f(1)")
    pair = ScheffeComparison("f", "a", "b", -1.0, 0.5, alpha, -2.0, 0.0)
    margin = published_margin("f", {"a": 5, "b": 5}, {"a": 1.0, "b": 2.0})
    subsets = homogeneous_subsets([pair], margin, alpha)
    assert [s.levels for s in subsets.subsets] == [("a",), ("b",)]


def test_published_f_column_consistency():
    # with MSE = 17897.142/82678, every published F equals its MS / MSE
    mse = 17897.142 / 82678
    table = _published_anova_table()
    for row in table.rows:
        if row.f is not None:
            assert row.ms / mse == pytest.approx(row.f, rel=0.005)
