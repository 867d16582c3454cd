"""Acceptance suite: the published-table reconstructions and property gates
that define done, one test per criterion, each printing a PASS/FAIL line.

Two checks compare against something other than the literal published
number, and keep their stated tolerances:

* criterion 2: the published beta column was read off a printed operating-
  characteristic chart. The n = 20 reading (0.31) is an erratum. The exact
  type II error at that row (phi = 1.6297, nu = (3, 760), lambda = 10.627,
  alpha = 0.01) is 0.42599 by scipy's ``ncfdtr`` and 0.425989 by a 50-digit
  mpmath Poisson-mixture sum; the noncentral chi-square limit gives 0.4215,
  and beta = 0.31 belongs to phi ~ 1.79. That row is therefore checked
  against the exact value, computed here by scipy rather than by the
  engine; the other four rows are checked against the chart readings.
* criterion 10's significance clause: the paper finds every main effect and
  the gender x age-group interaction significant at alpha = 0.01 in its
  82,718-patient cohort. At N = 8000 the synthetic cohort's exact Type III
  noncentrality is only about 10 (season), 8 (gender) and 18 (gender x
  age group), giving power 0.54, 0.62 and 0.84, so 19-of-20 detection of all
  four effects has probability of order 1e-8. At the paper's N = 82,718
  every type II error is below 1e-11, so the clause runs at that size.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy import special

from losanova import (
    FactorLayout,
    apply_transform,
    build_dataset,
    df_check,
    f_quantile,
    generate,
    noncentral_f_cdf,
    normal_cdf,
    oc_table,
    type3_anova,
)
from losanova.cli import cli_main
from losanova.posthoc import homogeneous_subsets, scheffe_pairwise
from losanova.power import parse_effect
from losanova.synth import REFERENCE_CELL_COUNTS, REFERENCE_TOTAL, reference_cohort_spec

from conftest import count_table, published_margin, random_dataset
from test_anova import _label, _sequential_ss, brute_force_type3

PLANNING_LAYOUT = FactorLayout(
    [
        ("season", ("spring", "summer", "autumn", "winter")),
        ("gender", ("male", "female")),
        ("age_group", ("1", "2", "3", "4", "5")),
    ]
)

TABLE_LAYOUT = FactorLayout(
    [
        ("age_group", ("1", "2", "3", "4", "5")),
        ("season", ("spring", "summer", "autumn", "winter")),
        ("gender", ("male", "female")),
    ]
)

MSE = 17897.142 / 82678
DF_ERROR = 82678

PUBLISHED_PHI = {10: 1.1523, 20: 1.6297, 30: 1.9959, 40: 2.3047, 43: 2.3896}
# read off a printed OC chart; the n = 20 reading is an erratum (module docstring)
PUBLISHED_BETA = {10: 0.80, 20: 0.31, 30: 0.20, 40: 0.06, 43: 0.04}

AGE_COUNTS = {"1": 6433, "2": 7875, "3": 11064, "4": 27890, "5": 29456}
AGE_MEANS = {"1": 0.547, "5": 0.567, "4": 0.618, "2": 0.706, "3": 0.749}
SEASON_COUNTS = {"spring": 21963, "summer": 21564, "autumn": 19374, "winter": 19817}
SEASON_MEANS = {"spring": 0.593, "summer": 0.616, "winter": 0.633, "autumn": 0.642}

PUBLISHED_SE = {
    "age_group": {
        ("1", "2"): 0.00782, ("1", "3"): 0.00729, ("1", "4"): 0.00644,
        ("1", "5"): 0.00640, ("2", "3"): 0.00686, ("2", "4"): 0.00594,
        ("2", "5"): 0.00590, ("3", "4"): 0.00523, ("3", "5"): 0.00519,
        ("4", "5"): 0.00389,
    },
    "season": {
        ("spring", "summer"): 0.00446, ("spring", "autumn"): 0.00459,
        ("spring", "winter"): 0.00456, ("summer", "autumn"): 0.00461,
        ("summer", "winter"): 0.00458, ("autumn", "winter"): 0.00470,
    },
}


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>3} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {num:>3} PASS  {description}")
        return wrapper
    return deco


def _season_oc_rows(ns):
    effect = parse_effect(PLANNING_LAYOUT, "season")
    return oc_table(PLANNING_LAYOUT, effect, 1.0, 9.41, 0.01, ns)


@criterion(1, "phi column reproduces to 4 decimals from the effect-size formula")
def test_criterion_01_phi_column():
    start = time.perf_counter()
    rows = _season_oc_rows(list(PUBLISHED_PHI))
    elapsed = time.perf_counter() - start
    for row in rows:
        # the engine's full-precision coefficient prints as 0.1328 at 4 decimals
        assert round(row.phi2 / row.n, 4) == 0.1328
        # the published column is the printed-coefficient arithmetic,
        # truncated at the fourth decimal
        phi_printed = math.sqrt(0.1328 * row.n)
        assert math.floor(phi_printed * 1e4) / 1e4 == PUBLISHED_PHI[row.n]
        assert abs(phi_printed - PUBLISHED_PHI[row.n]) < 1e-4
        # full-precision engine phi sits within the coefficient-rounding slack
        assert row.phi == pytest.approx(PUBLISHED_PHI[row.n], abs=5e-4)
    assert elapsed < 1.0


def _exact_season_beta(n):
    """Type II error of the planning table's season test at n per cell, from
    the design alone (D = 1, sigma^2 = 9.41, alpha = 0.01) via scipy."""
    nu1, nu2 = 3, 40 * (n - 1)
    lam = n * 2 * 5 * 1.0**2 / (2 * 9.41)
    return float(special.ncfdtr(nu1, nu2, lam, special.fdtri(nu1, nu2, 0.99)))


@criterion(2, "beta column within +/-0.06 of the chart (exact value at the n=20 erratum)")
def test_criterion_02_beta_column():
    start = time.perf_counter()
    rows = _season_oc_rows(list(PUBLISHED_BETA))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    power_43 = next(r for r in rows if r.n == 43).power
    assert power_43 == pytest.approx(0.96, abs=0.03)
    expected = {**PUBLISHED_BETA, 20: _exact_season_beta(20)}
    assert abs(PUBLISHED_BETA[20] - expected[20]) > 0.06  # the erratum itself
    report = ", ".join(
        f"n={r.n}: computed {r.beta:.4f} vs expected {expected[r.n]:.4f}" for r in rows
    )
    for row in rows:
        assert abs(row.beta - expected[row.n]) <= 0.06, (
            f"beta at n={row.n} is outside the +/-0.06 band ({report})"
        )


@criterion(3, "df column from the reference cell counts alone")
def test_criterion_03_df_column():
    counts = {(a, s, g): c for (g, s, a), c in REFERENCE_CELL_COUNTS.items()}
    got = [df for _, df in df_check(count_table(TABLE_LAYOUT, counts))]
    assert got == [39, 1, 4, 3, 1, 12, 4, 3, 12, 82678, 82718, 82717]


@criterion(4, "published F ratios satisfy F = MS/MSE; engine SS additivity")
def test_criterion_04_internal_consistency():
    published = [
        ("Corrected Model", 513.847 / 39, 60.866),
        ("Intercept", 21676.552, 100137.437),
        ("age_group", 75.183, 347.319),
        ("season", 4.055, 18.733),
        ("gender", 46.741, 215.926),
        ("age_group * season", 0.371, 1.715),
        ("age_group * gender", 12.600, 58.209),
        ("season * gender", 0.594, 2.745),
        ("three-way", 0.196, 0.906),
    ]
    for _, ms, f in published:
        assert ms / MSE == pytest.approx(f, rel=0.005)
    assert 513.847 + 17897.142 == pytest.approx(18410.989, abs=1e-9)

    # the same additivity identity must hold for the engine on real data
    d = generate(reference_cohort_spec(n=4000, seed=3))
    table = type3_anova(apply_transform(d, "logarithmic").cells)
    cm = table.row("Corrected Model").ss
    err = table.row("Error").ss
    ct = table.row("Corrected Total").ss
    assert cm + err == pytest.approx(ct, rel=1e-8)


@criterion(5, "Scheffe standard errors reconstruct every published value")
def test_criterion_05_standard_errors():
    for factor, table in PUBLISHED_SE.items():
        counts = AGE_COUNTS if factor == "age_group" else SEASON_COUNTS
        means = AGE_MEANS if factor == "age_group" else SEASON_MEANS
        comparisons = scheffe_pairwise(published_margin(factor, counts, means), MSE, DF_ERROR)
        by_pair = {(c.level_i, c.level_j): c for c in comparisons}
        for (i, j), se in table.items():
            assert by_pair[(i, j)].se == pytest.approx(se, abs=1e-4), (i, j)


@criterion(6, "Scheffe p and CI reconstruct the published borderline rows")
def test_criterion_06_inference_rows():
    # only the compared pair's means enter its row; the others are left at 0
    ages = published_margin("age_group", AGE_COUNTS,
                            dict.fromkeys(AGE_COUNTS, 0.0) | {"1": 0.0, "5": 0.0199})
    c = next(c for c in scheffe_pairwise(ages, MSE, DF_ERROR, alpha=0.05)
             if (c.level_i, c.level_j) == ("1", "5"))
    assert c.p == pytest.approx(0.047, abs=0.005)
    assert c.ci_low == pytest.approx(-0.0396, abs=5e-4)
    assert c.ci_high == pytest.approx(-0.0002, abs=5e-4)

    seasons = published_margin(
        "season", SEASON_COUNTS,
        dict.fromkeys(SEASON_COUNTS, 0.0) | {"autumn": 0.0089, "winter": 0.0})
    c = next(c for c in scheffe_pairwise(seasons, MSE, DF_ERROR, alpha=0.05)
             if (c.level_i, c.level_j) == ("autumn", "winter"))
    assert c.p == pytest.approx(0.306, abs=0.01)


@criterion(7, "homogeneous subsets: five age singletons; {winter, autumn} pair")
def test_criterion_07_subsets():
    ages = published_margin("age_group", AGE_COUNTS, AGE_MEANS)
    subsets = homogeneous_subsets(scheffe_pairwise(ages, MSE, DF_ERROR, 0.05), ages, alpha=0.05)
    assert [s.levels for s in subsets.subsets] == [("1",), ("5",), ("4",), ("2",), ("3",)]

    seasons = published_margin("season", SEASON_COUNTS, SEASON_MEANS)
    subsets = homogeneous_subsets(
        scheffe_pairwise(seasons, MSE, DF_ERROR, 0.05), seasons, alpha=0.05,
    )
    assert [s.levels for s in subsets.subsets] == [
        ("spring",), ("summer",), ("winter", "autumn"),
    ]


@criterion(8, "Type III equals brute-force model comparison; sequential when balanced")
def test_criterion_08_type3_oracle():
    layouts = [
        FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2"))]),
        FactorLayout([("a", ("a1", "a2")), ("b", ("b1", "b2", "b3")), ("c", ("c1", "c2"))]),
    ]
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(100):
        layout = layouts[trial % 2]
        n = int(rng.integers(layout.n_cells + 8, 61))
        d = random_dataset(layout, n, seed=3000 + trial, min_per_cell=1)
        table = type3_anova(d.cells)
        oracle, sse_full = brute_force_type3(d)
        for term, ss_ref in oracle.items():
            got = table.row(_label(layout, term)).ss
            assert got == pytest.approx(ss_ref, rel=1e-8, abs=1e-9), (trial, term)
        assert table.row("Error").ss == pytest.approx(sse_full, rel=1e-10)
        checked += 1
    assert checked == 100

    # balanced designs: Type III coincides with sequential SS
    from losanova.linmod import full_factorial_terms

    for seed in range(10):
        layout = layouts[seed % 2]
        rng_b = np.random.default_rng(7000 + seed)
        rows = []
        for cell in layout.cells():
            for _ in range(3):
                rows.append((layout.cell_names(cell), float(rng_b.normal(5.0, 1.0))))
        d = build_dataset(layout, rows)
        table = type3_anova(d.cells)
        for term, ss_seq in _sequential_ss(d, full_factorial_terms(layout)).items():
            got = table.row(_label(layout, term)).ss
            assert got == pytest.approx(ss_seq, rel=1e-10, abs=1e-10)


@criterion(9, "distribution identities and 1e7-sample Monte Carlo agreement")
def test_criterion_09_distribution_suite():
    rng = np.random.default_rng(404)
    for _ in range(200):
        x = float(rng.uniform(0, 1))
        a = float(10 ** rng.uniform(-1, 3))
        b = float(10 ** rng.uniform(-1, 3))
        assert special.betainc(a, b, x) + special.betainc(b, a, 1 - x) == pytest.approx(
            1.0, abs=1e-10
        )

    for p in (0.01, 0.2, 0.5, 0.9, 0.99):
        for nu in ((1, 8), (3, 360), (12, 82678)):
            q = f_quantile(p, *nu)
            assert noncentral_f_cdf(q, *nu, 0.0) == pytest.approx(p, abs=1e-7)

    for x in (0.2, 1.0, 4.4):
        assert abs(noncentral_f_cdf(x, 3, 360, 0.0) - special.fdtr(3, 360, x)) <= 1e-12

    n_draws = 10_000_000

    draws = np.random.default_rng(20260809).f(3, 360, size=n_draws)
    p_hat = float((draws <= 2.5).mean())
    se = math.sqrt(p_hat * (1 - p_hat) / n_draws)
    assert abs(noncentral_f_cdf(2.5, 3, 360, 0.0) - p_hat) <= 3 * se

    rng = np.random.default_rng(77)
    ratio = (rng.noncentral_chisquare(5, 3.7, size=n_draws) / 5.0) / (
        rng.chisquare(40, size=n_draws) / 40.0
    )
    p_hat = float((ratio <= 2.0).mean())
    se = math.sqrt(p_hat * (1 - p_hat) / n_draws)
    assert abs(noncentral_f_cdf(2.0, 5, 40, 3.7) - p_hat) <= 3 * se

    draws = np.sort(np.random.default_rng(4).f(3, 1680, size=n_draws))
    q_hat = float(draws[int(0.99 * n_draws)])
    window = draws[int(0.9902 * n_draws)] - draws[int(0.9898 * n_draws)]
    se_q = math.sqrt(0.99 * 0.01 / n_draws) / (4e-4 / window)
    assert abs(f_quantile(0.99, 3, 1680) - q_hat) <= 3 * se_q

    z = np.random.default_rng(123).standard_normal(n_draws)
    p_hat = float((z <= 1.0).mean())
    se = math.sqrt(p_hat * (1 - p_hat) / n_draws)
    assert abs(normal_cdf(1.0) - p_hat) <= 3 * se


@criterion(10, "end-to-end pipeline: runtime, log transform, slope band")
def test_criterion_10_pipeline(tmp_path):
    csv_path = tmp_path / "cohort.csv"
    outdir = tmp_path / "report"
    start = time.perf_counter()
    assert cli_main(["synth", "--n", "8000", "--seed", "0", "--out", str(csv_path)]) == 0
    assert cli_main([
        "report", "--input", str(csv_path), "--transform", "auto", "--out", str(outdir),
    ]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f} s"

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["parameters"]["transform_applied"] == "logarithmic"
    assert abs(manifest["parameters"]["sd_mean_slope"] - 1.0) <= 0.1
    assert (outdir / "tables" / "anova.json").exists()


@criterion(10, "20 seeded N=82718 runs find all four published effects at alpha = 0.01")
def test_criterion_10_significance_rates():
    effects = ("age_group", "season", "gender", "gender * age_group")
    hits = {e: 0 for e in effects}
    runs = 20
    for seed in range(runs):
        d = generate(reference_cohort_spec(n=REFERENCE_TOTAL, seed=seed))
        table = type3_anova(apply_transform(d, "logarithmic").cells)
        for effect in effects:
            if table.row(effect).p < 0.01:
                hits[effect] += 1
    all_four = min(hits.values())
    rates = ", ".join(f"{e}: {h}/{runs}" for e, h in hits.items())
    assert all(h >= 0.95 * runs for h in hits.values()), (
        f"significance rates over {runs} seeded N={REFERENCE_TOTAL} runs fall "
        f"short of 19/20 ({rates}); every effect's exact power there exceeds "
        f"1 - 1e-11 (see module docstring)"
    )
    assert all_four >= 0.95 * runs
