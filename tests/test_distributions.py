"""Distribution layer: identities, derived oracles, and frozen Monte Carlo
cross-checks.

The Monte Carlo expectations below were computed once from seeded numpy
oracles (10^7 variates for the F family, 10^8 for the normal) and frozen;
each test asserts agreement within three standard errors of that estimate.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from losanova import (
    FDist,
    ValidationError,
    f_cdf,
    f_quantile,
    f_sf,
    log_gamma,
    noncentral_f_cdf,
    normal_cdf,
    normal_quantile,
    reg_inc_beta,
    t_cdf,
    t_quantile,
)

# frozen Monte Carlo oracles: (value, standard error, oracle seed)
MC_F_CDF = (0.9407611, 7.465229582992742e-05, 20260809)      # f_cdf(2.5; 3, 360)
MC_F_QUANTILE = (3.787689741055858, 0.002254970308449501, 4)  # f_quantile(0.99; 3, 1680)
MC_NCF_CDF = (0.6426421, 0.00015154313950409962, 77)          # ncf_cdf(2.0; 5, 40, 3.7)
MC_NORMAL_CDF = (0.84132508, 3.653726724359577e-05, 123)      # normal_cdf(1.0)


# --- log_gamma -------------------------------------------------------------

def test_log_gamma_anchors():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_log_gamma_recurrence_oracle():
    # seed Gamma(1.3) by quadrature, then climb with Gamma(x+1) = x Gamma(x)
    gamma_13, err = integrate.quad(
        lambda t: t**0.3 * math.exp(-t), 0, 80, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-12
    value = gamma_13
    for k in range(9):
        value *= 1.3 + k
    assert log_gamma(10.3) == pytest.approx(math.log(value), rel=1e-10)


def test_log_gamma_domain():
    for bad in (0.0, -1.0, float("inf")):
        with pytest.raises(ValidationError):
            log_gamma(bad)


def test_log_gamma_accuracy_range():
    # relative accuracy across the supported range, against the rising
    # recurrence from a quadrature seed in [1, 2]
    for x in (1e-3, 0.37, 2.0, 10.3, 145.5, 1e6):
        frac = x - math.floor(x) if x >= 1 else x
        base = 1.0 + (frac if frac else 0.0)
        seed, _ = integrate.quad(
            lambda t, b=base: t ** (b - 1) * math.exp(-t), 0, 120,
            epsabs=1e-13, epsrel=1e-13,
        )
        log_val = math.log(seed)
        if x >= 1:
            y = base
            while y < x - 0.5:
                log_val += math.log(y)
                y += 1.0
        else:
            log_val -= math.log(x)  # Gamma(x) = Gamma(x+1)/x
        assert log_gamma(x) == pytest.approx(log_val, rel=1e-10)


# --- regularized incomplete beta -------------------------------------------

def test_beta_boundaries():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0


def test_beta_uniform_case():
    assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)


def test_beta_polynomial_oracle():
    # I_x(2, 3) expands to 6x^2 - 8x^3 + 3x^4
    for x in (0.1, 0.3, 0.5, 0.77, 0.95):
        expected = 6 * x**2 - 8 * x**3 + 3 * x**4
        assert reg_inc_beta(x, 2.0, 3.0) == pytest.approx(expected, abs=1e-12)
    assert reg_inc_beta(0.3, 2.0, 3.0) == pytest.approx(0.3483, abs=5e-5)


def test_beta_symmetry_identity():
    rng = np.random.default_rng(42)
    for _ in range(300):
        x = float(rng.uniform(0, 1))
        a = float(10 ** rng.uniform(-1, 3))
        b = float(10 ** rng.uniform(-1, 3))
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1 - x, b, a) == pytest.approx(
            1.0, abs=1e-10
        )


def test_beta_domain():
    with pytest.raises(ValidationError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        reg_inc_beta(0.5, 1.0, -2.0)


# --- central F ---------------------------------------------------------------

def test_f_cdf_at_zero():
    assert f_cdf(0.0, 3.0, 10.0) == 0.0
    assert f_cdf(-1.0, 3.0, 10.0) == 0.0


def test_f_equal_df_median():
    for nu in (1.0, 4.0, 17.0, 360.0):
        assert f_cdf(1.0, nu, nu) == pytest.approx(0.5, abs=1e-12)


def test_f_cdf_monte_carlo():
    value, se, _ = MC_F_CDF
    assert abs(f_cdf(2.5, 3.0, 360.0) - value) <= 3 * se


def test_f_cdf_sf_complement():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = float(rng.uniform(0.01, 8.0))
        n1 = float(rng.integers(1, 30))
        n2 = float(rng.integers(1, 2000))
        assert f_cdf(x, n1, n2) + f_sf(x, n1, n2) == pytest.approx(1.0, abs=1e-12)


def test_f_quantile_round_trips():
    for x in (0.5, 1.0, 3.0):
        p = f_cdf(x, 3.0, 25.0)
        assert f_quantile(p, 3.0, 25.0) == pytest.approx(x, abs=1e-7)
    for p in (0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.9999):
        q = f_quantile(p, 4.0, 82678.0)
        assert f_cdf(q, 4.0, 82678.0) == pytest.approx(p, abs=1e-9)


def test_f_quantile_monte_carlo():
    value, se, _ = MC_F_QUANTILE
    assert abs(f_quantile(0.99, 3.0, 1680.0) - value) <= 3 * se


def test_f_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            f_quantile(bad, 3.0, 10.0)


def test_f_cdf_nondecreasing_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n1 = float(rng.integers(1, 20))
        n2 = float(rng.integers(1, 500))
        xs = np.sort(rng.uniform(0, 10, size=10))
        vals = [f_cdf(float(x), n1, n2) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


# --- noncentral F ------------------------------------------------------------

def test_ncf_central_reduction():
    for x in (0.3, 1.0, 2.5, 7.0):
        assert abs(
            noncentral_f_cdf(x, 3.0, 360.0, 0.0) - f_cdf(x, 3.0, 360.0)
        ) <= 1e-12


def test_ncf_reference_beta_value():
    # beta of the season test at n = 10: critical value at alpha = 0.01,
    # nu = (3, 360), lam = 4 * 1.328 * ... = (nu1+1) * phi^2
    crit = f_quantile(0.99, 3.0, 360.0)
    beta = noncentral_f_cdf(crit, 3.0, 360.0, 4 * 1.328)
    assert beta == pytest.approx(0.80, abs=0.06)


def test_ncf_monte_carlo():
    value, se, _ = MC_NCF_CDF
    assert abs(noncentral_f_cdf(2.0, 5.0, 40.0, 3.7) - value) <= 3 * se


def test_ncf_monotone_in_lambda():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n1 = float(rng.integers(1, 15))
        n2 = float(rng.integers(2, 900))
        x = float(rng.uniform(0.05, 6.0))
        lams = np.sort(rng.uniform(0.0, 60.0, size=6))
        vals = [noncentral_f_cdf(x, n1, n2, float(l)) for l in lams]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_ncf_large_lambda_stable():
    # mode-centered summation keeps very large noncentralities finite
    v = noncentral_f_cdf(50.0, 3.0, 400.0, 3000.0)
    assert 0.0 <= v <= 1.0


def test_ncf_large_lambda_matches_scipy():
    # lam 940-1400 used to raise on a rounding-only weight-sum check
    from scipy.special import ncfdtr

    rng = np.random.default_rng(20261018)
    n = 400
    nu1 = rng.integers(1, 40, n).astype(float)
    nu2 = np.exp(rng.uniform(math.log(3.0), math.log(1e5), n))
    lam = rng.uniform(940.0, 1400.0, n)
    mean = nu2 * (nu1 + lam) / (nu1 * (nu2 - 2.0))
    x = mean * np.exp(rng.normal(0.0, 0.05, n))
    ref = ncfdtr(nu1, nu2, lam, x)
    finite = np.isfinite(ref)
    assert finite.sum() >= n // 2
    for xi, a, b, l, r in zip(x[finite], nu1[finite], nu2[finite], lam[finite], ref[finite]):
        assert abs(noncentral_f_cdf(xi, a, b, l) - r) <= 1e-9, (xi, a, b, l)


def test_ncf_domain():
    with pytest.raises(ValidationError):
        noncentral_f_cdf(1.0, 3.0, 10.0, -0.5)


# --- t ------------------------------------------------------------------------

def test_t_quantile_symmetry():
    for nu in (1.0, 5.0, 82678.0):
        assert t_quantile(0.5, nu) == 0.0
        for p in (0.6, 0.9, 0.975, 0.999):
            assert t_quantile(1 - p, nu) == pytest.approx(-t_quantile(p, nu), rel=1e-12)


def test_t_f_identity():
    for nu in (3.0, 30.0, 5000.0):
        t2 = t_quantile(0.975, nu) ** 2
        assert t2 == pytest.approx(f_quantile(0.95, 1.0, nu), abs=1e-8)


def test_t_quantile_large_df_reference():
    # the coefficient-table multiplier: 0.573 +/- 1.96 * 0.008 ~ (.556, .589)
    t = t_quantile(0.975, 82678.0)
    assert t == pytest.approx(1.960, abs=1e-3)
    # the printed bounds were rounded from unseen full-precision inputs, so
    # the reconstruction can differ by one step in the last printed digit
    lo, hi = 0.573 - t * 0.008, 0.573 + t * 0.008
    assert abs(round(lo, 3) - 0.556) <= 0.001 + 1e-9
    assert abs(round(hi, 3) - 0.589) <= 0.001 + 1e-9


def test_t_cdf_round_trip():
    for nu in (2.0, 40.0):
        for p in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert t_cdf(t_quantile(p, nu), nu) == pytest.approx(p, abs=1e-9)


# --- normal --------------------------------------------------------------------

def test_normal_cdf_center_and_symmetry():
    assert normal_cdf(0.0) == 0.5
    rng = np.random.default_rng(2)
    for z in rng.normal(0, 2, size=50):
        assert normal_cdf(float(z)) + normal_cdf(float(-z)) == pytest.approx(1.0, abs=1e-14)


def test_normal_monte_carlo():
    value, se, _ = MC_NORMAL_CDF
    assert abs(normal_cdf(1.0) - value) <= 3 * se


def test_normal_round_trip():
    for p in (1e-12, 1e-6, 0.02, 0.31, 0.5, 0.77, 0.999, 1 - 1e-9):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-9)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            normal_quantile(bad)


# --- FDist wrapper ---------------------------------------------------------------

def test_fdist_delegates():
    d = FDist(3.0, 360.0)
    assert d.cdf(2.5) == f_cdf(2.5, 3.0, 360.0)
    assert d.sf(2.5) == f_sf(2.5, 3.0, 360.0)
    assert d.quantile(0.99) == f_quantile(0.99, 3.0, 360.0)
    nc = FDist(3.0, 360.0, lam=5.312)
    assert nc.cdf(2.0) == noncentral_f_cdf(2.0, 3.0, 360.0, 5.312)
    with pytest.raises(ValidationError):
        nc.quantile(0.5)
    with pytest.raises(ValidationError):
        FDist(0.0, 1.0)
    with pytest.raises(ValidationError):
        FDist(1.0, 1.0, lam=-1.0)
