"""Distribution layer: identities, derived oracles, frozen Monte Carlo
cross-checks, and sweeps against a 50-digit mpmath oracle.

The Monte Carlo expectations below were computed once from seeded numpy
oracles (10^7 variates for the F family, 10^8 for the normal) and frozen;
each test asserts agreement within three standard errors of that estimate.
The central distributions are scipy's, so the sweeps take their oracle from
mpmath, never from scipy.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losanova import (
    ValidationError,
    f_cdf,
    f_quantile,
    f_sf,
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
    # log-space weights keep very large noncentralities finite
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
    # an infinite df would give a finite but wrong answer (1.0 and 0.0 here)
    for nu1, nu2 in ((math.inf, 10.0), (3.0, math.inf)):
        with pytest.raises(ValidationError, match="finite nu1 > 0 and nu2 > 0"):
            noncentral_f_cdf(2.0, nu1, nu2, 5.0)


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


# the scalar normal quantile and CDF as they stood before the array forms, kept
# as the reference: the array forms must reproduce them bit for bit, since
# synth's seeded stream runs through normal_quantile

def _scalar_normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _scalar_normal_quantile(p):
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - 0.02425:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if abs(x) < 37.0:
        e = _scalar_normal_cdf(x) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
        x -= u / (1.0 + x * u / 2.0)
    return x


def _normal_edge_points():
    edges = [2.0**-55, 0.02425, 1.0 - 0.02425]
    near = [float(np.nextafter(e, t)) for e in edges for t in (0.0, 1.0)]
    return np.array(edges + near + [0.5, 1.0 - 2.0**-53])


def test_normal_arrays_match_scalar_reference_bitwise():
    for seed in (0, 1, 2):
        u = np.random.Generator(np.random.PCG64(seed)).random(20_000)
        p = np.concatenate([np.clip(u, 2.0**-55, None), _normal_edge_points()])
        expected = np.array([_scalar_normal_quantile(v) for v in p.tolist()])
        got = normal_quantile(p)
        assert isinstance(got, np.ndarray) and got.shape == p.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

        z = np.concatenate([np.random.default_rng(seed).normal(0.0, 3.0, 20_000),
                            [0.0, -0.0, 40.0, -40.0, math.inf, -math.inf]])
        expected = np.array([_scalar_normal_cdf(v) for v in z.tolist()])
        assert np.array_equal(normal_cdf(z).view(np.int64), expected.view(np.int64))
    for v in _normal_edge_points().tolist():
        assert type(normal_quantile(v)) is float
        assert normal_quantile(v) == _scalar_normal_quantile(v)
        assert normal_cdf(v) == _scalar_normal_cdf(v)


def test_normal_validation_messages():
    for bad in (0.0, 1.0, -0.5, math.nan, 2):
        with pytest.raises(ValidationError) as info:
            normal_quantile(bad)
        assert str(info.value) == f"normal_quantile requires p in (0, 1), got {bad!r}"
    with pytest.raises(ValidationError) as info:
        normal_quantile(np.array([0.25, 1.5, 0.0]))
    assert str(info.value) == "normal_quantile requires p in (0, 1), got 1.5"
    for z in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValidationError) as info:
            normal_cdf(z)
        assert str(info.value) == "normal_cdf: z is NaN"
    assert normal_quantile(np.array([])).shape == (0,)


def test_scipy_nan_raises_numerical_error(monkeypatch):
    from types import SimpleNamespace

    from losanova import NumericalError, distributions

    def undefined(*args):
        return math.nan

    names = ("fdtr", "fdtrc", "fdtri", "stdtr", "stdtrit", "betainc")
    monkeypatch.setattr(distributions, "special",
                        SimpleNamespace(**dict.fromkeys(names, undefined)))
    with pytest.raises(NumericalError, match=r"^f_quantile is undefined at 0\.5, 3\.0, 10\.0$"):
        f_quantile(0.5, 3.0, 10.0)
    for call in (lambda: f_cdf(1.0, 3.0, 10.0), lambda: f_sf(1.0, 3.0, 10.0),
                 lambda: t_cdf(1.0, 5.0), lambda: t_quantile(0.3, 5.0),
                 lambda: reg_inc_beta(0.5, 2.0, 3.0)):
        with pytest.raises(NumericalError):
            call()


# --- 50-digit mpmath oracle over the CLI's parameter range ------------------------

def _mp_betainc(x, a, b):
    """I_x(a, b), summing whichever of mpmath's two hypergeometric series
    (for I_x(a, b) or for 1 - I_{1-x}(b, a)) is the shorter."""
    x, a, b = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)
    if x in (0, 1):
        return x
    if b * x + 1 / (1 - x) <= a * (1 - x) + 1 / x:
        return mpmath.betainc(a, b, 0, x, regularized=True)
    return 1 - mpmath.betainc(b, a, 0, 1 - x, regularized=True)


def _mp_f(x, nu1, nu2):
    """(CDF, survival, density) of the central F at x."""
    x, a, b = mpmath.mpf(x), mpmath.mpf(nu1) / 2, mpmath.mpf(nu2) / 2
    y = nu1 * x / (nu1 * x + nu2)
    cdf = _mp_betainc(y, a, b)
    pdf = mpmath.exp(a * mpmath.log(y) + b * mpmath.log(1 - y) - mpmath.log(x)
                     - mpmath.log(mpmath.beta(a, b)))
    return cdf, 1 - cdf, pdf


def _mp_t(t, nu):
    """(CDF, density) of Student's t at t."""
    t, nu = mpmath.mpf(t), mpmath.mpf(nu)
    tail = _mp_betainc(nu / (nu + t * t), nu / 2, mpmath.mpf(1) / 2) / 2
    pdf = (1 + t * t / nu) ** (-(nu + 1) / 2) / (mpmath.sqrt(nu) * mpmath.beta(nu / 2, 0.5))
    return (tail if t < 0 else 1 - tail), pdf


def _mp_noncentral_f_cdf(x, nu1, nu2, lam):
    """Poisson(lam/2) mixture from j = 0 up, by the exact downward recurrence
    I_y(a+j+1, b) = I_y(a+j, b) - y^(a+j) (1-y)^b / ((a+j) B(a+j, b)), until
    the Poisson mass left is under 1e-40."""
    x, a, b, h = (mpmath.mpf(v) for v in (x, nu1 / 2, nu2 / 2, lam / 2))
    y = nu1 * x / (nu1 * x + nu2)
    ib = _mp_betainc(y, a, b)
    step = y**a * (1 - y) ** b / (a * mpmath.beta(a, b))
    w = mpmath.exp(-h)
    total = mass = mpmath.mpf(0)
    j = 0
    while j <= h or 1 - mass > mpmath.mpf(10) ** -40:
        total += w * ib
        mass += w
        ib -= step
        step *= y * (a + j + b) / (a + j + 1)
        j += 1
        w *= h / j
    return total


_SWEEP = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_NU1 = st.integers(1, 60)
_NU2 = st.floats(math.log(2.0), math.log(4e6)).map(math.exp)
_P = st.floats(1e-6, 1.0 - 1e-6)


def _near(value, exact, rel):
    return value == pytest.approx(float(exact), rel=rel, abs=0.0)


@_SWEEP
@given(p=_P, nu1=_NU1, nu2=_NU2)
def test_central_f_matches_mpmath(p, nu1, nu2):
    q = f_quantile(p, nu1, nu2)
    with mpmath.workdps(50):
        cdf, sf, pdf = _mp_f(q, nu1, nu2)
        exact_q = q - (cdf - p) / pdf  # one Newton step from q onto the quantile
        assert _near(q, exact_q, 1e-11)
        assert _near(f_cdf(q, nu1, nu2), cdf, 1e-11)
        assert _near(f_sf(q, nu1, nu2), sf, 1e-11)


@_SWEEP
@given(p=_P, nu=st.floats(0.0, math.log(4e6)).map(math.exp))
def test_t_matches_mpmath(p, nu):
    t = t_quantile(p, nu)
    with mpmath.workdps(50):
        cdf, pdf = _mp_t(t, nu)
        exact_t = t - (cdf - p) / pdf
        assert _near(t, exact_t, 1e-11)
        assert _near(t_cdf(t, nu), cdf, 1e-11)


@_SWEEP
@given(x=st.floats(0.01, 0.99), a=st.floats(math.log(0.5), math.log(200.0)).map(math.exp),
       b=st.floats(math.log(0.5), math.log(200.0)).map(math.exp))
def test_reg_inc_beta_matches_mpmath(x, a, b):
    with mpmath.workdps(50):
        assert abs(reg_inc_beta(x, a, b) - _mp_betainc(x, a, b)) <= 1e-13


# log-spaced in 1 + lam up to 5e3, past the OC sweep's largest lam (4,243);
# beyond about 5e3 the sum's log-space weights lose the 2e-12 this asserts.
# hypothesis favours small and boundary floats, so the top gets examples too.
@_SWEEP
@given(nu1=_NU1, nu2=_NU2, lam=st.floats(0.0, math.log1p(5e3)).map(math.expm1),
       z=st.floats(-1.0, 1.0))
@example(nu1=3, nu2=360.0, lam=0.0, z=0.0)
@example(nu1=1, nu2=5e4, lam=1e3, z=-0.3)
@example(nu1=12, nu2=1580.0, lam=4243.358129649309, z=0.1)
@example(nu1=60, nu2=4e6, lam=5e3, z=0.5)
def test_noncentral_f_matches_mpmath(nu1, nu2, lam, z):
    x = (nu1 + lam) / nu1 * math.exp(z)  # around the noncentral mean
    with mpmath.workdps(50):
        exact = _mp_noncentral_f_cdf(x, nu1, nu2, lam)
        assert abs(noncentral_f_cdf(x, nu1, nu2, lam) - exact) <= 2e-12


def test_f_quantile_large_nu2_regression():
    # large nu2: a Lentz continued fraction in double precision is 1.3e-9 off here
    exact = 1.77012863334924184
    assert _near(f_quantile(0.8166330955480088, 1.0, 407783.4727049919), exact, 1e-12)


def test_noncentral_f_large_nu2_regression():
    # large nu2: a Lentz continued fraction in double precision is 5.9e-10 off here
    exact = 0.576429442493365231
    got = noncentral_f_cdf(1.0268784147016312, 39.0, 734675.163628477, 0.0024326733817151783)
    assert abs(got - exact) <= 1e-12
    with mpmath.workdps(50):
        oracle = _mp_noncentral_f_cdf(
            1.0268784147016312, 39.0, 734675.163628477, 0.0024326733817151783)
        assert abs(oracle - mpmath.mpf("0.576429442493365231")) < 1e-17


def test_noncentral_f_window_leaves_out_at_most_the_tail_bound():
    # each side of the summed window omits at most _TAIL_BOUND of the Poisson mass
    from scipy import special

    from losanova import distributions

    bound = distributions._TAIL_BOUND
    for lam in np.logspace(-300.0, 10.0, 2000):
        h = lam / 2.0
        j = distributions._window(h)
        lo, hi = int(j[0]), int(j[-1])
        assert np.array_equal(j, np.arange(lo, hi + 1))
        below = special.pdtr(lo - 1, h) if lo else 0.0  # pdtr(-1, h) is NaN
        assert below <= bound and special.pdtrc(hi, h) <= bound, lam


def _whole_window_sum(x, nu1, nu2, lam):
    """The mixture summed over every term of ``_window``, none skipped, and
    the terms themselves."""
    from scipy import special

    from losanova import distributions

    h = lam / 2.0
    j = distributions._window(h)
    terms = special.betainc(nu1 / 2.0 + j, nu2 / 2.0, nu1 * x / (nu1 * x + nu2))
    return float(distributions._poisson(j, h) @ terms), terms


def test_noncentral_f_skip_matches_the_whole_window_sum():
    # the probe skips terms at 1 or 0 and nothing else, so the result is the
    # whole-window sum to rounding; seeded points plus an all-1 and an all-0 one
    rng = np.random.default_rng(20261019)
    points = [(1e30, 1, 2.0, 50.0), (1e-3, 60, 4e6, 50.0)]
    for _ in range(300):
        nu1 = int(rng.integers(1, 61))
        nu2 = math.exp(rng.uniform(math.log(2.0), math.log(4e6)))
        lam = math.expm1(rng.uniform(0.0, math.log1p(100.0)))
        x = (nu1 + lam) / nu1 * math.exp(rng.uniform(-1.5, 1.5))
        points.append((x, nu1, nu2, lam))
    kinds = set()
    for x, nu1, nu2, lam in points:
        whole, terms = _whole_window_sum(x, nu1, nu2, lam)
        assert abs(noncentral_f_cdf(x, nu1, nu2, lam) - whole) <= 1e-13, (x, nu1, nu2, lam)
        ones, zeros = terms >= 1.0 - 2.0**-53, terms <= 2.0**-53
        kinds.add("all 1" if ones.all() else "all 0" if zeros.all() else
                  "some 1" if ones.any() else "some 0" if zeros.any() else "none")
    assert kinds == {"all 1", "all 0", "some 1", "some 0", "none"}


def test_noncentral_f_window_slack_stays_small():
    # the Chernoff window is longer than scipy's quantile window, by a bounded margin
    from scipy import special

    from losanova import distributions

    bound = distributions._TAIL_BOUND
    for h in np.logspace(2.0, math.log10(distributions._MAX_LAM / 2.0), 400):
        quantile_terms = (math.ceil(special.pdtrik(1.0 - bound, h))
                          - max(0, math.floor(special.pdtrik(bound, h))) + 1)
        assert distributions._window(h).size <= 1.1 * quantile_terms + 20, h


def test_noncentral_f_huge_lambda_in_range():
    # about 320,000 terms around the mode, in one window
    lam = 1e9
    assert 0.0 <= noncentral_f_cdf((3.0 + lam) / 3.0, 3.0, 10.0, lam) <= 1.0
    from losanova import NumericalError

    # past the cap, at the noncentral mean the terms are neither 0 nor 1
    for lam in (1.0000001e10, 1e28):
        mean = 10.0 * (3.0 + lam) / (3.0 * 8.0)
        with pytest.raises(NumericalError, match="cannot resolve its weights"):
            noncentral_f_cdf(mean, 3.0, 10.0, lam)
    # far below the mean every term from the window's first on is 0
    for lam in (1.0000001e10, 2.5e28, 1e300, 1e308, math.inf):
        assert noncentral_f_cdf(1.0, 3.0, 10.0, lam) == 0.0


def test_noncentral_f_at_the_float_limit():
    # nu1 * x overflows here; y = nu1 x / (nu1 x + nu2) must still come out 1
    for x in (1e308, 1.7e308):
        assert noncentral_f_cdf(x, 3.0, 10.0, 5.0) == f_cdf(x, 3.0, 10.0) == 1.0
    # and x * nu1 underflowing to 0 leaves y = 0, not a division by zero
    assert noncentral_f_cdf(5e-324, 0.4, 10.0, 5.0) == 0.0
