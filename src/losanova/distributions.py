"""Special functions and distributions underpinning every test in the package:
log-gamma, regularized incomplete beta, normal, Student t, central F, and
noncentral F.

The incomplete beta uses the continued-fraction form with the standard
symmetry switch at x = (a+1)/(a+b+2), which keeps accuracy uniform across
both tails. Quantiles invert the CDFs by bracketed bisection refined with
derivative-free secant steps. The noncentral F CDF is a Poisson-weighted
series of central incomplete-beta terms, truncated only once the remaining
Poisson tail mass drops below 1e-12; a failure to converge raises
``NumericalError`` rather than returning a partial sum.

Everything here is a pure, stateless function, safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_POISSON_TAIL = 1e-12
# refresh the incomplete-beta recurrence with a direct evaluation this often
_REFRESH_EVERY = 64


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0) or math.isinf(x):
        raise ValidationError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 10000) -> float:
    """Continued fraction for the incomplete beta, evaluated by modified Lentz.

    Only called with x < (a+1)/(a+b+2), where convergence is rapid.
    """
    tiny = 1e-300
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Satisfies I_x(a, b) = 1 - I_{1-x}(b, a); absolute error <= 1e-10.
    """
    if not (a > 0 and b > 0):
        raise ValidationError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValidationError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class FDist:
    """An F distribution with nu1, nu2 degrees of freedom and noncentrality lam.

    lam = 0 gives the central distribution.
    """

    nu1: float
    nu2: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.nu1 > 0 and self.nu2 > 0):
            raise ValidationError("FDist requires nu1 > 0 and nu2 > 0")
        if not self.lam >= 0:
            raise ValidationError("FDist requires lam >= 0")

    def cdf(self, x: float) -> float:
        if self.lam == 0.0:
            return f_cdf(x, self.nu1, self.nu2)
        return noncentral_f_cdf(x, self.nu1, self.nu2, self.lam)

    def sf(self, x: float) -> float:
        if self.lam == 0.0:
            return f_sf(x, self.nu1, self.nu2)
        return 1.0 - self.cdf(x)

    def quantile(self, p: float) -> float:
        if self.lam != 0.0:
            raise ValidationError("quantile is implemented for the central F only")
        return f_quantile(p, self.nu1, self.nu2)


def f_cdf(x: float, nu1: float, nu2: float) -> float:
    """CDF of the central F distribution."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_cdf requires nu1 > 0 and nu2 > 0")
    if math.isnan(x):
        raise ValidationError("f_cdf: x is NaN")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return reg_inc_beta(nu1 * x / (nu1 * x + nu2), nu1 / 2.0, nu2 / 2.0)


def f_sf(x: float, nu1: float, nu2: float) -> float:
    """Survival function 1 - CDF, computed without cancellation in the far tail."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_sf requires nu1 > 0 and nu2 > 0")
    if math.isnan(x):
        raise ValidationError("f_sf: x is NaN")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return reg_inc_beta(nu2 / (nu1 * x + nu2), nu2 / 2.0, nu1 / 2.0)


def _invert_monotone(cdf, p: float, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Invert a nondecreasing CDF on a bracket by bisection plus secant steps.

    A secant step is only trusted while the bracket keeps shrinking; otherwise
    the next step falls back to plain bisection, so progress is guaranteed.
    """
    flo = cdf(lo) - p
    fhi = cdf(hi) - p
    if flo > 0 or fhi < 0:
        raise NumericalError("quantile bracket does not contain the target probability")
    x_prev, f_prev = lo, flo
    x_cur, f_cur = hi, fhi
    use_secant = True
    for _ in range(200):
        width = hi - lo
        x_new = None
        if use_secant and f_cur != f_prev:
            cand = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
            if lo < cand < hi:
                x_new = cand
        if x_new is None:
            x_new = 0.5 * (lo + hi)
        f_new = cdf(x_new) - p
        if f_new == 0.0:
            return x_new
        if f_new < 0:
            lo = x_new
        else:
            hi = x_new
        if hi - lo < tol * max(1.0, abs(x_new)):
            return x_new
        use_secant = (hi - lo) < 0.75 * width
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    return 0.5 * (lo + hi)


def f_quantile(p: float, nu1: float, nu2: float) -> float:
    """Quantile of the central F distribution, exact inverse of ``f_cdf``."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_quantile requires nu1 > 0 and nu2 > 0")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"f_quantile requires p in (0, 1), got {p!r}")
    hi = 1.0
    while f_cdf(hi, nu1, nu2) < p:
        hi *= 2.0
        if hi > 1e300:
            raise NumericalError("f_quantile: failed to bracket the quantile")
    return _invert_monotone(lambda x: f_cdf(x, nu1, nu2), p, 0.0, hi)


def t_cdf(t: float, nu: float) -> float:
    """CDF of Student's t distribution with nu degrees of freedom."""
    if not nu > 0:
        raise ValidationError("t_cdf requires nu > 0")
    if math.isnan(t):
        raise ValidationError("t_cdf: t is NaN")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    tail = 0.5 * reg_inc_beta(nu / (nu + t * t), nu / 2.0, 0.5)
    return tail if t < 0 else 1.0 - tail


def t_quantile(p: float, nu: float) -> float:
    """Quantile of Student's t; symmetric, consistent with t^2 = F(1, nu)."""
    if not nu > 0:
        raise ValidationError("t_quantile requires nu > 0")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"t_quantile requires p in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, nu)
    return math.sqrt(f_quantile(2.0 * p - 1.0, 1.0, nu))


_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` applied element by element. Array results then
    equal scalar calls bit for bit; numpy's ``log1p`` and scipy's ``erfc``
    differ from ``math`` in the last place on some inputs, which would change
    what a ``synth`` seed draws."""
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def normal_cdf(z):
    """Standard normal CDF via the complementary error function.

    ``z`` is a float or a 1-D array; an array gives an array.
    """
    x = np.atleast_1d(np.asarray(z, dtype=float))
    if np.isnan(x).any():
        raise ValidationError("normal_cdf: z is NaN")
    out = 0.5 * _each(math.erfc, -x / _SQRT_2)
    return out if np.ndim(z) else float(out[0])


# Acklam's rational approximation to the standard normal quantile,
# polished below with one Halley step to full double accuracy.
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_P_LOW = 0.02425


def _acklam_tail(q: np.ndarray) -> np.ndarray:
    c, d = _ACKLAM_C, _ACKLAM_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def normal_quantile(p):
    """Standard normal quantile; round-trips with ``normal_cdf`` within 1e-9.

    ``p`` is a float or a 1-D array; an array gives an array, equal element
    by element to the scalar results.
    """
    u = np.atleast_1d(np.asarray(p, dtype=float))
    bad = ~((0.0 < u) & (u < 1.0))
    if bad.any():
        shown = p if not np.ndim(p) else float(u[np.argmax(bad)])
        raise ValidationError(f"normal_quantile requires p in (0, 1), got {shown!r}")
    a, b = _ACKLAM_A, _ACKLAM_B
    x = np.empty_like(u)
    low = u < _ACKLAM_P_LOW
    high = u > 1.0 - _ACKLAM_P_LOW
    mid = ~(low | high)
    x[low] = _acklam_tail(np.sqrt(-2.0 * _each(math.log, u[low])))
    q = u[mid] - 0.5
    r = q * q
    x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
    x[high] = -_acklam_tail(np.sqrt(-2.0 * _each(math.log1p, -u[high])))
    # one Halley refinement step; skipped in the far tails where the density
    # underflows (the rational approximation alone is accurate there)
    step = np.abs(x) < 37.0
    xs = x[step]
    e = normal_cdf(xs) - u[step]
    h = e * _SQRT_2PI * _each(math.exp, xs * xs / 2.0)
    x[step] = xs - h / (1.0 + xs * h / 2.0)
    return x if np.ndim(p) else float(x[0])


def noncentral_f_cdf(x: float, nu1: float, nu2: float, lam: float) -> float:
    """CDF of the noncentral F distribution with noncentrality lam.

    Evaluated as a Poisson(lam/2) mixture of central incomplete-beta terms,
    summed outward from the Poisson mode so extreme noncentralities stay in
    floating-point range. Nonincreasing in lam for fixed x; reduces exactly
    to ``f_cdf`` at lam = 0.

    Truncation is bounded by the two stopping rules alone: each sweep stops
    once a bound on the Poisson weight beyond it is under half of
    ``_POISSON_TAIL``, and the upward sweep raises ``NumericalError`` if that
    takes too many steps.
    """
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("noncentral_f_cdf requires nu1 > 0 and nu2 > 0")
    if not lam >= 0:
        raise ValidationError(f"noncentral_f_cdf requires lam >= 0, got {lam!r}")
    if math.isnan(x):
        raise ValidationError("noncentral_f_cdf: x is NaN")
    if lam == 0.0:
        return f_cdf(x, nu1, nu2)
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0

    half = lam / 2.0
    a = nu1 / 2.0
    b = nu2 / 2.0
    y = nu1 * x / (nu1 * x + nu2)
    log_y = math.log(y)
    log_1my = math.log1p(-y)

    def beta_term(j: int) -> float:
        return reg_inc_beta(y, a + j, b)

    def log_t(j: int) -> float:
        # T_j = y^(a+j) (1-y)^b / ((a+j) B(a+j, b)): the decrement taking
        # I_y(a+j, b) to I_y(a+j+1, b)
        aj = a + j
        return aj * log_y + b * log_1my - math.log(aj) - _log_beta(aj, b)

    j0 = int(half)
    log_w0 = -half + (j0 * math.log(half) if j0 > 0 else 0.0) - math.lgamma(j0 + 1)
    w0 = math.exp(log_w0)
    if w0 == 0.0:
        raise NumericalError(f"noncentral F series underflow at lam = {lam}")

    max_steps = int(10.0 * math.sqrt(half) + 500.0)
    total = 0.0
    ib0 = beta_term(j0)

    # upward sweep from the Poisson mode: stop once the geometric bound on
    # the weight mass above j falls under half the tail budget
    w, j, ib = w0, j0, ib0
    t = math.exp(log_t(j0))
    steps = 0
    while True:
        total += w * ib
        if j + 2.0 > half:
            mass_above = w * (half / (j + 1.0)) / (1.0 - half / (j + 2.0))
            if mass_above < 0.5 * _POISSON_TAIL:
                break
        steps += 1
        if steps > max_steps:
            raise NumericalError(
                f"noncentral F series did not converge (lam={lam}, nu1={nu1}, nu2={nu2})"
            )
        ib = max(ib - t, 0.0)
        aj = a + j
        t *= y * (aj + b) / (aj + 1.0)
        j += 1
        w *= half / j
        if steps % _REFRESH_EVERY == 0:
            ib = beta_term(j)
            t = math.exp(log_t(j))

    # downward sweep below the mode; weights decrease toward j = 0, so at
    # most j terms of size < w remain when we stop
    if j0 > 0:
        j = j0 - 1
        w = w0 * (j0 / half)
        t = math.exp(log_t(j))
        ib = min(ib0 + t, 1.0)
        steps = 0
        while True:
            total += w * ib
            if j == 0 or w * j < 0.5 * _POISSON_TAIL:
                break
            steps += 1
            aj = a + j
            t *= aj / (y * (aj - 1.0 + b))
            ib = min(ib + t, 1.0)
            w *= j / half
            j -= 1
            if steps % _REFRESH_EVERY == 0:
                ib = beta_term(j)
                t = math.exp(log_t(j))
    return min(total, 1.0)
