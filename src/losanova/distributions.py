"""Special functions and distributions underpinning every test in the package:
regularized incomplete beta, normal, Student t, central F, and noncentral F.

The central F and t and the incomplete beta are thin wrappers over
``scipy.special``: domain errors raise ``ValidationError``, and a NaN from
scipy raises ``NumericalError``. The noncentral F stays in-house, as a
Poisson mixture of ``betainc`` terms over a window from the Poisson Chernoff
bounds, evaluating only the terms not saturated at 1 or 0, because
``scipy.special.ncfdtr`` (scipy 1.17.1) returns NaN at 65 of the
4,312 points of the planning OC sweep, all at noncentralities over 1,285,
where the type II error underflows to 0.0. The normal CDF and
quantile apply ``math`` per element, because ``synth``'s seeded stream runs
through them. ``scipy.special`` is bound on first use, at the first call that
needs it, so importing this module does not import scipy. Everything here is
pure and stateless, safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from ._lazy import LazyModule
from .errors import NumericalError, ValidationError

special = LazyModule("scipy.special")

# bound on the Poisson mass the noncentral series leaves out on each side
_TAIL_BOUND = 5e-13
# past this lam, rounding moves each log-space Poisson weight (terms of size
# h log h, h = lam/2) by over 1e-5, and the window holds over 10^6 terms
_MAX_LAM = 1e10
# incomplete-beta terms at or past these count as exactly 1 or 0
_ONE = 1.0 - 2.0**-53
_ZERO = 2.0**-53


def _defined(value, name: str, *args) -> float:
    """A scipy result as a float; NaN raises ``NumericalError``."""
    if math.isnan(out := float(value)):
        raise NumericalError(f"{name} is undefined at {', '.join(map(repr, args))}")
    return out


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise ValidationError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValidationError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    return _defined(special.betainc(a, b, x), "reg_inc_beta", x, a, b)


def f_cdf(x: float, nu1: float, nu2: float) -> float:
    """CDF of the central F distribution."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_cdf requires nu1 > 0 and nu2 > 0")
    if math.isnan(x):
        raise ValidationError("f_cdf: x is NaN")
    if x <= 0.0:
        return 0.0
    return _defined(special.fdtr(nu1, nu2, x), "f_cdf", x, nu1, nu2)


def f_sf(x: float, nu1: float, nu2: float) -> float:
    """Survival function 1 - CDF, computed without cancellation in the far tail."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_sf requires nu1 > 0 and nu2 > 0")
    if math.isnan(x):
        raise ValidationError("f_sf: x is NaN")
    if x <= 0.0:
        return 1.0
    return _defined(special.fdtrc(nu1, nu2, x), "f_sf", x, nu1, nu2)


def f_quantile(p: float, nu1: float, nu2: float) -> float:
    """Quantile of the central F distribution, the inverse of ``f_cdf``."""
    if not (nu1 > 0 and nu2 > 0):
        raise ValidationError("f_quantile requires nu1 > 0 and nu2 > 0")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"f_quantile requires p in (0, 1), got {p!r}")
    return _defined(special.fdtri(nu1, nu2, p), "f_quantile", p, nu1, nu2)


def t_cdf(t: float, nu: float) -> float:
    """CDF of Student's t distribution with nu degrees of freedom."""
    if not nu > 0:
        raise ValidationError("t_cdf requires nu > 0")
    if math.isnan(t):
        raise ValidationError("t_cdf: t is NaN")
    return _defined(special.stdtr(nu, t), "t_cdf", t, nu)


def t_quantile(p: float, nu: float) -> float:
    """Quantile of Student's t; symmetric, consistent with t^2 = F(1, nu)."""
    if not nu > 0:
        raise ValidationError("t_quantile requires nu > 0")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"t_quantile requires p in (0, 1), got {p!r}")
    return _defined(special.stdtrit(nu, p), "t_quantile", p, nu)


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


def _poisson(j, half: float):
    """Poisson(half) probabilities at the integer-valued float (array) j."""
    return np.exp(special.xlogy(j, half) - half - special.gammaln(j + 1.0))


def _window(half: float) -> np.ndarray:
    """The j = lo..hi that leave out at most ``_TAIL_BOUND`` of the
    Poisson(half) mass on each side.

    lo and hi come from the Chernoff bounds P(X <= h - t) <= exp(-t^2/2h)
    and P(X >= h + t) <= exp(-t^2 / (2(h + t/3))), solved for t in closed
    form. They are bounds, not scipy's quantiles (``pdtrik``): the window is
    about 8% longer (463 terms against 429 at h = 900), but it takes about
    3 us where the two ``pdtrik`` calls took 11 us (2-CPU x86 machine), and
    ``noncentral_f_cdf`` skips the saturated terms it adds."""
    log_bound = -math.log(_TAIL_BOUND)
    lo = max(0, math.floor(half - math.sqrt(2.0 * half * log_bound)))
    third = log_bound / 3.0
    hi = math.ceil(half + third + math.sqrt(third * third + 2.0 * half * log_bound))
    return np.arange(lo, hi + 1, dtype=float)


def noncentral_f_cdf(x: float, nu1: float, nu2: float, lam: float) -> float:
    """CDF of the noncentral F distribution with noncentrality lam.

    The Poisson(lam/2) mixture of I_y(nu1/2 + j, nu2/2), y = nu1 x/(nu1 x + nu2),
    over the ``_window`` of j. I_y falls as j grows, so ``betainc`` on every
    isqrt(window)-th j finds the terms at 1 to double precision, whose mass
    comes from one ``pdtr`` call, and those at 0, which are dropped; one
    ``betainc`` call and log-space weights cover the terms between, so
    extreme noncentralities stay in range. Nonincreasing in lam for fixed x;
    reduces exactly to ``f_cdf`` at lam = 0.

    Within 2e-12 of a 50-digit evaluation up to lam = 5e3; beyond, rounding of
    the log-space weights grows with lam (up to 1.4e-11 at lam = 2e4). The window
    holds about 15 sqrt(lam/2) terms, so ``_MAX_LAM`` is what bounds memory:
    at lam = 1e10 it is about 1.06e6 terms. At the noncentral mean there, with
    nu1 = 3 and nu2 = 10, no term saturates and one call takes about 0.4 s on
    a 2-CPU x86 machine, in a process that peaks at about 89 MB of RSS; 1%
    above or below the mean it takes about 3 ms with nu2 = 4e6. Over
    ``_MAX_LAM`` no window is built: the CDF is 0.0 when the window's first
    term is at 0, as every term after it is then (and always at lam = inf),
    and raises ``NumericalError`` otherwise.
    """
    if not (0 < nu1 < math.inf and 0 < nu2 < math.inf):
        raise ValidationError("noncentral_f_cdf requires finite nu1 > 0 and nu2 > 0")
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

    a, b = nu1 / 2.0, nu2 / 2.0
    y = 1.0 / (1.0 + nu2 / nu1 / x)  # nu1 * x / (nu1 * x + nu2), which can overflow
    if not lam <= _MAX_LAM:
        # the window's lower end, unfloored and in a form that cannot
        # overflow: the terms below it are inside the tail bound already
        lo = lam / 2.0 - math.sqrt(lam) * math.sqrt(-math.log(_TAIL_BOUND))
        if math.isinf(lam) or special.betainc(a + lo, b, y) <= _ZERO:
            return 0.0
        raise NumericalError(f"noncentral F series cannot resolve its weights at lam = {lam}")

    half = lam / 2.0
    j = _window(half)
    first = a + float(j[0])  # all terms are at 0 if it is, which needs y < its beta mean
    if y * (first + b) < first and special.betainc(first, b, y) <= _ZERO:
        return 0.0
    # I_y(a + j, b) falls as j grows: probe every step-th term, count the
    # terms up to the last probe at 1 as 1 and those from the first probe at
    # 0 on as 0, and sum weights times betainc only over the terms between.
    # The terms below the window are at 1 too when the first probe is, so
    # the mass of the terms at 1 is the Poisson CDF at the last of them.
    step = math.isqrt(j.size)
    probes = special.betainc(a + j[::step], b, y)
    (ones,) = (probes >= _ONE).nonzero()
    (zeros,) = (probes <= _ZERO).nonzero()
    start = int(ones[-1]) * step + 1 if ones.size else 0
    stop = int(zeros[0]) * step if zeros.size else j.size
    total = special.pdtr(j[start - 1], half) if start else 0.0
    if start < stop:
        live = j[start:stop]
        total += _poisson(live, half) @ special.betainc(a + live, b, y)
    return min(float(total), 1.0)
