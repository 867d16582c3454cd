"""Power analysis and replication-count search for fixed-effects factorial
designs.

The standardized effect size follows the minimum-detectable-difference
convention: for an effect with numerator df nu1 in a layout whose uninvolved
factors' level counts multiply to m,

    phi^2 = n * m * D^2 / (2 * sigma^2 * (nu1 + 1))

which for a main effect of a k-level factor reduces to n*m*D^2 / (2*k*sigma^2).
The F-test noncentrality is lam = (nu1 + 1) * phi^2, the parameterization of
the classical operating-characteristic charts, computed here exactly instead
of being read off a printed curve.

``min_replications`` starts where the chi^2 test on nu1 df, the F test's
limit as nu2 grows, reaches the target power (Patnaik 1949): lam grows
linearly in n, so that n is the answer or a few below it. The n below it is
known short when its lam is under the chi^2 one by a margin (1e-9, relative):
the F test has less power than the chi^2 test at equal lam (Ghosh 1973).
Stepping and bisecting give the n a scan from n = 2 finds, in 63 power
evaluations on the benchmark's planning grid, where doubling took 704.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from .distributions import f_quantile, noncentral_f_cdf, special
from .errors import ReplicationSearchError, ValidationError
from .linmod import Term, effect_label, full_factorial_terms
from .model import FactorLayout


# ``bench/run.py`` reads this name; nothing in the package calls it.
all_effects = full_factorial_terms

# the replication search gives up past this many replications per cell
_N_MAX = 100_000
_FLOOR_MARGIN = 1e-9  # relative, under lam_chi2; chndtrinc inverts chndtr to ~1e-15


def parse_effect(layout: FactorLayout, text: str) -> Term:
    """Parse "season" or "gender*season" (separator '*', whitespace ignored)."""
    names = [part.strip() for part in text.split("*") if part.strip()]
    if not names:
        raise ValidationError(f"cannot parse effect from {text!r}")
    return Term(tuple(layout.factor_index(name) for name in names))


@dataclass(frozen=True)
class PowerSpec:
    """One power question: an effect, a minimum difference worth detecting D,
    an error-variance estimate, a significance level, and replications per cell.
    """

    layout: FactorLayout
    effect: Term
    min_diff: float
    sigma2: float
    alpha: float
    n: int

    def __post_init__(self):
        for i in self.effect.factor_indices:
            self.layout.factor_index(i)
        if not (self.min_diff >= 0 and math.isfinite(self.min_diff)):
            raise ValidationError(f"min_diff must be finite and >= 0, got {self.min_diff!r}")
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValidationError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must be in (0, 1)")
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValidationError(
                f"n (replications per cell) must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))  # a numpy n gives plain-int results


@dataclass(frozen=True)
class PowerResult:
    """Power of one F test at one replication count: an OC-table row."""

    n: int
    phi2: float
    phi: float
    nu1: int
    nu2: int
    lam: float
    beta: float
    power: float


def _dfs(layout: FactorLayout, effect: Term, n: int) -> tuple[int, int, int]:
    """(nu1, nu2, m) for the effect with n per cell: numerator and denominator
    df, and m, the product of the level counts of the factors it leaves out."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    nu1 = inside = 1
    for i in effect.factor_indices:
        nu1 *= layout.shape[i] - 1
        inside *= layout.shape[i]
    return nu1, layout.n_cells * (n - 1), layout.n_cells // inside


def effect_dfs(layout: FactorLayout, effect: Term, n: int) -> tuple[int, int]:
    """(numerator, denominator) df for a balanced design with n per cell, for
    an effect of ``layout``; a factor index outside it raises ``ValidationError``."""
    for i in effect.factor_indices:
        layout.factor_index(i)
    return _dfs(layout, effect, n)[:2]


def _sizes(spec: PowerSpec) -> tuple[int, int, float]:
    """(nu1, nu2, phi^2) of ``spec``."""
    nu1, nu2, m = _dfs(spec.layout, spec.effect, spec.n)
    # a product, not **, so a huge min_diff gives inf instead of OverflowError
    return nu1, nu2, spec.n * m * (spec.min_diff * spec.min_diff) / (2.0 * spec.sigma2 * (nu1 + 1))


def phi_squared(spec: PowerSpec) -> float:
    """Standardized effect size phi^2 for a difference of ``min_diff`` between
    two level means of the effect."""
    return _sizes(spec)[2]


def power_of_test(spec: PowerSpec) -> PowerResult:
    """Exact power of the effect's F test via the noncentral F distribution."""
    nu1, nu2, phi2 = _sizes(spec)
    lam = (nu1 + 1) * phi2
    crit = f_quantile(1.0 - spec.alpha, nu1, nu2)
    beta = noncentral_f_cdf(crit, nu1, nu2, lam)
    return PowerResult(
        n=spec.n,
        phi2=phi2,
        phi=math.sqrt(phi2),
        nu1=nu1,
        nu2=nu2,
        lam=lam,
        beta=beta,
        power=1.0 - beta,
    )


def _chi2_start(spec: PowerSpec, target_power: float) -> tuple[int, int]:
    """(floor, start): start = ceil(lam_chi2 / lam1) in [2, ``_N_MAX``], or 2
    if not finite, where lam_chi2 gives the chi^2 test on nu1 df the target
    power and lam1 = m D^2 / (2 sigma^2) is lam per replication. The floor,
    start - 1 if (start - 1) lam1 <= lam_chi2 (1 - ``_FLOOR_MARGIN``) and else
    1, falls short: F has less power than chi^2 at equal lam (Ghosh 1973)."""
    nu1, _, m = _dfs(spec.layout, spec.effect, spec.n)
    alpha = 1.0 - (1.0 - spec.alpha)  # the level of f_quantile(1 - alpha)
    lam_chi2 = float(special.chndtrinc(special.chdtri(nu1, alpha), nu1, 1.0 - target_power))
    lam1 = m * (spec.min_diff * spec.min_diff) / (2.0 * spec.sigma2)
    n0 = lam_chi2 / lam1 if lam1 > 0 else math.inf
    start = min(max(math.ceil(n0), 2), _N_MAX) if math.isfinite(n0) else 2
    return (start - 1 if (start - 1) * lam1 <= lam_chi2 * (1.0 - _FLOOR_MARGIN) else 1), start


def min_replications(
    layout: FactorLayout,
    effect: Term,
    min_diff: float,
    sigma2: float,
    alpha: float,
    target_power: float,
) -> PowerResult:
    """Smallest n <= ``_N_MAX`` whose power reaches ``target_power``.

    Power is nondecreasing in n. From ``_chi2_start`` the search steps by 1,
    2, 4, ... down (when the start reaches the target) or up until it brackets
    the crossing, then bisects; the start's floor, whose lam is under the
    chi^2 test's by the margin 1e-9, falls short unevaluated (Ghosh 1973).
    Raises ``ReplicationSearchError`` (carrying the result at ``_N_MAX``)
    when even ``_N_MAX`` falls short.
    """
    if not 0 < target_power < 1:
        raise ValidationError("target_power must be in (0, 1)")

    def power_at(n: int) -> PowerResult:
        return power_of_test(PowerSpec(layout, effect, min_diff, sigma2, alpha, n))

    floor, hi_n = _chi2_start(PowerSpec(layout, effect, min_diff, sigma2, alpha, 2), target_power)
    hi, step = power_at(hi_n), 1
    while hi.power >= target_power:  # step down until an n falls short
        lo_n = max(hi_n - step, floor)  # the floor falls short, unevaluated
        if lo_n == floor or (res := power_at(lo_n)).power < target_power:
            break
        hi_n, hi, step = lo_n, res, step * 2
    while hi.power < target_power:  # step up until an n reaches the target
        if hi_n >= _N_MAX:
            raise ReplicationSearchError(target_power, _N_MAX, hi)
        lo_n, hi_n = hi_n, min(hi_n + step, _N_MAX)
        hi, step = power_at(hi_n), step * 2
    while hi_n - lo_n > 1:  # power(lo_n) < target <= power(hi_n)
        mid = (lo_n + hi_n) // 2
        res = power_at(mid)
        if res.power >= target_power:
            hi_n, hi = mid, res
        else:
            lo_n = mid
    return hi


@dataclass(frozen=True)
class EffectPlan:
    effect: Term
    label: str
    result: PowerResult


@dataclass(frozen=True)
class ReplicationPlan:
    """Per-effect minimum replication counts and the overall requirement."""

    effects: tuple[EffectPlan, ...]
    target_power: float

    @property
    def max_n(self) -> int:
        return max(p.result.n for p in self.effects)


def plan_all_effects(
    layout: FactorLayout,
    min_diff: float,
    sigma2: float,
    alpha: float,
    target_power: float,
) -> ReplicationPlan:
    """Run ``min_replications`` for every main effect and interaction."""
    plans = []
    for effect in full_factorial_terms(layout):
        result = min_replications(layout, effect, min_diff, sigma2, alpha, target_power)
        plans.append(EffectPlan(effect, effect_label(layout, effect), result))
    return ReplicationPlan(tuple(plans), target_power)


def oc_table(
    layout: FactorLayout,
    effect: Term,
    min_diff: float,
    sigma2: float,
    alpha: float,
    ns: Sequence[int],
) -> list[PowerResult]:
    """One ``PowerResult`` row per requested replication count."""
    if not ns:
        raise ValidationError("oc_table needs at least one n")
    return [power_of_test(PowerSpec(layout, effect, min_diff, sigma2, alpha, n)) for n in ns]
