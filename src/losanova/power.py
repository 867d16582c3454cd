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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .distributions import f_quantile, noncentral_f_cdf
from .errors import ReplicationSearchError, ValidationError
from .linmod import Term, full_factorial_terms
from .model import FactorLayout


# a main effect or interaction is a model term; the planning names stay public
EffectId = Term
all_effects = full_factorial_terms


def effect_label(layout: FactorLayout, effect: EffectId) -> str:
    return " * ".join(layout.names[i] for i in effect.factor_indices)


def parse_effect(layout: FactorLayout, text: str) -> EffectId:
    """Parse "season" or "gender*season" (separator '*', whitespace ignored)."""
    names = [part.strip() for part in text.split("*") if part.strip()]
    if not names:
        raise ValidationError(f"cannot parse effect from {text!r}")
    return EffectId(tuple(layout.factor_index(name) for name in names))


@dataclass(frozen=True)
class PowerSpec:
    """One power question: an effect, a minimum difference worth detecting D,
    an error-variance estimate, a significance level, and replications per cell.
    """

    layout: FactorLayout
    effect: EffectId
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
        if self.n < 2:
            raise ValidationError("n (replications per cell) must be >= 2")


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


def effect_dfs(layout: FactorLayout, effect: EffectId, n: int) -> tuple[int, int]:
    """(numerator, denominator) df for a balanced design with n per cell."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    nu1 = math.prod(layout.n_levels(i) - 1 for i in effect.factor_indices)
    nu2 = layout.n_cells * (n - 1)
    return nu1, nu2


def phi_squared(spec: PowerSpec) -> float:
    """Standardized effect size phi^2 for a difference of ``min_diff`` between
    two level means of the effect."""
    nu1, _ = effect_dfs(spec.layout, spec.effect, spec.n)
    m = math.prod(
        spec.layout.n_levels(i)
        for i in range(spec.layout.n_factors)
        if i not in spec.effect.factor_indices
    )
    # a product, not **, so a huge min_diff gives inf instead of OverflowError
    return spec.n * m * (spec.min_diff * spec.min_diff) / (2.0 * spec.sigma2 * (nu1 + 1))


def power_of_test(spec: PowerSpec) -> PowerResult:
    """Exact power of the effect's F test via the noncentral F distribution."""
    nu1, nu2 = effect_dfs(spec.layout, spec.effect, spec.n)
    phi2 = phi_squared(spec)
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


def _power_at(layout, effect, min_diff, sigma2, alpha, n) -> PowerResult:
    return power_of_test(PowerSpec(layout, effect, min_diff, sigma2, alpha, n))


def min_replications(
    layout: FactorLayout,
    effect: EffectId,
    min_diff: float,
    sigma2: float,
    alpha: float,
    target_power: float,
    n_max: int = 100_000,
) -> PowerResult:
    """Smallest n <= n_max whose power reaches ``target_power``.

    Power is nondecreasing in n, so an exponential scan brackets the crossing
    and bisection pins it down. Raises ``ReplicationSearchError`` (carrying
    the best achieved result) when even n_max falls short.
    """
    if not 0 < target_power < 1:
        raise ValidationError("target_power must be in (0, 1)")
    if n_max < 2:
        raise ValidationError("n_max must be >= 2")

    def power_at(n: int) -> PowerResult:
        return _power_at(layout, effect, min_diff, sigma2, alpha, n)

    lo = power_at(2)
    if lo.power >= target_power:
        return lo
    hi_n = 2
    hi = lo
    while hi.power < target_power:
        if hi_n >= n_max:
            raise ReplicationSearchError(target_power, n_max, hi)
        hi_n = min(hi_n * 2, n_max)
        hi = power_at(hi_n)
    lo_n = hi_n // 2  # power(lo_n) < target, power(hi_n) >= target
    while hi_n - lo_n > 1:
        mid = (lo_n + hi_n) // 2
        res = power_at(mid)
        if res.power >= target_power:
            hi_n, hi = mid, res
        else:
            lo_n = mid
    return hi


@dataclass(frozen=True)
class EffectPlan:
    effect: EffectId
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
    n_max: int = 100_000,
) -> ReplicationPlan:
    """Run ``min_replications`` for every main effect and interaction."""
    plans = []
    for effect in all_effects(layout):
        result = min_replications(
            layout, effect, min_diff, sigma2, alpha, target_power, n_max
        )
        plans.append(EffectPlan(effect, effect_label(layout, effect), result))
    return ReplicationPlan(tuple(plans), target_power)


def oc_table(
    layout: FactorLayout,
    effect: EffectId,
    min_diff: float,
    sigma2: float,
    alpha: float,
    ns: Sequence[int],
) -> list[PowerResult]:
    """One ``PowerResult`` row per requested replication count."""
    if not ns:
        raise ValidationError("oc_table needs at least one n")
    return [_power_at(layout, effect, min_diff, sigma2, alpha, n) for n in ns]
