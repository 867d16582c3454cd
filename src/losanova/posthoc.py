"""Scheffe pairwise multiple comparisons and homogeneous-subset construction.

For levels I, J of a k-level factor with marginal means m_I, m_J and counts
n_I, n_J, against an error mean square from the fitted ANOVA:

    diff = m_I - m_J
    SE   = sqrt(mse * (1/n_I + 1/n_J))
    p    = P(F(k-1, df_error) > diff^2 / ((k-1) * SE^2))
    CI   = diff +/- sqrt((k-1) * F_crit(1-alpha; k-1, df_error)) * SE

The SE uses the exact per-level counts, not a harmonic-mean size, and the
confidence interval excludes zero exactly when p < alpha.

A homogeneous subset is a maximal consecutive run of the mean-sorted levels
whose pairwise comparisons are all nonsignificant. The per-subset
significance reported is the minimum pairwise p inside the subset (1.0 for
singletons); the rule is recorded on the result since other conventions
exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import f_quantile, f_sf
from .errors import ValidationError
from .model import Dataset

SUBSET_SIGNIFICANCE_RULE = "minimum within-subset pairwise p (1.0 for singletons)"


@dataclass(frozen=True)
class LevelSummary:
    """Marginal count and plain observation mean of one factor level."""

    level: str
    n: int
    mean: float


@dataclass(frozen=True)
class ScheffeComparison:
    factor: str
    level_i: str
    level_j: str
    diff: float
    se: float
    p: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class Subset:
    levels: tuple[str, ...]
    means: tuple[float, ...]
    significance: float


@dataclass(frozen=True)
class HomogeneousSubsets:
    factor: str
    alpha: float
    subsets: tuple[Subset, ...]
    significance_rule: str = SUBSET_SIGNIFICANCE_RULE


def marginal_means(d: Dataset, factor: int | str) -> list[LevelSummary]:
    """Per-level observation count and raw mean, in level order, from the
    cell table: sum(n_c) and sum(n_c * mean_c) / sum(n_c) over the level's
    cells c."""
    fi = d.layout.factor_index(factor)
    cells = d.cells
    shape, k = d.layout.shape, d.layout.n_levels(fi)

    def per_level(values: np.ndarray) -> list:
        return np.moveaxis(values.reshape(shape), fi, 0).reshape(k, -1).sum(axis=1).tolist()

    counts, sums = per_level(cells.counts), per_level(cells.counts * cells.means)
    return [
        LevelSummary(name, n, total / n if n else math.nan)
        for name, n, total in zip(d.layout.levels(fi), counts, sums)
    ]


def scheffe_compare(
    factor: str,
    i: LevelSummary,
    j: LevelSummary,
    k: int,
    mse: float,
    df_error: float,
    alpha: float,
) -> ScheffeComparison:
    """One Scheffe-adjusted pairwise comparison."""
    if i.n <= 0 or j.n <= 0:
        empty = i.level if i.n <= 0 else j.level
        raise ValidationError(f"level {empty!r} of {factor!r} has no observations")
    diff = i.mean - j.mean
    se = math.sqrt(mse * (1.0 / i.n + 1.0 / j.n))
    f_stat = diff * diff / ((k - 1) * se * se)
    p = f_sf(f_stat, k - 1, df_error)
    half_width = math.sqrt((k - 1) * f_quantile(1.0 - alpha, k - 1, df_error)) * se
    return ScheffeComparison(
        factor=factor,
        level_i=i.level,
        level_j=j.level,
        diff=diff,
        se=se,
        p=p,
        ci_low=diff - half_width,
        ci_high=diff + half_width,
    )


def scheffe_from_stats(
    factor: str,
    level_stats: Sequence[LevelSummary],
    mse: float,
    df_error: float,
    alpha: float = 0.05,
) -> list[ScheffeComparison]:
    """All ordered pairwise comparisons from per-level summary statistics.

    Exists separately from ``scheffe_pairwise`` so published marginal means
    and counts can be analyzed without the raw data.
    """
    if len(level_stats) < 2:
        raise ValidationError("need at least two levels to compare")
    if not mse > 0:
        raise ValidationError("mse must be > 0")
    if not df_error > 0:
        raise ValidationError("df_error must be > 0")
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    k = len(level_stats)
    out = []
    for i in level_stats:
        for j in level_stats:
            if i.level != j.level:
                out.append(scheffe_compare(factor, i, j, k, mse, df_error, alpha))
    return out


def scheffe_pairwise(
    d: Dataset,
    factor: int | str,
    mse: float,
    df_error: float,
    alpha: float = 0.05,
) -> list[ScheffeComparison]:
    """All ordered pairwise Scheffe comparisons for one factor of a dataset.

    ``mse`` and ``df_error`` come from the fitted ANOVA on the same response
    scale.
    """
    fi = d.layout.factor_index(factor)
    stats = marginal_means(d, fi)
    return scheffe_from_stats(d.layout.names[fi], stats, mse, df_error, alpha)


def homogeneous_subsets(
    comparisons: Sequence[ScheffeComparison],
    level_means: Sequence[tuple[str, float]] | Sequence[LevelSummary],
    alpha: float = 0.05,
) -> HomogeneousSubsets:
    """Maximal consecutive runs of mean-sorted levels with all pairwise p > alpha.

    Every level lands in at least one subset (singletons are always valid),
    and no reported subset can be extended in either direction.
    """
    if not comparisons:
        raise ValidationError("no comparisons supplied")
    factor = comparisons[0].factor
    pairs = {}
    for c in comparisons:
        if c.factor != factor:
            raise ValidationError("comparisons mix factors")
        pairs[frozenset((c.level_i, c.level_j))] = c.p

    entries = [
        (ls.level, ls.mean) if isinstance(ls, LevelSummary) else (str(ls[0]), float(ls[1]))
        for ls in level_means
    ]
    entries.sort(key=lambda t: t[1])
    levels = [lv for lv, _ in entries]
    means = {lv: m for lv, m in entries}

    def pair_p(a: str, b: str) -> float:
        key = frozenset((a, b))
        if key not in pairs:
            raise ValidationError(f"missing comparison for pair ({a}, {b})")
        return pairs[key]

    n = len(levels)
    subsets = []
    reach_prev = -1
    for start in range(n):
        end = start
        while end + 1 < n and all(
            pair_p(levels[m], levels[end + 1]) > alpha for m in range(start, end + 1)
        ):
            end += 1
        if end > reach_prev:  # maximal: not contained in the previous run
            run = levels[start : end + 1]
            if len(run) == 1:
                sig = 1.0
            else:
                sig = min(
                    pair_p(a, b) for idx, a in enumerate(run) for b in run[idx + 1 :]
                )
            subsets.append(
                Subset(tuple(run), tuple(means[lv] for lv in run), sig)
            )
            reach_prev = end
    return HomogeneousSubsets(factor=factor, alpha=alpha, subsets=tuple(subsets))
