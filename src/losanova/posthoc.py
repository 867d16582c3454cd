"""Scheffe pairwise multiple comparisons and homogeneous-subset construction.

Post hoc reads a one-factor ``CellTable`` and never raw data: the margin
of a cell table over the factor (``cells.margin(factor)``), or a table of
published per-level counts and means:
``CellTable(FactorLayout([(factor, levels)]), counts, means, zeros)``.

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
from typing import ClassVar, Sequence

import numpy as np

from .distributions import f_quantile, f_sf
from .errors import ValidationError
from .model import CellTable

SUBSET_SIGNIFICANCE_RULE = "minimum within-subset pairwise p (1.0 for singletons)"


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
    kind: ClassVar[str] = "subsets"
    factor: str
    alpha: float
    subsets: tuple[Subset, ...]
    significance_rule: str = SUBSET_SIGNIFICANCE_RULE

    @property
    def level_means(self) -> dict[str, float]:
        """Each level's mean, in mean order: the subsets are runs of that order."""
        return {lv: m for s in self.subsets for lv, m in zip(s.levels, s.means)}


# ``bench/run.py`` traces this name; nothing in the package calls it.
marginal_means = CellTable.margin


def _factor(margin: CellTable) -> tuple[str, tuple[str, ...]]:
    """The name and levels of a one-factor cell table's factor."""
    if margin.layout.n_factors != 1:
        raise ValidationError(
            f"post hoc needs a one-factor table, got {', '.join(margin.layout.names)}"
        )
    return margin.layout.factors[0]


def scheffe_pairwise(
    margin: CellTable,
    mse: float,
    df_error: float,
    alpha: float = 0.05,
) -> list[ScheffeComparison]:
    """All ordered pairwise Scheffe comparisons of a one-factor cell table's
    levels: (I, J) for each level I in order, then each other level J.

    ``mse`` and ``df_error`` come from the fitted ANOVA on the same response
    scale.
    """
    factor, levels = _factor(margin)
    if not mse > 0:
        raise ValidationError("mse must be > 0")
    if not df_error > 0:
        raise ValidationError("df_error must be > 0")
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0, 1)")
    n = margin.counts
    if not (n > 0).all():
        empty = levels[int(np.argmin(n > 0))]
        raise ValidationError(f"level {empty!r} of {factor!r} has no observations")
    k = len(levels)
    i, j = (~np.eye(k, dtype=bool)).nonzero()
    with np.errstate(over="ignore", invalid="ignore"):
        diff = margin.means[i] - margin.means[j]
        se = np.sqrt(mse * (1.0 / n[i] + 1.0 / n[j]))
        f_stat = diff * diff / ((k - 1) * se * se)
        half_width = math.sqrt((k - 1) * f_quantile(1.0 - alpha, k - 1, df_error)) * se
        low, high = diff - half_width, diff + half_width
    p = [f_sf(f, k - 1, df_error) for f in f_stat.tolist()]
    return [
        ScheffeComparison(factor, levels[a], levels[b], *row)
        for a, b, *row in zip(i.tolist(), j.tolist(), diff.tolist(), se.tolist(), p,
                              low.tolist(), high.tolist())
    ]


def homogeneous_subsets(
    comparisons: Sequence[ScheffeComparison],
    margin: CellTable,
    alpha: float = 0.05,
) -> HomogeneousSubsets:
    """Maximal consecutive runs of mean-sorted levels with all pairwise p > alpha,
    with the levels and means of the one-factor cell table ``margin``.

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

    means = dict(zip(_factor(margin)[1], margin.means.tolist()))
    levels = sorted(means, key=means.__getitem__)

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
