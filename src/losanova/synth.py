"""Synthetic length-of-stay cohort generator.

The raw cohort behind the published summary tables is not available, so this
module generates stand-in data with the same structure: cell membership drawn
from the reference cohort's observed frequencies, and log10 length-of-stay
normal around a cell mean built from the published significant coefficients,
with the published error variance. Raw-scale responses are 10**logstay, which
makes cell sd roughly proportional to cell mean -- exactly the structure the
variance-stabilizing diagnostics are meant to detect. The generator
reproduces the published coefficients, not the published ANOVA F values (at
N = 82,718 gender F comes out near 80-90 against the published 215.9, and
season F near 30-40 against 18.7).

Generation is a pure function of the spec (seed included). Uniform variates
come from a seeded 128-bit PCG64 stream; normal variates are produced from
them by inverse CDF, so identical seeds give bit-identical datasets across
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .distributions import normal_quantile
from .errors import ValidationError
from .model import Dataset, FactorLayout

#: Cell counts of the 82,718-patient reference cohort, keyed by
#: (gender, season, age_group). Marginals: male 46510, female 36208;
#: spring 21963, summer 21564, autumn 19374, winter 19817;
#: age groups 6433, 7875, 11064, 27890, 29456.
REFERENCE_CELL_COUNTS: dict[tuple[str, str, str], int] = {
    ("male", "spring", "1"): 964, ("male", "spring", "2"): 1120,
    ("male", "spring", "3"): 1519, ("male", "spring", "4"): 4073,
    ("male", "spring", "5"): 4782,
    ("male", "summer", "1"): 1018, ("male", "summer", "2"): 1369,
    ("male", "summer", "3"): 1748, ("male", "summer", "4"): 4083,
    ("male", "summer", "5"): 3850,
    ("male", "autumn", "1"): 934, ("male", "autumn", "2"): 1235,
    ("male", "autumn", "3"): 1578, ("male", "autumn", "4"): 3710,
    ("male", "autumn", "5"): 3382,
    ("male", "winter", "1"): 776, ("male", "winter", "2"): 1233,
    ("male", "winter", "3"): 1638, ("male", "winter", "4"): 3856,
    ("male", "winter", "5"): 3642,
    ("female", "spring", "1"): 735, ("female", "spring", "2"): 644,
    ("female", "spring", "3"): 993, ("female", "spring", "4"): 3055,
    ("female", "spring", "5"): 4078,
    ("female", "summer", "1"): 718, ("female", "summer", "2"): 868,
    ("female", "summer", "3"): 1284, ("female", "summer", "4"): 3215,
    ("female", "summer", "5"): 3411,
    ("female", "autumn", "1"): 679, ("female", "autumn", "2"): 673,
    ("female", "autumn", "3"): 1135, ("female", "autumn", "4"): 2941,
    ("female", "autumn", "5"): 3107,
    ("female", "winter", "1"): 609, ("female", "winter", "2"): 733,
    ("female", "winter", "3"): 1169, ("female", "winter", "4"): 2957,
    ("female", "winter", "5"): 3204,
}

REFERENCE_TOTAL = 82718

#: Error mean square of the reference analysis on the log10 scale.
REFERENCE_LOG_ERROR_VARIANCE = 0.216


def default_layout() -> FactorLayout:
    """The reference cohort's schema: gender(2) x season(4) x age_group(5)."""
    return FactorLayout(
        [
            ("gender", ("male", "female")),
            ("season", ("spring", "summer", "autumn", "winter")),
            ("age_group", ("1", "2", "3", "4", "5")),
        ]
    )


@dataclass(frozen=True)
class TermCoefficient:
    """A coefficient active when every (factor, level) condition matches.

    An empty condition tuple is the intercept.
    """

    conditions: tuple[tuple[str, str], ...]
    value: float


#: The published significant model on the log10 scale, reference levels
#: winter / female / age group 5. There is no gender main-effect term: the
#: published listing carries gender only through its age-group interactions.
REFERENCE_COEFFICIENTS: tuple[TermCoefficient, ...] = (
    TermCoefficient((), 0.573),
    TermCoefficient((("age_group", "2"),), 0.161),
    TermCoefficient((("age_group", "3"),), 0.091),
    TermCoefficient((("season", "spring"),), -0.037),
    TermCoefficient((("season", "summer"),), -0.032),
    TermCoefficient((("age_group", "2"), ("season", "summer")), -0.056),
    TermCoefficient((("age_group", "3"), ("gender", "male")), 0.133),
    TermCoefficient((("age_group", "4"), ("gender", "male")), 0.053),
)


@dataclass(frozen=True)
class CohortSpec:
    """Everything that determines a synthetic cohort, seed included."""

    layout: FactorLayout
    cell_probabilities: tuple[float, ...]  # in layout cell order
    n: int
    coefficients: tuple[TermCoefficient, ...]
    error_sd: float
    seed: int
    round_days: bool = False

    def __post_init__(self):
        probs = tuple(float(p) for p in self.cell_probabilities)
        if len(probs) != self.layout.n_cells:
            raise ValidationError(
                f"{len(probs)} cell probabilities for {self.layout.n_cells} cells"
            )
        if any(p < 0 for p in probs):
            raise ValidationError("cell probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(f"cell probabilities sum to {sum(probs)!r}, not 1")
        if self.n < self.layout.n_cells:
            raise ValidationError("n must be at least the number of cells")
        if not self.error_sd >= 0:
            raise ValidationError("error_sd must be >= 0")
        object.__setattr__(self, "cell_probabilities", probs)
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


def reference_cohort_spec(n: int = 8000, seed: int = 0, **overrides) -> CohortSpec:
    """Cohort spec seeded from the reference analysis: cell probabilities
    proportional to the reference cell counts, the published significant
    coefficients, and the published log-scale error variance."""
    layout = default_layout()
    probs = tuple(
        REFERENCE_CELL_COUNTS[layout.cell_names(cell)] / REFERENCE_TOTAL
        for cell in layout.cells()
    )
    spec = CohortSpec(
        layout=layout,
        cell_probabilities=probs,
        n=n,
        coefficients=REFERENCE_COEFFICIENTS,
        error_sd=math.sqrt(REFERENCE_LOG_ERROR_VARIANCE),
        seed=seed,
    )
    return replace(spec, **overrides) if overrides else spec


def cell_mean(spec: CohortSpec, cell: Sequence[int]) -> float:
    """Log-scale cell mean: the sum of all matching coefficient terms."""
    names = dict(zip(spec.layout.names, spec.layout.cell_names(cell)))
    total = 0.0
    for term in spec.coefficients:
        if all(names.get(factor) == level for factor, level in term.conditions):
            total += term.value
    return total


def generate(spec: CohortSpec) -> Dataset:
    """Draw the synthetic cohort described by the spec.

    Cell membership uses one uniform per observation against the cumulative
    cell distribution; the log response adds inverse-CDF normal noise from a
    second uniform block. With ``error_sd`` effectively zero the log response
    equals the cell mean exactly.
    """
    layout = spec.layout
    cells = list(layout.cells())
    eta = np.array([cell_mean(spec, cell) for cell in cells])
    cum = np.cumsum(spec.cell_probabilities)
    cum[-1] = 1.0  # guard the last edge against rounding

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u_cell = rng.random(spec.n)
    u_noise = rng.random(spec.n)

    codes = np.searchsorted(cum, u_cell, side="right")
    codes = np.minimum(codes, len(cells) - 1)
    z = normal_quantile(np.clip(u_noise, 2.0**-55, None))
    log_response = eta[codes] + spec.error_sd * z
    los = 10.0**log_response
    if spec.round_days:
        los = np.maximum(np.rint(los), 1.0)
    return Dataset(layout, codes, los, response_name="los")
