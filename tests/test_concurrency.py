"""Everything here is pure and immutable; concurrent use needs no locks."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from losanova import (
    FactorLayout,
    PowerSpec,
    PowerResult,
    noncentral_f_cdf,
    power_of_test,
    type3_anova,
)
from losanova.power import parse_effect

from conftest import random_dataset


def test_concurrent_power_evaluations_agree():
    layout = FactorLayout(
        [("season", tuple("abcd")), ("gender", ("m", "f")), ("age", tuple("12345"))]
    )
    effect = parse_effect(layout, "season")
    specs = [PowerSpec(layout, effect, 1.0, 9.41, 0.01, n) for n in range(2, 34)]
    serial = [power_of_test(s) for s in specs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(power_of_test, specs))
    assert serial == parallel
    assert all(isinstance(r, PowerResult) for r in parallel)


def test_concurrent_anova_on_shared_dataset(cohort_layout):
    d = random_dataset(cohort_layout, 300, seed=77, min_per_cell=2)
    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(type3_anova, [d.cells] * 4))
    reference = tables[0]
    for table in tables[1:]:
        for r1, r2 in zip(reference.rows, table.rows):
            assert r1.source == r2.source and r1.ss == r2.ss


def test_concurrent_distribution_calls():
    args = [(x / 7.0, 3.0, 120.0, lam) for x in range(1, 50) for lam in (0.0, 4.5, 30.0)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda a: noncentral_f_cdf(*a), args))
    serial = [noncentral_f_cdf(*a) for a in args]
    assert parallel == serial
