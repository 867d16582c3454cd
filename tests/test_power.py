"""Power engine: effect sizes, OC rows, replication search.

The scipy.stats noncentral-F implementation serves as an independent oracle
for the computed beta values; the published chart-read values get their
looser bands in the acceptance suite.
"""

import math

import numpy as np
import pytest
from scipy import stats

from losanova import (
    FactorLayout,
    PowerSpec,
    ReplicationSearchError,
    ValidationError,
    f_quantile,
    min_replications,
    oc_table,
    plan_all_effects,
    power_of_test,
)
from losanova.linmod import Term, full_factorial_terms
from losanova.power import effect_label, parse_effect


@pytest.fixture
def planning_layout():
    return FactorLayout(
        [
            ("season", ("spring", "summer", "autumn", "winter")),
            ("gender", ("male", "female")),
            ("age_group", ("1", "2", "3", "4", "5")),
        ]
    )


def season_spec(planning_layout, n, alpha=0.01):
    effect = parse_effect(planning_layout, "season")
    return PowerSpec(planning_layout, effect, min_diff=1.0, sigma2=9.41, alpha=alpha, n=n)


def test_phi_squared_reference_rows(planning_layout):
    # phi^2 = n*g*a*D^2 / (2*s*sigma^2) = 0.1328 n for the season main effect
    phi2_10 = power_of_test(season_spec(planning_layout, 10)).phi2
    assert phi2_10 == pytest.approx(1.328, abs=5e-4)
    assert math.sqrt(phi2_10) == pytest.approx(1.1523, abs=5e-4)
    phi2_43 = power_of_test(season_spec(planning_layout, 43)).phi2
    assert math.sqrt(phi2_43) == pytest.approx(2.3896, abs=5e-4)
    assert phi2_10 / 10 == pytest.approx(0.1328, abs=5e-5)


def test_phi_squared_zero_difference(planning_layout):
    effect = parse_effect(planning_layout, "season")
    spec = PowerSpec(planning_layout, effect, min_diff=0.0, sigma2=9.41, alpha=0.01, n=10)
    assert power_of_test(spec).phi2 == 0.0


def test_effect_dfs(planning_layout):
    def dfs(effect, n):
        res = power_of_test(PowerSpec(planning_layout, parse_effect(planning_layout, effect),
                                      min_diff=1.0, sigma2=9.41, alpha=0.01, n=n))
        return res.nu1, res.nu2

    assert dfs("season", 10) == (3, 360)
    assert dfs("season", 43) == (3, 1680)
    assert dfs("gender*season*age_group", 10)[0] == 12
    assert dfs("gender*age_group", 5)[0] == 4


@pytest.mark.parametrize("index", [7, 3, -1])
def test_power_spec_rejects_a_factor_index_out_of_range(planning_layout, index):
    # PowerSpec checks the effect's factor indices, so power_of_test never
    # reads a level count outside the layout (index -1 would read the last;
    # 3, the factor count, is the first index past the end)
    effect = Term((index,))
    message = rf"^factor index {index} out of range$"
    with pytest.raises(ValidationError, match=message):
        min_replications(planning_layout, effect, 1.0, 9.41, 0.05, 0.95)
    with pytest.raises(ValidationError, match=message):
        PowerSpec(planning_layout, effect, min_diff=1.0, sigma2=9.41, alpha=0.05, n=10)


def test_power_against_scipy_oracle(planning_layout):
    for n in (10, 20, 30, 40, 43):
        res = power_of_test(season_spec(planning_layout, n))
        crit = stats.f.ppf(0.99, res.nu1, res.nu2)
        beta_ref = stats.ncf.cdf(crit, res.nu1, res.nu2, res.lam)
        assert res.beta == pytest.approx(beta_ref, abs=1e-9)


def test_power_reference_rows(planning_layout):
    res10 = power_of_test(season_spec(planning_layout, 10))
    assert res10.beta == pytest.approx(0.80, abs=0.06)  # chart-read value
    res43 = power_of_test(season_spec(planning_layout, 43))
    assert res43.power == pytest.approx(0.96, abs=0.03)


def test_power_result_invariants(planning_layout):
    res = power_of_test(season_spec(planning_layout, 10))
    assert res.phi == pytest.approx(math.sqrt(res.phi2), rel=1e-15)
    assert res.power == pytest.approx(1.0 - res.beta, rel=1e-15)
    assert res.lam == pytest.approx((res.nu1 + 1) * res.phi2, rel=1e-15)


def test_null_power_equals_alpha(planning_layout):
    effect = parse_effect(planning_layout, "season")
    for alpha in (0.01, 0.05, 0.2):
        spec = PowerSpec(planning_layout, effect, min_diff=0.0, sigma2=9.41,
                         alpha=alpha, n=10)
        assert power_of_test(spec).power == pytest.approx(alpha, abs=1e-9)


def test_min_replications_crossing(planning_layout):
    effect = parse_effect(planning_layout, "season")
    res = min_replications(planning_layout, effect, 1.0, 9.41, 0.01, 0.95)
    assert res.n <= 43
    assert res.power >= 0.95
    below = power_of_test(season_spec(planning_layout, res.n - 1))
    assert below.power < 0.95


def test_min_replications_trivial_target(planning_layout):
    effect = parse_effect(planning_layout, "season")
    res = min_replications(planning_layout, effect, 1.0, 9.41, 0.01, target_power=0.01)
    assert res.n == 2


def test_min_replications_unreachable(planning_layout):
    effect = parse_effect(planning_layout, "season")
    with pytest.raises(ReplicationSearchError) as exc_info:
        min_replications(planning_layout, effect, 0.001, 9.41, 0.01, 0.95)
    best = exc_info.value.best
    assert exc_info.value.n_max == 100_000
    assert best.n == 100_000 and best.power < 0.95


def test_min_replications_unreachable_at_zero_difference(planning_layout):
    # no noncentrality per replication: the chi^2 start is infinite, so the
    # search starts at n = 2 and steps up to _N_MAX
    effect = parse_effect(planning_layout, "season")
    with pytest.raises(ReplicationSearchError) as exc_info:
        min_replications(planning_layout, effect, 0.0, 9.41, 0.01, 0.95)
    best = exc_info.value.best
    assert best.n == 100_000 and best.power == pytest.approx(0.01, abs=1e-9)


def _scanned(layout, effect, min_diff, sigma2, alpha, target):
    """The smallest n with power >= target, scanned from n = 2."""
    for n in range(2, 5_000):
        res = power_of_test(PowerSpec(layout, effect, min_diff, sigma2, alpha, n))
        if res.power >= target:
            return res
    raise AssertionError("no n up to 5,000 reaches the target")


def test_min_replications_equals_a_linear_scan(monkeypatch):
    # 40 seeded searches over a 2-level, a 4-factor and two other layouts;
    # lam per replication is drawn log-uniform, so the answers run from
    # n = 2 to about 1,000. Each runs again with a chi^2 inversion that
    # overstates lam_chi2 by half the floor's margin, which must not move it.
    from scipy import special

    from losanova import power

    layouts = [FactorLayout([(f"f{i}", tuple(f"l{j}" for j in range(k)))
                             for i, k in enumerate(shape)])
               for shape in ((2,), (2, 2, 2, 2), (4, 2, 5), (3, 5))]
    rng = np.random.default_rng(20261020)
    cases = []
    for _ in range(40):
        layout = layouts[rng.integers(len(layouts))]
        effects = full_factorial_terms(layout)
        effect = effects[rng.integers(len(effects))]
        m = layout.n_cells // math.prod(layout.shape[i] for i in effect.factor_indices)
        sigma2 = float(rng.uniform(0.5, 10.0))
        lam1 = math.exp(rng.uniform(math.log(0.01), math.log(20.0)))
        min_diff = math.sqrt(2.0 * sigma2 * lam1 / m)
        alpha = float(rng.choice([0.001, 0.01, 0.05, 0.1]))
        target = float(rng.uniform(0.5, 0.999))
        args = (layout, effect, min_diff, sigma2, alpha, target)
        cases.append((args, _scanned(*args)))
    assert min(r.n for _, r in cases) == 2 and max(r.n for _, r in cases) >= 800
    chndtrinc = special.chndtrinc
    for scale in (1.0, 1.0 + power._FLOOR_MARGIN / 2):
        monkeypatch.setattr(power.special, "chndtrinc",
                            lambda x, df, p, scale=scale: scale * chndtrinc(x, df, p))
        for args, scanned in cases:
            assert min_replications(*args) == scanned, (scale, args)


def test_min_replications_from_any_start(planning_layout, monkeypatch):
    # the stepping and the bisection bracket the crossing from any start at
    # or below it, up to _N_MAX; _chi2_start certifies every n below its
    # start short, so a start above the crossing cannot occur
    from losanova import power

    cases = [(effect, alpha, target) for effect in full_factorial_terms(planning_layout)[::3]
             for alpha, target in ((0.01, 0.95), (0.05, 0.5))]
    expected = [min_replications(planning_layout, e, 1.0, 9.41, a, t) for e, a, t in cases]
    for (effect, alpha, target), want in zip(cases, expected):
        for start in (2, 3, want.n - 1, want.n):
            monkeypatch.setattr(power, "_chi2_start",
                                lambda spec, target, s=max(start, 2): s)
            got = min_replications(planning_layout, effect, 1.0, 9.41, alpha, target)
            assert got == want, (effect, alpha, target, start)
    monkeypatch.setattr(power, "_chi2_start", lambda spec, target: 50_000)
    with pytest.raises(ReplicationSearchError) as exc_info:
        min_replications(planning_layout, cases[0][0], 0.001, 9.41, 0.01, 0.95)
    assert exc_info.value.best.n == 100_000


def test_planning_grid_evaluates_power_63_times(planning_layout, monkeypatch):
    # the benchmark's planning grid: 49 of the 56 searches evaluate power
    # once, at the chi^2 start, and 7 twice; the search reaches power_of_test
    # through the module's name, the one the benchmark counts
    from losanova import power

    calls = []
    evaluate = power.power_of_test
    monkeypatch.setattr(power, "power_of_test", lambda spec: calls.append(spec.n) or evaluate(spec))
    for (alpha, target), expected in PLANNING_GRID.items():
        plan = plan_all_effects(planning_layout, 1.0, 9.41, alpha, target)
        assert tuple(p.result.n for p in plan.effects) == expected
    assert len(calls) == 63


def test_chi2_floor_falls_short():
    # the F test has less power than the chi^2 test at equal lam (Ghosh 1973),
    # so the n below _chi2_start's start, whose lam is below lam_chi2, misses
    # the target; the grid is seeded and spans alpha down to 1e-12 and
    # answers to _N_MAX
    from losanova import power

    rng = np.random.default_rng(20261021)
    floors = []
    for shape in ((2,), (2, 2), (4, 2, 5), (3, 4), (2, 2, 2, 2)):
        layout = FactorLayout([(f"f{i}", tuple(f"l{j}" for j in range(k)))
                               for i, k in enumerate(shape)])
        for effect in full_factorial_terms(layout):
            m = layout.n_cells // math.prod(layout.shape[i] for i in effect.factor_indices)
            for _ in range(12):
                alpha = math.exp(rng.uniform(math.log(1e-12), math.log(0.2)))
                target = float(rng.uniform(0.3, 0.9999))
                lam1 = math.exp(rng.uniform(math.log(1e-4), math.log(30.0)))
                sigma2 = float(rng.uniform(0.5, 10.0))
                min_diff = math.sqrt(2.0 * sigma2 * lam1 / m)
                spec = PowerSpec(layout, effect, min_diff, sigma2, alpha, 2)
                start = power._chi2_start(spec, target)
                assert 2 <= start <= power._N_MAX
                if (floor := start - 1) >= 2:
                    below = power_of_test(PowerSpec(layout, effect, min_diff, sigma2, alpha, floor))
                    assert below.power < target, (shape, effect, alpha, target, lam1)
                    floors.append(floor)
    assert len(floors) >= 200 and max(floors) == power._N_MAX - 1


def test_plan_all_effects_structure(planning_layout):
    plan = plan_all_effects(planning_layout, 1.0, 9.41, 0.01, 0.95)
    assert len(plan.effects) == 7  # 3 mains + 3 two-way + 1 three-way
    labels = [p.label for p in plan.effects]
    assert "season" in labels and "season * gender * age_group" in labels
    assert plan.max_n == max(p.result.n for p in plan.effects)
    # each per-effect n is the true crossing: re-evaluate power on both sides
    for p in plan.effects:
        assert p.result.power >= 0.95
        if p.result.n > 2:
            below = power_of_test(
                PowerSpec(planning_layout, p.effect, 1.0, 9.41, 0.01, p.result.n - 1)
            )
            assert below.power < 0.95


# minimum n per effect (season, gender, age_group, season * gender,
# season * age_group, gender * age_group, season * gender * age_group) at
# D = 1 and sigma^2 = 9.41, as the Poisson-window sum over every term gave them
PLANNING_GRID = {
    (0.01, 0.80): (30, 12, 40, 59, 223, 79, 444),
    (0.01, 0.90): (37, 15, 49, 73, 270, 98, 539),
    (0.01, 0.95): (43, 17, 58, 86, 312, 115, 622),
    (0.01, 0.99): (57, 23, 75, 113, 397, 150, 793),
    (0.05, 0.80): (21, 8, 29, 42, 164, 57, 327),
    (0.05, 0.90): (27, 10, 37, 54, 206, 73, 412),
    (0.05, 0.95): (33, 13, 44, 65, 244, 88, 487),
    (0.05, 0.99): (45, 18, 60, 89, 322, 119, 644),
}


def test_planning_grid_pinned(planning_layout):
    for (alpha, target), expected in PLANNING_GRID.items():
        plan = plan_all_effects(planning_layout, 1.0, 9.41, alpha, target)
        assert tuple(p.result.n for p in plan.effects) == expected, (alpha, target)


def test_all_effects_tiny_layout_saturates():
    layout = FactorLayout([("a", ("x", "y")), ("b", ("u", "v")), ("c", ("p", "q"))])
    plan = plan_all_effects(layout, min_diff=50.0, sigma2=1.0, alpha=0.05, target_power=0.9)
    assert all(p.result.n == 2 for p in plan.effects)


def test_oc_table_matches_power_of_test(planning_layout):
    effect = parse_effect(planning_layout, "season")
    rows = oc_table(planning_layout, effect, 1.0, 9.41, 0.01, [10])
    single = power_of_test(season_spec(planning_layout, 10))
    assert rows[0] == single


def test_oc_table_reference_phis(planning_layout):
    effect = parse_effect(planning_layout, "season")
    rows = oc_table(planning_layout, effect, 1.0, 9.41, 0.01, [10, 20, 30, 40, 43])
    published = [1.1523, 1.6297, 1.9959, 2.3047, 2.3896]
    for row, phi in zip(rows, published):
        assert row.phi == pytest.approx(phi, abs=5e-4)
    assert [row.nu2 for row in rows] == [360, 760, 1160, 1560, 1680]


def _probed_beta(x, nu1, nu2, lam):
    """``noncentral_f_cdf`` for a finite x > 0 and 0 < lam <= ``_MAX_LAM`` as
    the probes alone decide it, without the check of the window's first term."""
    from scipy import special

    from losanova import distributions as dist

    a, b, half = nu1 / 2.0, nu2 / 2.0, lam / 2.0
    y = 1.0 / (1.0 + nu2 / nu1 / x)
    lo, hi = dist._window(half)
    j = np.arange(lo, hi + 1, dtype=float)
    step = math.isqrt(j.size)
    probes = special.betainc(a + j[::step], b, y)
    (ones,) = (probes >= dist._ONE).nonzero()
    (zeros,) = (probes <= dist._ZERO).nonzero()
    start = int(ones[-1]) * step + 1 if ones.size else 0
    stop = int(zeros[0]) * step if zeros.size else j.size
    total = special.pdtr(j[start - 1], half) if start else 0.0
    if start < stop:
        live = j[start:stop]
        total += dist._poisson(live, half) @ special.betainc(a + live, b, y)
    return min(float(total), 1.0)


def test_oc_sweep_betas_equal_the_probed_series(planning_layout):
    # every effect at both alphas, every fifth n of the OC sweep n = 2, 15, ..., 3999
    from losanova.power import all_effects

    saturated = 0
    for alpha in (0.01, 0.05):
        for effect in all_effects(planning_layout):
            for row in oc_table(planning_layout, effect, 1.0, 9.41, alpha,
                                range(2, 4001, 65)):
                crit = f_quantile(1.0 - alpha, row.nu1, row.nu2)
                probed = _probed_beta(crit, row.nu1, row.nu2, row.lam)
                assert repr(row.beta) == repr(probed), (alpha, effect, row.n)
                saturated += probed == 0.0
    assert 0 < saturated < 2 * 7 * 62  # both ways out of the series are taken


def test_power_monotonicity_properties():
    layout = FactorLayout([("f1", ("a", "b", "c")), ("f2", ("u", "v"))])
    effect = Term((0,))
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = float(rng.uniform(0.2, 2.0))
        s2 = float(rng.uniform(0.5, 6.0))
        alpha = float(rng.uniform(0.005, 0.2))
        n = int(rng.integers(2, 40))

        def power(d=d, s2=s2, alpha=alpha, n=n):
            return power_of_test(PowerSpec(layout, effect, d, s2, alpha, n)).power

        assert power(n=n + 5) > power() - 1e-12
        assert power(d=d * 1.5) > power() - 1e-12
        assert power(s2=s2 * 2.0) < power() + 1e-12
        assert power(alpha=min(alpha * 1.5, 0.5)) > power() - 1e-12


def test_effect_parsing(planning_layout):
    e = parse_effect(planning_layout, "gender * season")
    assert e.factor_indices == (0, 1)
    assert effect_label(planning_layout, e) == "season * gender"
    with pytest.raises(ValidationError):
        parse_effect(planning_layout, "weekday")
    with pytest.raises(ValidationError):
        Term((1, 1))


def test_spec_validation(planning_layout):
    effect = parse_effect(planning_layout, "season")
    with pytest.raises(ValidationError):
        PowerSpec(planning_layout, effect, 1.0, -2.0, 0.01, 10)
    with pytest.raises(ValidationError):
        PowerSpec(planning_layout, effect, 1.0, 9.41, 1.5, 10)
    with pytest.raises(ValidationError):
        PowerSpec(planning_layout, effect, 1.0, 9.41, 0.01, 1)
    for n in (2.5, 10.0, "10", None):
        with pytest.raises(ValidationError):
            PowerSpec(planning_layout, effect, 1.0, 9.41, 0.01, n)
    with pytest.raises(ValidationError):
        oc_table(planning_layout, effect, 1.0, 9.41, 0.01, [10.0])
    numpy_n = PowerSpec(planning_layout, effect, 1.0, 9.41, 0.01, np.int64(10))
    assert repr(power_of_test(numpy_n)) == repr(power_of_test(season_spec(planning_layout, 10)))
