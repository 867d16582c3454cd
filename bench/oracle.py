"""Independent checks of losanova's outputs, computed with numpy and scipy.

Nothing here imports losanova. The report oracle reads the cohort CSV
itself and recomputes every checked quantity from the 40-cell table:
Type III sums of squares by weighted least squares of the cell means under
sum-to-zero coding (the cell-means form of Searle, *Linear Models for
Unbalanced Data*, 1987), p-values with ``scipy.special.fdtrc``. The planning
oracle recomputes power with ``scipy.special.ncfdtr`` at the
``scipy.special.fdtri`` critical value.

Every check returns a list of problems; an empty list means the output
agrees.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

# the ingestion schema, in the order its documentation gives the levels
FACTORS = (
    ("gender", ("male", "female")),
    ("season", ("spring", "summer", "autumn", "winter")),
    ("age_group", ("1", "2", "3", "4", "5")),
)
SHAPE = tuple(len(levels) for _, levels in FACTORS)
N_CELLS = math.prod(SHAPE)

# sd-mean slope, snapped to the nearest of these, picks the transform
_TRANSFORMS = {
    0.0: ("none", lambda y: y),
    0.5: ("square_root", np.sqrt),
    1.0: ("logarithmic", np.log10),
    1.5: ("reciprocal_square_root", lambda y: 1.0 / np.sqrt(y)),
    2.0: ("reciprocal", lambda y: 1.0 / y),
}

# Type III SS are differences of two error sums of squares, so their
# rounding error scales with the error SS as well as with their own size.
SS_RTOL = 1e-9
SS_ERROR_RTOL = 1e-12
P_RTOL = 1e-6
BETA_ATOL = 1e-9
# effects the paper finds significant at alpha = 0.01
PAPER_EFFECTS = ("gender", "season", "age_group", "gender * age_group")


@dataclass
class Cohort:
    """Cell codes and raw responses read straight from a cohort CSV."""

    codes: np.ndarray  # flat cell index, C order over FACTORS
    los: np.ndarray


def read_cohort(path: str | Path) -> Cohort:
    lookup = [{level: i for i, level in enumerate(levels)} for _, levels in FACTORS]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(name) for name, _ in FACTORS]
        y_col = header.index("los")
        idx, los = [], []
        for row in reader:
            idx.append([lk[row[c]] for lk, c in zip(lookup, cols)])
            los.append(float(row[y_col]))
    codes = np.ravel_multi_index(np.array(idx).T, SHAPE)
    return Cohort(codes=codes, los=np.array(los))


def _cell_moments(codes: np.ndarray, y: np.ndarray):
    n = np.bincount(codes, minlength=N_CELLS).astype(float)
    mean = np.bincount(codes, weights=y, minlength=N_CELLS) / n
    within = np.bincount(codes, weights=(y - mean[codes]) ** 2, minlength=N_CELLS)
    return n, mean, within


def _sum_to_zero_design() -> tuple[np.ndarray, dict[str, list[int]]]:
    """(40, 40) saturated sum-to-zero design over the cells, and each
    term's columns. The last level of each factor codes as all minus ones."""
    bases = [np.vstack([np.eye(k - 1), np.full(k - 1, -1.0)]) for k in SHAPE]
    cells = list(itertools.product(*(range(k) for k in SHAPE)))
    blocks = [np.ones((N_CELLS, 1))]
    columns = {"Intercept": [0]}
    width = 1
    for order in range(1, len(FACTORS) + 1):
        for combo in itertools.combinations(range(len(FACTORS)), order):
            block = np.ones((N_CELLS, 1))
            for f in combo:
                rows = bases[f][[c[f] for c in cells]]
                block = np.einsum("ij,ik->ijk", block, rows).reshape(N_CELLS, -1)
            label = " * ".join(FACTORS[f][0] for f in combo)
            columns[label] = list(range(width, width + block.shape[1]))
            width += block.shape[1]
            blocks.append(block)
    return np.hstack(blocks), columns


@dataclass
class ReportTruth:
    """What a correct report of one cohort contains, computed apart."""

    n: int
    counts: np.ndarray
    slope: float
    snapped: float
    transform: str
    anova: dict[str, tuple[float, int]]  # source -> (ss, df)
    sse: float
    df_error: int
    reference_cell_mean: float
    marginal: dict[str, list[tuple[str, int, float]]]  # factor -> (level, n, mean)


def report_truth(cohort: Cohort) -> ReportTruth:
    codes, los = cohort.codes, cohort.los
    n_raw, mean_raw, within_raw = _cell_moments(codes, los)
    sd_raw = np.sqrt(within_raw / (n_raw - 1))
    slope = float(np.polyfit(np.log10(mean_raw), np.log10(sd_raw), 1)[0])
    snapped = min(_TRANSFORMS, key=lambda g: abs(slope - g))
    transform, fn = _TRANSFORMS[snapped]
    y = fn(los)

    n, mean, within = _cell_moments(codes, y)
    sse = float(within.sum())
    X, columns = _sum_to_zero_design()
    w = np.sqrt(n)
    anova = {}
    for source, cols in columns.items():
        keep = [c for c in range(X.shape[1]) if c not in cols]
        Xw = X[:, keep] * w[:, None]
        beta, *_ = np.linalg.lstsq(Xw, mean * w, rcond=None)
        resid = mean * w - Xw @ beta
        anova[source] = (float(resid @ resid), len(cols))
    total = len(y)
    corrected_total = float(((y - y.mean()) ** 2).sum())
    anova["Corrected Model"] = (corrected_total - sse, N_CELLS - 1)
    anova["Error"] = (sse, total - N_CELLS)
    anova["Total"] = (float(y @ y), total)
    anova["Corrected Total"] = (corrected_total, total - 1)

    marginal = {}
    index = np.array(np.unravel_index(codes, SHAPE))
    for f, (name, levels) in enumerate(FACTORS):
        rows = []
        for li, level in enumerate(levels):
            mask = index[f] == li
            rows.append((level, int(mask.sum()), float(y[mask].mean())))
        marginal[name] = rows

    reference = np.ravel_multi_index(tuple(k - 1 for k in SHAPE), SHAPE)
    return ReportTruth(
        n=total,
        counts=n.astype(np.int64),
        slope=slope,
        snapped=snapped,
        transform=transform,
        anova=anova,
        sse=sse,
        df_error=total - N_CELLS,
        reference_cell_mean=float(mean[reference]),
        marginal=marginal,
    )


def load_report(outdir: str | Path) -> dict:
    """The report's JSON tables and subset CSVs, keyed by table name."""
    tables = Path(outdir) / "tables"
    art = {p.stem: json.loads(p.read_text()) for p in tables.glob("*.json")}
    for p in tables.glob("subsets_*.csv"):
        with open(p, newline="") as fh:
            art[p.stem + ".csv"] = list(csv.reader(fh))
    return art


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def check_report(art: dict, truth: ReportTruth, alpha: float,
                 paper_effects: bool = False) -> list[str]:
    """Compare one report's artifacts with the independently computed truth."""
    bad = []
    freq = art["frequency"]
    if freq["total"] != truth.n:
        bad.append(f"frequency total {freq['total']} != N {truth.n}")
    for cell in freq["cells"]:
        flat = np.ravel_multi_index(
            tuple(levels.index(v) for (_, levels), v in zip(FACTORS, cell["cell"])), SHAPE
        )
        if cell["count"] != truth.counts[flat]:
            bad.append(f"frequency {cell['cell']}: {cell['count']} != {truth.counts[flat]}")

    tr = art["transform"]
    if tr["snapped_exponent"] != truth.snapped or tr["transform"] != truth.transform:
        bad.append(f"transform {tr['transform']} != {truth.transform}")
    if not _close(tr["slope"], truth.slope, 1e-9):
        bad.append(f"sd-mean slope {tr['slope']!r} != {truth.slope!r}")

    rows = {r["source"]: r for r in art["anova"]["rows"]}
    if set(rows) != set(truth.anova):
        bad.append(f"anova sources {sorted(rows)} != {sorted(truth.anova)}")
        return bad
    mse = truth.sse / truth.df_error
    for source, (ss, df) in truth.anova.items():
        r = rows[source]
        if r["df"] != df:
            bad.append(f"anova {source}: df {r['df']} != {df}")
        if not _close(r["ss"], ss, SS_RTOL, SS_ERROR_RTOL * truth.sse):
            bad.append(f"anova {source}: SS {r['ss']!r} != {ss!r}")
        if r["p"] is None:
            continue
        f = ss / df / mse
        p = float(special.fdtrc(df, truth.df_error, f))
        if not _close(r["f"], f, 1e-6, 1e-9) or not _close(r["p"], p, P_RTOL, 1e-300):
            bad.append(f"anova {source}: F {r['f']!r}, p {r['p']!r} != {f!r}, {p!r}")
    if paper_effects:
        for source in PAPER_EFFECTS:
            if not rows[source]["p"] < 0.01:
                bad.append(f"anova {source}: p {rows[source]['p']!r} not < 0.01")

    coef = {r["parameter"]: r for r in art["coefficients"]["rows"]}
    if not _close(coef["Intercept"]["estimate"], truth.reference_cell_mean, 1e-9, 1e-12):
        bad.append(
            f"reference-coded intercept {coef['Intercept']['estimate']!r} != "
            f"reference cell mean {truth.reference_cell_mean!r}"
        )

    for factor, levels in truth.marginal.items():
        if f"scheffe_{factor}" not in art:
            if len(levels) >= 3:
                bad.append(f"no Scheffe table for {factor}")
            continue
        bad.extend(_check_scheffe(art, factor, levels, mse, truth.df_error, alpha))
    return bad


def _check_scheffe(art, factor, levels, mse, df_error, alpha) -> list[str]:
    bad = []
    by_level = {lv: (n, m) for lv, n, m in levels}
    k = len(levels)
    crit = math.sqrt((k - 1) * special.fdtri(k - 1, df_error, 1.0 - alpha))
    table = art[f"subsets_{factor}.csv"]
    counts = {row[0]: int(row[1]) for row in table[1:] if row[0] != "sig."}
    if counts != {lv: n for lv, (n, _) in by_level.items()}:
        bad.append(f"{factor} marginal counts {counts} != {by_level}")
    for s in art[f"subsets_{factor}"]["subsets"]:
        for lv, m in zip(s["levels"], s["means"]):
            if not _close(m, by_level[lv][1], 1e-9, 1e-12):
                bad.append(f"{factor} marginal mean {lv}: {m!r} != {by_level[lv][1]!r}")
    pairs = art[f"scheffe_{factor}"]
    if len(pairs) != k * (k - 1):
        bad.append(f"{factor}: {len(pairs)} Scheffe comparisons, expected {k * (k - 1)}")
    for c in pairs:
        (ni, mi), (nj, mj) = by_level[c["i"]], by_level[c["j"]]
        diff = mi - mj
        se = math.sqrt(mse * (1.0 / ni + 1.0 / nj))
        p = float(special.fdtrc(k - 1, df_error, diff * diff / ((k - 1) * se * se)))
        name = f"{factor} {c['i']}-{c['j']}"
        if not _close(c["diff"], diff, 1e-9, 1e-12) or not _close(c["se"], se, 1e-9):
            bad.append(f"Scheffe {name}: diff/se {c['diff']!r}/{c['se']!r} != {diff!r}/{se!r}")
        if not _close(c["p"], p, P_RTOL, 1e-300):
            bad.append(f"Scheffe {name}: p {c['p']!r} != {p!r}")
        if not _close(c["ci_high"] - c["ci_low"], 2 * crit * se, 1e-6):
            bad.append(f"Scheffe {name}: CI width {c['ci_high'] - c['ci_low']!r}")
        if (c["ci_low"] > 0 or c["ci_high"] < 0) != (c["p"] < alpha):
            bad.append(f"Scheffe {name}: CI excludes zero disagrees with p < {alpha}")
    return bad


def same_bytes(dir_a: str | Path, dir_b: str | Path) -> list[str]:
    """Files that differ, or exist on one side only, between two report dirs."""
    a, b = Path(dir_a), Path(dir_b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = [f"{f} only in one report" for f in sorted(files_a ^ files_b)]
    for f in sorted(files_a & files_b):
        if (a / f).read_bytes() != (b / f).read_bytes():
            bad.append(f"{f} differs between two reports of the same input")
    return bad


# ---------------------------------------------------------------------------
# planning


def beta_bounds(nu1: int, nu2: int, lam: float, alpha: float) -> tuple[float, float]:
    """Bounds on the type II error: ``ncfdtr`` at the ``fdtri`` critical value.

    ``ncfdtr`` returns NaN once lambda is large (about 1,400 and up on the
    planning sweep). The type II error falls as lambda grows, so there the
    bounds are 0 and its value at the largest lambda / 2**k that scipy can
    evaluate.
    """
    crit = special.fdtri(nu1, nu2, 1.0 - alpha)
    beta = float(special.ncfdtr(nu1, nu2, lam, crit))
    if not math.isnan(beta):
        return beta, beta
    while math.isnan(beta):
        lam /= 2.0
        beta = float(special.ncfdtr(nu1, nu2, lam, crit))
    return 0.0, beta


def planning_terms(levels: tuple[int, ...], effect: tuple[int, ...], n: int,
                   min_diff: float, sigma2: float) -> tuple[int, int, float]:
    """(nu1, nu2, lambda) of an effect's F test with n replications per cell.

    lambda = n * m * D^2 / (2 sigma^2), m the product of the level counts of
    the factors the effect does not involve.
    """
    nu1 = math.prod(levels[i] - 1 for i in effect)
    nu2 = math.prod(levels) * (n - 1)
    m = math.prod(k for i, k in enumerate(levels) if i not in effect)
    return nu1, nu2, n * m * min_diff**2 / (2.0 * sigma2)


def check_power(result, levels, effect, min_diff, sigma2, alpha) -> list[str]:
    """One engine ``PowerResult`` (read by attribute) against scipy."""
    nu1, nu2, lam = planning_terms(levels, effect, result.n, min_diff, sigma2)
    bad = []
    if (result.nu1, result.nu2) != (nu1, nu2) or not _close(result.lam, lam, 1e-12):
        bad.append(f"df/lambda ({result.nu1}, {result.nu2}, {result.lam!r}) != "
                   f"({nu1}, {nu2}, {lam!r})")
    lo, hi = beta_bounds(nu1, nu2, lam, alpha)
    if not lo - BETA_ATOL <= result.beta <= hi + BETA_ATOL:
        bad.append(f"beta {result.beta!r} outside scipy's [{lo!r}, {hi!r}]")
    return bad


def check_min_replications(n: int, levels, effect, min_diff, sigma2, alpha,
                           target: float) -> list[str]:
    """n reaches the target power by scipy, and n - 1 does not."""
    bad = []
    _, hi = beta_bounds(*planning_terms(levels, effect, n, min_diff, sigma2), alpha)
    if 1.0 - hi < target:
        bad.append(f"n = {n} misses power {target}")
    if n > 2:
        lo, _ = beta_bounds(*planning_terms(levels, effect, n - 1, min_diff, sigma2), alpha)
        if 1.0 - lo >= target:
            bad.append(f"n - 1 = {n - 1} already reaches power {target}")
    return bad
