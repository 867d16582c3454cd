"""losanova benchmark: the paper's cohort, and small cohorts with power planning.

Usage, from the repository root:

    python3 bench/run.py --workload paper_cohort --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory; nothing needs
installing. Every output is checked against ``oracle.py`` (numpy and scipy,
never losanova). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Files
are written only under ``bench/out/``. See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

PAPER_N = 82_718  # the paper's cohort
SMALL_N = 8_000  # the acceptance-test scale
ALPHA = 0.05  # the report's default significance level

# the planning example: season(4) x gender(2) x age_group(5), D = 1, sigma^2 = 9.41
PLAN_LEVELS = (4, 2, 5)
PLAN_NAMES = ("season", "gender", "age_group")
MIN_DIFF = 1.0
SIGMA2 = 9.41
PLAN_ALPHAS = (0.01, 0.05)
PLAN_TARGETS = (0.80, 0.90, 0.95, 0.99)
OC_NS = tuple(range(2, 4001, 13))

MIN_ROUNDS = 4  # timed rounds per run, however short --seconds is
CHILD_TIMEOUT_S = 60

# workload -> (cohort size, whether the planning batch includes the OC
# sweep, whether every round reports the same paper-sized cohort)
WORKLOADS = {
    "paper_cohort": (PAPER_N, False, True),
    "small_cohorts": (SMALL_N, True, False),
}

# per-layer functions: module -> public functions given a span each
TIMED = {
    "cli": ["cli_main"],
    "ingest": ["ingest_csv", "write_csv"],
    "model": ["build_dataset", "cell_stats", "frequency_table"],
    "diagnostics": ["apply_transform", "sd_mean_regression", "residual_histogram",
                    "residual_vs_fitted", "pp_plot"],
    "linmod": ["build_design", "ols_fit", "significant_model"],
    "anova": ["type3_anova"],
    "posthoc": ["marginal_means", "scheffe_pairwise", "homogeneous_subsets"],
    "report": ["write_report_dir"],
    "plots": ["render_plot"],
    "synth": ["generate"],
    "power": ["oc_table", "plan_all_effects"],
    "distributions": ["noncentral_f_cdf"],
}
# called once per element or per point: counted, since a span each would
# distort the run
COUNTED = {
    "distributions": ["normal_cdf", "normal_quantile", "t_cdf", "t_quantile"],
    "power": ["power_of_test"],
}
# name -> (operation, reading, functions); times and counts are per operation
LAYER_METRICS = {
    "anova.type3_self_s": ("report", "self", ("anova.type3_anova",)),
    "linmod.ols_fit_s": ("report", "total", ("linmod.ols_fit",)),
    "linmod.build_design_s": ("report", "total", ("linmod.build_design",)),
    "linmod.ols_fit_calls": ("report", "calls", ("linmod.ols_fit",)),
    "linmod.qr_rows": ("report", "calls", ("linmod.qr_rows",)),
    "distributions.t_calls": ("report", "calls", ("distributions.t_cdf",
                                                  "distributions.t_quantile")),
    "ingest.ingest_csv_self_s": ("report", "self", ("ingest.ingest_csv",)),
    "model.build_dataset_s": ("report", "total", ("model.build_dataset",)),
    "diagnostics.apply_transform_s": ("report", "total", ("diagnostics.apply_transform",)),
    "model.cell_tables_s": ("report", "total", ("model.cell_stats", "model.frequency_table")),
    "diagnostics.residual_series_s": ("report", "total", (
        "diagnostics.residual_histogram", "diagnostics.residual_vs_fitted",
        "diagnostics.pp_plot")),
    "distributions.normal_cdf_calls": ("report", "calls", ("distributions.normal_cdf",)),
    "synth.generate_s": ("synth", "total", ("synth.generate",)),
    "ingest.write_csv_s": ("synth", "total", ("ingest.write_csv",)),
    "distributions.normal_quantile_calls": ("synth", "calls",
                                            ("distributions.normal_quantile",)),
    "posthoc.scheffe_s": ("report", "total", (
        "posthoc.marginal_means", "posthoc.scheffe_pairwise", "posthoc.homogeneous_subsets")),
    "report.write_report_dir_self_s": ("report", "self", ("report.write_report_dir",)),
    "plots.render_plot_s": ("report", "total", ("plots.render_plot",)),
    "cli.report_self_s": ("report", "self", ("cli.cli_main",)),
    "power.oc_table_s": ("plan", "total", ("power.oc_table",)),
    "power.plan_all_effects_s": ("plan", "total", ("power.plan_all_effects",)),
    "power.power_of_test_calls": ("plan", "calls", ("power.power_of_test",)),
    "distributions.noncentral_f_cdf_s": ("plan", "total", ("distributions.noncentral_f_cdf",)),
    "distributions.noncentral_f_cdf_calls": ("plan", "calls",
                                             ("distributions.noncentral_f_cdf",)),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """One benchmark run: operations, their timings, and the oracle verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float, tracing: bool):
        from losanova import cli, power
        from losanova.errors import LosanovaError, NumericalError
        from losanova.model import FactorLayout

        self.workload = workload
        self.seconds = seconds
        self.tracing = tracing
        self.cli, self.power = cli, power
        self.NumericalError, self.LosanovaError = NumericalError, LosanovaError
        self.rng = np.random.default_rng(seed)
        self.seed = int(self.rng.integers(2**31))  # the paper_cohort cohort
        self._first_csv = b""
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

        self.layout = FactorLayout(
            [(name, tuple(str(j + 1) for j in range(k))) for name, k in zip(PLAN_NAMES, PLAN_LEVELS)]
        )
        self.effects = power.all_effects(self.layout)
        self.tracer = Tracer(TIMED, COUNTED)
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs the oracle rejected
        self.errors: dict[str, list[str]] = defaultdict(list)  # failures, grouped
        self.times: dict[str, list[float]] = defaultdict(list)  # kept while timing
        self.timing = False
        self.bytes_written: list[int] = []
        self.truths: dict[Path, oracle.ReportTruth] = {}
        self._traced_now = False

    # -- operations --------------------------------------------------------

    def _call(self, kind: str, fn, *args):
        """Time one operation; returns (ok, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self._traced_now and kind != "plan_op":  # plan ops nest in a plan span
                result = self.tracer.operation(kind, fn, *args)
            else:
                result = fn(*args)
        except self.LosanovaError as exc:
            self.failed += 1
            if not isinstance(exc, self.NumericalError):
                self.wrong.append(f"{kind} {self._describe(args)}: {exc}")
            message = re.sub(r"\d[\d.e+-]*", "#", str(exc).split(" (")[0])
            self.errors[f"{kind}: {type(exc).__name__} {message}"].append(self._describe(args))
            return False, None
        if self.timing and kind != "plan_op":  # a plan batch is timed whole
            traced = "_traced" if self._traced_now else ""
            self.times[kind + traced].append(time.perf_counter() - t0)
        return True, result

    def _describe(self, args) -> str:
        if len(args) == 6:  # oc_table arguments
            _, effect, _, _, alpha, ns = args
            return f"{self.power.effect_label(self.layout, effect)} alpha={alpha} n={ns[0]}"
        if len(args) == 5:  # plan_all_effects arguments
            return f"alpha={args[3]} target={args[4]}"
        return " ".join(map(str, args))

    def _reject(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.wrong.extend(f"{what}: {p}" for p in problems)

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.cli_main(argv)

    def synth(self, n: int, cohort_seed: int, path: Path) -> bool:
        argv = ["synth", "--n", str(n), "--seed", str(cohort_seed), "--out", str(path)]
        ok, rc = self._call("synth", self._cli, argv)
        if ok and rc != 0:
            self._reject(f"synth {argv}", [f"exit code {rc}"])
            return False
        return ok

    def report(self, csv: Path, outdir: Path, paper_effects: bool) -> None:
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["report", "--input", str(csv), "--transform", "auto", "--out", str(outdir)]
        ok, rc = self._call("report", self._cli, argv)
        if not ok:
            return
        if rc != 0:
            self._reject(f"report {csv.name}", [f"exit code {rc}"])
            return
        self.bytes_written.append(sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file()))
        art = oracle.load_report(outdir)
        self._reject(f"report {csv.name}",
                     oracle.check_report(art, self._truth(csv), ALPHA, paper_effects))

    def _truth(self, csv: Path) -> oracle.ReportTruth:
        if csv not in self.truths:
            self.truths[csv] = oracle.report_truth(oracle.read_cohort(csv))
        return self.truths[csv]

    def plan_grid(self) -> None:
        """plan_all_effects over the planning grid; each n checked with scipy."""
        for alpha in PLAN_ALPHAS:
            for target in PLAN_TARGETS:
                args = (self.layout, MIN_DIFF, SIGMA2, alpha, target)
                ok, plan = self._call("plan_op", self.power.plan_all_effects, *args)
                if not ok:
                    continue
                problems = []
                for p in plan.effects:
                    idx = p.effect.factor_indices
                    for prob in oracle.check_power(p.result, PLAN_LEVELS, idx,
                                                   MIN_DIFF, SIGMA2, alpha):
                        problems.append(f"{p.label}: {prob}")
                    for prob in oracle.check_min_replications(
                            p.result.n, PLAN_LEVELS, idx, MIN_DIFF, SIGMA2, alpha, target):
                        problems.append(f"{p.label}: {prob}")
                self._reject(f"plan_all_effects alpha={alpha} target={target}", problems)

    def oc_sweep(self) -> None:
        """One oc_table call per (alpha, effect, n) point of the OC sweep."""
        for alpha in PLAN_ALPHAS:
            for effect in self.effects:
                for n in OC_NS:
                    args = (self.layout, effect, MIN_DIFF, SIGMA2, alpha, [n])
                    ok, rows = self._call("plan_op", self.power.oc_table, *args)
                    if ok:
                        self._reject(
                            f"oc_table {self._describe(args)}",
                            oracle.check_power(rows[0], PLAN_LEVELS, effect.factor_indices,
                                               MIN_DIFF, SIGMA2, alpha))

    def plan_batch(self, sweep: bool) -> None:
        t0 = time.perf_counter()
        if self._traced_now:
            self.tracer.operation("plan", self._plan_body, sweep)
        else:
            self._plan_body(sweep)
        if self.timing:
            self.times["plan"].append(time.perf_counter() - t0)

    def _plan_body(self, sweep: bool) -> None:
        self.plan_grid()
        if sweep:
            self.oc_sweep()

    def oracle_self_test(self, csv: Path, outdir: Path) -> None:
        """The oracles must reject a report with one SS nudged by a millionth
        of the error SS, and a power result with beta nudged by 1e-6."""
        art = oracle.load_report(outdir)
        rows = {r["source"]: r for r in art["anova"]["rows"]}
        rows["season"]["ss"] += 1e-6 * rows["Error"]["ss"]
        if not oracle.check_report(art, self._truth(csv), ALPHA):
            self.wrong.append("oracle self-test: a nudged season SS was accepted")

        result = self.power.power_of_test(self.power.PowerSpec(
            self.layout, self.effects[0], MIN_DIFF, SIGMA2, PLAN_ALPHAS[0], 10))
        nudged = dataclasses.replace(result, beta=result.beta + 1e-6)
        if not oracle.check_power(nudged, PLAN_LEVELS, self.effects[0].factor_indices,
                                  MIN_DIFF, SIGMA2, PLAN_ALPHAS[0]):
            self.wrong.append("oracle self-test: a nudged beta was accepted")

    # -- probes in fresh processes ------------------------------------------

    def measure_setup(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import losanova.cli"], cwd=ROOT,
                              env=_child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
        self.times["setup"].append(time.perf_counter() - t0)
        if proc.returncode != 0:
            self.wrong.append(f"import in a fresh interpreter failed: {proc.stderr[-300:]!r}")

    def measure_rss(self, csv: Path, same_as: Path) -> None:
        """Peak RSS of a fresh process running one report of ``csv``.

        Its report must match, byte for byte, the in-process report of the
        same input path in ``same_as``.
        """
        outdir = self.dir / "rss_report"
        shutil.rmtree(outdir, ignore_errors=True)
        code = ("import resource, sys\n"
                "from losanova.cli import cli_main\n"
                "rc = cli_main(sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                "sys.exit(rc)\n")
        argv = ["report", "--input", str(csv), "--transform", "auto", "--out", str(outdir)]
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self.wrong.append(f"report in a fresh process failed: {proc.stderr[-300:]!r}")
            return
        self.times["rss_mb"].append(int(proc.stdout.split()[-1]) / 1024.0)
        self.wrong.extend(oracle.same_bytes(same_as, outdir))

    # -- workloads -----------------------------------------------------------

    def run(self) -> None:
        # round 0 warms up: one synth and one report, checked but neither
        # timed nor counted, so that every counted round is the same
        self.round(0, tracing=False)
        if self.failed:
            self.wrong.append("an operation of the warm-up round failed")
        self.attempted = self.failed = 0
        self.timing = True
        csv, outdir = self.dir / "cohort_0.csv", self.dir / "report_0"
        self.measure_rss(csv, outdir)
        self.oracle_self_test(csv, outdir)
        start = time.perf_counter()
        r = 1
        while r <= MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            # with tracing, odd rounds are traced and even rounds are not, so
            # the two report times are measured side by side
            self.round(r, tracing=self.tracing and r % 2 == 1)
            r += 1

    def round(self, r: int, tracing: bool) -> None:
        """One round of every operation the workload times.

        Each timed round also starts a fresh interpreter, so that all timings
        are sampled across the whole run rather than in one stretch of it.
        """
        n, sweep, paper = WORKLOADS[self.workload]
        if self.timing:
            self.measure_setup()
        # paper_cohort writes the same cohort to the same path every round and
        # reports it into two directories in turn; the others draw a new cohort
        csv = self.dir / f"cohort_{0 if paper else r}.csv"
        outdir = self.dir / f"report_{r % 2 if paper else r}"
        self._traced_now = tracing
        if tracing:
            self.tracer.install()
        try:
            ok = self.synth(n, self.seed if paper else int(self.rng.integers(2**31)), csv)
            if ok and paper:
                data = csv.read_bytes()
                self._first_csv = self._first_csv or data
                if data != self._first_csv:
                    self.wrong.append(f"synth seed {self.seed}: rounds wrote different bytes")
            if ok:
                self.report(csv, outdir, paper_effects=paper)
            if r > 0:
                self.plan_batch(sweep)
        finally:
            if tracing:
                self.tracer.remove()
            self._traced_now = False
        if paper and r > 0:
            self.wrong.extend(oracle.same_bytes(self.dir / f"report_{1 - r % 2}", outdir))
        elif r > 0:  # round 0 stays for the fresh-process probe
            csv.unlink(missing_ok=True)
            shutil.rmtree(outdir, ignore_errors=True)

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        med = {k: statistics.median(v) for k, v in self.times.items() if v}
        return {
            "setup_s": {"value": med["setup"], "unit": "s"},
            "synth_s": {"value": med["synth"], "unit": "s"},
            "report_s": {"value": med["report"], "unit": "s"},
            "report_peak_rss_mb": {"value": med["rss_mb"], "unit": "MB"},
            "plan_s": {"value": med["plan"], "unit": "s"},
        }

    def per_layer(self) -> dict:
        t = self.tracer
        out = {}
        for name, (op, reading, names) in LAYER_METRICS.items():
            ops = t.operations(op)
            value = {"self": t.self_s, "total": t.total_s, "calls": t.calls}[reading](op, names)
            unit = "s" if name.endswith("_s") else "count"
            out[name] = {"value": value / ops if ops else 0.0, "unit": unit}
        reports = self.bytes_written
        out["report.bytes_written"] = {"value": sum(reports) / len(reports), "unit": "bytes"}
        out["trace.overhead_s"] = {
            "value": statistics.median(self.times["report_traced"])
            - statistics.median(self.times["report"]),
            "unit": "s",
        }
        return out


def _env_stamp() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import losanova.cli
        import losanova.plots  # noqa: F401  (loaded lazily by report; wrapped too)
    except ImportError as exc:
        print(f"cannot import losanova from {SRC}: {exc}", file=sys.stderr)
        return 1
    if not Path(losanova.cli.__file__).resolve().is_relative_to(SRC):
        print(f"losanova was imported from outside {SRC}", file=sys.stderr)
        return 1

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.run()
    for what, points in run.errors.items():
        print(f"failed ({len(points)}): {what}: {'; '.join(sorted(set(points)))}",
              file=sys.stderr)
    for problem in run.wrong[:50]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({"env": _env_stamp()}))
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
