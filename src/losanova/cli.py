"""Command-line interface.

Subcommands: ``power`` (replication planning / OC tables), ``synth``
(synthetic cohort generation), ``anova`` (between-subjects table),
``posthoc`` (Scheffe comparisons and homogeneous subsets), ``diagnose``
(residual diagnostics and transform recommendation), and ``report`` (the
full pipeline into an output directory).

Exit codes: 0 on success, 1 for input or validation problems, 2 for a
numerical failure.

Each command imports the modules it runs when it runs, so a fresh process
that only parses arguments, prints help or fails on its usage loads neither
numpy nor any analysis module.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .errors import LosanovaError, NumericalError, ValidationError

# factor names assumed for bare --levels lists of length three, matching the
# planning convention season x gender x age_group
_DEFAULT_PLANNING_FACTORS = ("season", "gender", "age_group")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _alpha(text: str) -> float:
    """The ``--alpha`` argument type: a number in (0, 1), checked at parse time."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be a number in (0, 1)")
    return value


def _planning_layout(levels_text: str, factors_text: str | None):
    """The ``model.FactorLayout`` that ``--levels`` and ``--factors`` name."""
    from .model import FactorLayout

    counts = _parse_int_list(levels_text, "--levels")
    if factors_text:
        names = [part.strip() for part in factors_text.split(",") if part.strip()]
        if len(names) != len(counts):
            raise ValidationError("--factors and --levels disagree on factor count")
    elif len(counts) == 3:
        names = list(_DEFAULT_PLANNING_FACTORS)
    else:
        names = [f"factor{i + 1}" for i in range(len(counts))]
    return FactorLayout(
        [(name, tuple(str(j + 1) for j in range(k))) for name, k in zip(names, counts)]
    )


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; an empty field is an error, not skipped."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse {flag} {text!r}") from None


def _cmd_power(args) -> int:
    from .power import effect_label, min_replications, oc_table, parse_effect, plan_all_effects
    from .report import _table_text, power_rows

    layout = _planning_layout(args.levels, args.factors)
    if args.all_effects:
        for flag, value in (("--effect", args.effect), ("--n", args.n)):
            if value is not None:
                raise ValidationError(f"--all-effects cannot be combined with {flag}")
        plan = plan_all_effects(
            layout, args.min_diff, args.sigma2, args.alpha, args.target_power
        )
        headers, rows = power_rows([p.result for p in plan.effects])
        rows = [[p.label, *row] for p, row in zip(plan.effects, rows)]
        print(_table_text(["effect", *headers], rows), end="")
        print(f"\noverall replications required (max over effects): {plan.max_n}")
        return 0

    if not args.effect:
        raise ValidationError("pass --effect NAME or --all-effects")
    effect = parse_effect(layout, args.effect)
    if args.n:
        ns = _parse_int_list(args.n, "--n")
        results = oc_table(layout, effect, args.min_diff, args.sigma2, args.alpha, ns)
        print(_table_text(*power_rows(results)), end="")
    else:
        result = min_replications(
            layout, effect, args.min_diff, args.sigma2, args.alpha, args.target_power
        )
        print(_table_text(*power_rows([result])), end="")
        print(
            f"\nsmallest n with power >= {args.target_power!r} for "
            f"{effect_label(layout, effect)}: {result.n}"
        )
    return 0


def _cmd_synth(args) -> int:
    from .ingest import write_csv
    from .synth import generate, reference_cohort_spec

    spec = reference_cohort_spec(n=args.n, seed=args.seed)
    dataset = generate(spec)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n} observations to {args.out}")
    return 0


def _load_analysis(args):
    """Shared ingest + transform front end for the analysis subcommands:
    (raw, analysis, rec, reason, chosen). ``rec`` is the sd-mean regression's
    recommendation. ``auto`` needs it, so its failure propagates there; under
    a forced transform ``rec`` is then None and ``reason`` says why."""
    from .diagnostics import apply_transform, sd_mean_regression
    from .ingest import ingest_csv

    raw = ingest_csv(args.input, use_date_season=getattr(args, "season_from_date", False))
    rec = reason = None
    try:
        rec = sd_mean_regression(raw.cells)
    except ValidationError as exc:
        if args.transform == "auto":
            raise
        reason = str(exc)
    if args.transform == "auto":
        chosen = rec.transform
    else:
        chosen = "logarithmic" if args.transform == "log10" else "none"
    analysis = apply_transform(raw, chosen)
    return raw, analysis, rec, reason, chosen


def _cmd_anova(args) -> int:
    from .anova import significance_summary, type3_anova
    from .report import _table_text, anova_rows

    _, analysis, rec, _, chosen = _load_analysis(args)
    table = type3_anova(analysis.cells, args.max_order, analysis.response_name)
    significant = [v.source for v in significance_summary(table, args.alpha) if v.significant]
    if args.transform == "auto":
        print(f"transform (auto): {chosen} [sd-mean slope {rec.slope:.3f}]")
    else:
        print(f"transform: {chosen}")
    print(f"response: {analysis.response_name}")
    print(_table_text(*anova_rows(table)), end="")
    print(f"\nsignificant at alpha={args.alpha:g}: {', '.join(significant) or 'none'}")
    return 0


def _cmd_posthoc(args) -> int:
    from .anova import type3_anova
    from .posthoc import homogeneous_subsets, scheffe_pairwise
    from .report import _table_text, scheffe_rows, subset_rows

    _, analysis, _, _, chosen = _load_analysis(args)
    table = type3_anova(analysis.cells, response_name=analysis.response_name)
    margin = analysis.cells.margin(args.factor)
    comparisons = scheffe_pairwise(margin, table.ms_error, table.df_error, args.alpha)
    subsets = homogeneous_subsets(comparisons, margin, args.alpha)
    print(f"transform: {chosen}; response: {analysis.response_name}")
    print(_table_text(*scheffe_rows(comparisons)), end="")
    print()
    print(_table_text(*subset_rows(subsets, margin)), end="")
    return 0


def _funnel_text(spread) -> str:
    return "undefined" if spread.funnel_ratio is None else f"{spread.funnel_ratio:.3f}"


def _cmd_diagnose(args) -> int:
    from .diagnostics import residual_diagnostics
    from .report import _table_text, transform_rows

    raw, analysis, rec, reason, chosen = _load_analysis(args)
    series = residual_diagnostics(raw, analysis)
    # without a transform the raw scale is the analysis scale
    hist_raw = series.get("raw_residual_histogram", series["residual_histogram"])
    spread_raw = series.get("raw_residual_vs_fitted", series["residual_vs_fitted"])
    print(f"raw-scale model: funnel ratio {_funnel_text(spread_raw)}")
    print(f"raw residual histogram: {len(hist_raw.counts)} bins, N={hist_raw.n}")
    if rec is None:
        print(f"transform recommendation unavailable: {reason}")
    else:
        print(_table_text(*transform_rows(rec)), end="")
    if chosen != "none":  # the P-P plot is printed only for a transformed model
        pp = series["pp_plot"]
        pp = "undefined" if pp is None else f"{pp.max_abs_deviation:.4f}"
        print(f"\ntransformed model ({analysis.response_name}): funnel ratio "
              f"{_funnel_text(series['residual_vs_fitted'])}, P-P max deviation {pp}")
    return 0


def _build_bundle(args):
    """The ``report.ReportBundle`` of the full pipeline on ``--input``."""
    from .anova import type3_anova
    from .diagnostics import residual_diagnostics
    from .linmod import coefficient_table, significant_model
    from .posthoc import homogeneous_subsets, scheffe_pairwise
    from .report import ReportBundle

    raw, analysis, rec, _, chosen = _load_analysis(args)
    table = type3_anova(analysis.cells, response_name=analysis.response_name)
    coefficients = coefficient_table(table.fit, args.alpha)
    diagnostics = residual_diagnostics(raw, analysis)
    if diagnostics["pp_plot"] is None:
        raise ValidationError("residuals have zero variance; P-P plot undefined")

    scheffe = {}
    subsets = {}
    for name in analysis.layout.names:
        if analysis.layout.n_levels(name) < 3:
            continue
        margin = analysis.cells.margin(name)
        comparisons = scheffe_pairwise(margin, table.ms_error, table.df_error, args.alpha)
        scheffe[name] = comparisons
        subsets[name] = homogeneous_subsets(comparisons, margin, args.alpha)

    parameters = {
        "input": str(args.input),
        "n_observations": analysis.n,
        "alpha": args.alpha,
        "transform_requested": args.transform,
        "transform_applied": chosen,
        "response": analysis.response_name,
        "sd_mean_slope": None if rec is None else rec.slope,
        "version": __version__,
    }
    return ReportBundle(
        parameters=parameters,
        cells=analysis.cells,
        anova=table,
        coefficients=coefficients,
        equation=significant_model(coefficients, analysis.response_name),
        raw_response=raw.response_name,
        scheffe=scheffe,
        subsets=subsets,
        diagnostics=diagnostics,
        transform_rec=rec,
    )


def _cmd_report(args) -> int:
    from .report import render_report, write_report_dir

    bundle = _build_bundle(args)
    if args.out:
        artifacts = write_report_dir(bundle, args.out)
        print(f"wrote {len(artifacts)} artifacts to {args.out}")
    else:
        sys.stdout.write(render_report(bundle, args.format))
    return 0


def _add_input_options(parser):
    parser.add_argument("--input", required=True, help="cohort CSV file")
    parser.add_argument(
        "--season-from-date", action="store_true",
        help="derive season from a 'date' column (meteorological, approximate)",
    )
    parser.add_argument(
        "--transform", choices=("auto", "log10", "none"), default="auto",
        help="response transform: auto picks from the sd-mean regression",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="losanova", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="power analysis and replication planning")
    p.add_argument("--levels", required=True, help="levels per factor, e.g. 4,2,5")
    p.add_argument("--factors", help="factor names matching --levels (comma separated)")
    p.add_argument("--min-diff", type=float, required=True,
                   help="smallest level-mean difference worth detecting")
    p.add_argument("--sigma2", type=float, required=True, help="error variance estimate")
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.add_argument("--effect", help="effect to analyze, e.g. season or gender*season")
    p.add_argument("--all-effects", action="store_true",
                   help="plan every main effect and interaction")
    p.add_argument("--n", help="replication counts for an OC table, e.g. 10,20,30")
    p.add_argument("--target-power", type=float, default=0.95,
                   help="power target for the replication search")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=int, required=True, help="number of observations")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("anova", help="Type III between-subjects table")
    _add_input_options(p)
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.add_argument("--max-order", type=int, default=None,
                   help="highest interaction order (default: full factorial)")
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("posthoc", help="Scheffe comparisons and homogeneous subsets")
    _add_input_options(p)
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.add_argument("--factor", required=True, help="factor to compare")
    p.set_defaults(func=_cmd_posthoc)

    p = sub.add_parser("diagnose", help="residual diagnostics and transform choice")
    _add_input_options(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("report", help="full pipeline: tables, plots, manifest")
    _add_input_options(p)
    p.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    p.add_argument("--out", help="output directory (omit to print to stdout)")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="stdout format when --out is omitted")
    p.set_defaults(func=_cmd_report)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, LosanovaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
