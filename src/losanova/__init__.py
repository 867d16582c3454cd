"""Planning and analysis of unbalanced fixed-effects factorial experiments.

The package covers the full desk-scale workflow for a factorial study such
as a hospital length-of-stay cohort: replication planning from exact
noncentral-F power, CSV ingestion, variance-stabilizing transform selection,
Type III ANOVA, dummy-coded regression with coefficient inference, Scheffe
post hoc comparisons with homogeneous subsets, residual diagnostics, and
publication-style reports with deterministic SVG plots.

Each exported name is imported from its submodule at its first use
(PEP 562), so ``import losanova`` loads neither numpy nor any submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "anova": ("AnovaTable", "df_check", "significance_summary", "type3_anova", "type3_contrast",
              "wald"),
    "diagnostics": (
        "apply_transform", "pp_plot", "residual_diagnostics", "residual_histogram",
        "residual_vs_fitted", "residuals", "sd_mean_regression",
    ),
    "distributions": (
        "f_quantile", "f_sf", "noncentral_f_cdf", "normal_cdf", "normal_quantile",
        "t_cdf", "t_quantile",
    ),
    "errors": (
        "LosanovaError", "NumericalError", "RankDeficiencyError",
        "ReplicationSearchError", "ValidationError",
    ),
    "ingest": ("bin_age", "ingest_csv", "season_from_date", "write_csv"),
    "linmod": (
        "CoefficientTable", "DesignMatrix", "FitResult", "Term", "build_design",
        "coefficient_table", "full_factorial_terms", "ols_fit", "significant_model",
        "significant_terms",
    ),
    "model": ("CellTable", "Dataset", "FactorLayout", "build_dataset"),
    "posthoc": (
        "HomogeneousSubsets", "ScheffeComparison", "homogeneous_subsets", "scheffe_pairwise",
    ),
    "power": (
        "PowerResult", "PowerSpec", "all_effects", "min_replications", "oc_table",
        "plan_all_effects", "power_of_test",
    ),
    "report": ("ReportBundle", "render_report", "write_report_dir"),
    "synth": (
        "CohortSpec", "REFERENCE_CELL_COUNTS", "REFERENCE_TOTAL", "default_layout",
        "generate", "reference_cohort_spec",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
