"""Planning and analysis of unbalanced fixed-effects factorial experiments.

The package covers the full desk-scale workflow for a factorial study such
as a hospital length-of-stay cohort: replication planning from exact
noncentral-F power, CSV ingestion, variance-stabilizing transform selection,
Type III ANOVA, dummy-coded regression with coefficient inference, Scheffe
post hoc comparisons with homogeneous subsets, residual diagnostics, and
publication-style reports with deterministic SVG plots.
"""

__version__ = "0.1.0"

from .anova import AnovaTable, df_check, significance_summary, type3_anova
from .diagnostics import (
    apply_transform,
    back_transform,
    pp_plot,
    residual_diagnostics,
    residual_histogram,
    residual_vs_fitted,
    residuals,
    sd_mean_regression,
)
from .distributions import (
    f_cdf,
    f_quantile,
    f_sf,
    log_gamma,
    noncentral_f_cdf,
    normal_cdf,
    normal_quantile,
    reg_inc_beta,
    t_cdf,
    t_quantile,
)
from .errors import (
    LosanovaError,
    NumericalError,
    RankDeficiencyError,
    ReplicationSearchError,
    ValidationError,
)
from .ingest import bin_age, ingest_csv, season_from_date, write_csv
from .linmod import (
    CoefficientTable,
    DesignMatrix,
    FitResult,
    Term,
    build_design,
    full_factorial_terms,
    ols_fit,
    predict,
    significant_model,
    significant_terms,
)
from .model import CellTable, Dataset, FactorLayout, build_dataset
from .posthoc import (
    HomogeneousSubsets,
    LevelSummary,
    ScheffeComparison,
    homogeneous_subsets,
    marginal_means,
    scheffe_from_stats,
    scheffe_pairwise,
)
from .power import (
    EffectId,
    PowerResult,
    PowerSpec,
    all_effects,
    effect_dfs,
    min_replications,
    oc_table,
    phi_squared,
    plan_all_effects,
    power_of_test,
)
from .report import ReportBundle, render_report, write_report_dir
from .synth import (
    CohortSpec,
    REFERENCE_CELL_COUNTS,
    REFERENCE_TOTAL,
    default_layout,
    generate,
    reference_cohort_spec,
)
