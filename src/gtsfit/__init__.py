"""Tempered-stable return modeling: FRFT likelihood fitting and exact KS tests."""

from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    GridError,
    GtsError,
    LikelihoodError,
    PoleError,
)
from .model import (
    PARAM_NAMES,
    GbmParams,
    GtsParams,
    MomentStats,
    characteristic_exponent,
    characteristic_function,
    cumulant,
    levy_density,
    moment_stats,
    scale_time,
    total_levy_mass,
)
from .frft import (
    Field,
    GridSpec,
    auto_grid,
    cdf_field,
    density_field,
    field_to_csv,
    frft,
    interpolate,
)
from .gof import (
    CdfTable,
    EmpiricalDistribution,
    KsReport,
    attach_pvalue,
    derive_sample_size,
    empirical_cdf,
    ks_exact_cdf,
    ks_null_summary,
    ks_pvalue,
    ks_statistic,
    load_cdf_table,
)
from .data_io import (
    AbsThreshold,
    PriceSeries,
    ReturnSeries,
    SigmaMultiple,
    load_prices,
    log_returns,
    remove_outliers,
    summary_stats,
)
from .mle import (
    FitOptions,
    FitTrace,
    TraceRow,
    fit,
    fit_gbm,
    hessian,
    log_likelihood,
    max_eigenvalue,
    parameter_covariance,
    score,
)
from .sampler import SampleConfig, sample_gts, samples_to_csv, uniforms

__version__ = "0.1.0"
