"""Log-symmetric semiparametric regression for mortality rate tables.

The package models age by period death counts on the log scale with
separate location and dispersion submodels, each mixing parametric
covariates with penalized spline terms, and provides a classical
Poisson log-linear rate model for comparison. Diagnostics cover
quantile residuals, simulated envelopes, AIC-based model comparison,
and component-curve export.

Imported before numpy, the package sets the BLAS to one thread, unless
the environment already names a thread count: forked workers run the
lambda grids and envelope replicates only beside a single-threaded BLAS
(``logsym_fit._THREADED``), and the thread count moves the last bits of
a large fit.
"""

import os
import sys

if "numpy" not in sys.modules:  # numpy reads these once, when it loads its BLAS
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

from .data_ingest import (
    MortalityColumns,
    ObservationCell,
    ObservationTable,
    TableMeta,
    aggregate_cells,
    apply_zero_policy,
    make_cell,
    parse_mortality_csv,
)
from .diagnostics import (
    ComparisonReport,
    EnvelopeResult,
    ModelSummary,
    all_component_curves,
    compare_models,
    export_component_curves,
    log_rate_correlation,
    simulated_envelope,
)
from .errors import (
    ComparisonError,
    ConstantCovariateError,
    DataFormatError,
    DataValidationError,
    EnvelopeError,
    EvaluationError,
    ModelError,
    NumericalError,
    RankDeficiencyError,
    SelectionError,
    SpecificationError,
    UndefinedCorrelationError,
)
from .logsym_family import (
    GeneratorSpec,
    cdf,
    dispersion_info_const,
    logpdf,
    normal_spec,
    weight_v,
    weight_v_prime,
)
from .logsym_fit import (
    FitParams,
    LogSymFit,
    ModelSpec,
    SubmodelSpec,
    fit,
    fitted_log_rate,
    penalized_loglik,
    residuals,
)
from .poisson_glm import (
    PoissonFit,
    deviance_residuals,
    fit_poisson,
    fitted_log_rate_poisson,
    parametric_design,
)
from .specio import (
    PoissonSpec,
    dump_json,
    fit_to_dict,
    load_json,
    model_spec_to_dict,
    parse_model_spec,
    parse_truth_spec,
)
from .spline_bases import BasisBlock, SplineTerm, build_term_block, center_block
from .synthetic import SimulatedTable, TruthSpec, simulate_table, simulated_to_records

__version__ = "0.1.0"

__all__ = [
    "MortalityColumns", "ObservationCell", "ObservationTable", "TableMeta",
    "aggregate_cells", "apply_zero_policy", "make_cell", "parse_mortality_csv",
    "ComparisonReport", "EnvelopeResult", "ModelSummary",
    "all_component_curves", "compare_models", "export_component_curves",
    "log_rate_correlation", "simulated_envelope",
    "ComparisonError", "ConstantCovariateError", "DataFormatError", "DataValidationError",
    "EnvelopeError", "EvaluationError", "ModelError", "NumericalError",
    "RankDeficiencyError", "SelectionError", "SpecificationError",
    "UndefinedCorrelationError",
    "GeneratorSpec", "cdf", "dispersion_info_const", "logpdf", "normal_spec",
    "weight_v", "weight_v_prime",
    "FitParams", "LogSymFit", "ModelSpec", "SubmodelSpec", "fit",
    "fitted_log_rate", "penalized_loglik", "residuals",
    "PoissonFit", "deviance_residuals", "fit_poisson",
    "fitted_log_rate_poisson", "parametric_design",
    "PoissonSpec", "dump_json", "fit_to_dict", "load_json",
    "model_spec_to_dict", "parse_model_spec", "parse_truth_spec",
    "BasisBlock", "SplineTerm", "build_term_block", "center_block",
    "SimulatedTable", "TruthSpec", "simulate_table", "simulated_to_records",
    "__version__",
]
