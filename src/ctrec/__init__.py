"""Cross-temporal forecast reconciliation.

Build aggregation structures, construct error covariances, and project
incoherent multi-level multi-granularity forecasts onto the coherent
subspace with one-shot, sequential, averaged, or alternating strategies.
"""

from .covariance import (
    DiagonalSigma,
    ResidualSet,
    build_sigma,
    sigma_ols,
    sigma_str,
    sigma_wlsv,
)
from .errors import (
    NotPositiveDefiniteError,
    NumericalError,
    ReconciliationError,
    SingularSystemError,
    StructureError,
    ValidationError,
)
from .evaluate import (
    EvalFrame,
    NemenyiResult,
    NrmseTable,
    frobenius_trace,
    mcb_nemenyi,
    nrmse,
    nrmse_table,
    perf_summary,
)
from .hierarchy import (
    CrossSectionalStructure,
    CrossTemporalStructure,
    TemporalStructure,
    build_cs,
    build_ct,
    build_te,
)
from .reconcile import (
    ForecastBlock,
    ReconcileReport,
    baseline_pers_bu,
    frobenius_gap,
    prepare,
    run_batch,
    sntz,
)
from .simulate import pv324_structure, random_structure, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "CrossSectionalStructure",
    "CrossTemporalStructure",
    "DiagonalSigma",
    "EvalFrame",
    "ForecastBlock",
    "NemenyiResult",
    "NotPositiveDefiniteError",
    "NrmseTable",
    "NumericalError",
    "ReconcileReport",
    "ReconciliationError",
    "ResidualSet",
    "SingularSystemError",
    "StructureError",
    "TemporalStructure",
    "ValidationError",
    "baseline_pers_bu",
    "build_cs",
    "build_ct",
    "build_sigma",
    "build_te",
    "frobenius_gap",
    "frobenius_trace",
    "mcb_nemenyi",
    "nrmse",
    "nrmse_table",
    "perf_summary",
    "prepare",
    "pv324_structure",
    "random_structure",
    "run_batch",
    "sigma_ols",
    "sigma_str",
    "sigma_wlsv",
    "simulate_dataset",
    "sntz",
]
