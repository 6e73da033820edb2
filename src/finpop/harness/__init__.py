"""Data ingestion, verification campaigns, reports, and the CLI."""

from .ingest import IVData, ObservedData, ingest_csv
from .reports import SCHEMA_VERSION, MetricResult, Report
from .experiments import (
    ExperimentConfig,
    run_clt_experiment,
    run_oracle_suite,
    run_suite,
)

__all__ = [
    "ObservedData",
    "IVData",
    "ingest_csv",
    "SCHEMA_VERSION",
    "MetricResult",
    "Report",
    "ExperimentConfig",
    "run_oracle_suite",
    "run_clt_experiment",
    "run_suite",
]
