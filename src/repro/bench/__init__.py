"""Performance benchmarking & regression tracking (``repro bench``).

Four pieces, one file format:

* :mod:`repro.bench.schema` — the versioned ``BENCH_<UTC>.json`` report
  shape, host/git metadata capture, and structural validation;
* :mod:`repro.bench.runner` — the suite runner: warmup + N measured
  cold passes per (workload, model), wall-clock p50/p95/max per
  pipeline phase, deterministic simulated metrics, optional cProfile
  hotspots;
* :mod:`repro.bench.diff` — the regression gate: tolerance-banded
  wall-clock comparison, bit-identical (zero tolerance) simulated
  metrics;
* :mod:`repro.bench.trend` — folds a directory of reports into a
  per-workload performance trajectory.

See ``docs/benchmarking.md`` for the workflow.
"""

from repro.bench.schema import (
    FILE_PREFIX,
    REPORT_KIND,
    SCHEMA_VERSION,
    bench_filename,
    load_report,
    validate_report,
)
from repro.bench.runner import (
    BenchConfig,
    DEFAULT_MODELS,
    QUICK_MODELS,
    QUICK_WORKLOADS,
    resolve_config,
    run_suite,
    write_report,
)
from repro.bench.diff import Delta, DiffResult, diff_reports, format_diff
from repro.bench.trend import find_reports, format_trend, load_reports, trend_rows

__all__ = [
    "BenchConfig",
    "DEFAULT_MODELS",
    "Delta",
    "DiffResult",
    "FILE_PREFIX",
    "QUICK_MODELS",
    "QUICK_WORKLOADS",
    "REPORT_KIND",
    "SCHEMA_VERSION",
    "bench_filename",
    "diff_reports",
    "find_reports",
    "format_diff",
    "format_trend",
    "load_report",
    "load_reports",
    "resolve_config",
    "run_suite",
    "trend_rows",
    "validate_report",
    "write_report",
]
