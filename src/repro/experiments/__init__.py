"""Experiment harness: one module per paper table/figure.

================  =============================================
module            paper artifact
================  =============================================
fig09_speedup     Fig. 9 — normalized speedup per configuration
fig10_concurrency Fig. 10 — normalized average TB concurrency
fig11_stalls      Fig. 11 — dependency stall distribution
fig12_interconnectivity  Fig. 12 — dependency-degree sweep
fig13_memory_overhead    Fig. 13 — memory request overhead
fig14_comparison  Fig. 14 — CDP vs Wireframe vs BlockMaestro
table1_overhead   Table I — encoding overhead per pattern
table2_benchmarks Table II — benchmark inventory
table3_storage    Table III — dependency graph storage
================  =============================================

Each module exposes ``run(ctx, ...) -> rows`` returning plain dicts and
a ``format_rows`` helper; :mod:`repro.experiments.runner` (``repro
experiments``) calls every ``run`` on one shared
:class:`~repro.experiments.common.ExperimentContext`.
"""

from repro.experiments.common import (
    ExperimentContext,
    STANDARD_MODELS,
    format_table,
    geomean,
)

__all__ = [
    "ExperimentContext",
    "STANDARD_MODELS",
    "format_table",
    "geomean",
]
