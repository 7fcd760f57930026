"""Observability: event tracing, metrics, and report serialization.

The package has three parts:

* :mod:`repro.obs.tracer` — span/instant/counter event capture in
  Chrome trace-event JSON (open the output in Perfetto or
  ``chrome://tracing``);
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  running-stat histograms with a snapshot/export API;
* :mod:`repro.obs.report` — the shared JSON serializer for
  :class:`~repro.sim.stats.RunStats`, the ``blame`` attribution tables,
  and per-experiment report artifacts.

Every instrumented component takes optional ``tracer=`` / ``metrics=``
arguments; when omitted they are the no-op :data:`NULL_TRACER` /
:data:`NULL_METRICS`, so instrumentation has zero cost and zero
behavioural effect unless a caller passes an observer::

    tracer, metrics = Tracer(), MetricsRegistry()
    plan = BlockMaestroRuntime(tracer=tracer, metrics=metrics).plan(app)

Tracing is observation only: enabling it must never change simulated
results (tests assert makespan equality with tracing on and off).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
    percentile,
)
from repro.obs.tracer import (
    NullTracer,
    NULL_TRACER,
    PID_DEVICE,
    PID_HOST,
    PID_RUNTIME,
    PID_SM,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NullTracer",
    "NULL_TRACER",
    "PID_DEVICE",
    "PID_HOST",
    "PID_RUNTIME",
    "PID_SM",
    "Tracer",
    "percentile",
]
