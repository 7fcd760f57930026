"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

Every CLI invocation pays interpreter + parse + analyze cold start.
``repro serve`` is the long-running alternative: one asyncio HTTP/JSON
process that holds the workload registry, a warm in-process
:class:`~repro.experiments.common.ExperimentContext` (apps, plans, and
run results memoized across requests) and a persistent
:class:`~repro.analysis.cache.AnalysisCache` — exposing the
:mod:`repro.ops` operations ``run`` / ``compare`` / ``critpath`` /
``telemetry`` as endpoints.

Request handling is *content-addressed* (PR 3's sha256 scheme): every
simulation request canonicalizes to a :func:`request_key`; concurrent
identical requests coalesce into exactly one simulation (the
:class:`~repro.serve.coalescer.Coalescer`), and completed responses are
served from an in-memory :class:`~repro.serve.coalescer.ResponseCache`.

The observability plane around the daemon:

* ``GET /metrics``   — live Prometheus exposition of the server's
  :class:`~repro.obs.MetricsRegistry` (per-endpoint request counters +
  latency histograms, coalescing, cache, uptime) via
  :mod:`repro.obs.prom`;
* ``GET /healthz``   — liveness probe;
* ``GET /statusz``   — a ``repro-status`` snapshot (the PR 6
  ``--status-file`` schema, served live);
* ``GET /events``    — Server-Sent Events stream of heartbeat +
  request/simulation lifecycle events for live tailing;
* structured JSON access logs through :mod:`repro.obs.log` with a
  per-request ``request_id`` that is also propagated into the server's
  tracer spans (``--trace-out``).

See ``docs/serving.md`` for the endpoint reference.
"""

from repro.version import SERVE_SCHEMA_VERSION  # noqa: F401 - public

#: envelope ``kind`` on every JSON response body
SERVE_KIND = "repro-serve-response"

#: default TCP port (the client's default target)
DEFAULT_PORT = 8642

#: environment override for the client's default daemon URL
SERVE_URL_ENV = "REPRO_SERVE_URL"
