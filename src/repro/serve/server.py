"""The ``repro serve`` daemon: asyncio HTTP/JSON with live observability.

One process, one event loop, zero dependencies: requests are parsed
straight off asyncio streams (HTTP/1.1, ``Connection: close``),
simulation work runs in the loop's thread executor behind the
:class:`~repro.serve.coalescer.Coalescer`, and everything the daemon
does is observable while it runs:

* every request increments per-endpoint counters and latency
  histograms on a live :class:`~repro.obs.MetricsRegistry`, scraped at
  ``GET /metrics`` as a Prometheus exposition
  (:mod:`repro.obs.prom`);
* ``GET /healthz`` / ``GET /statusz`` are the probe surface —
  ``statusz`` serves the same schema-versioned ``repro-status``
  snapshot the PR 6 ``--status-file`` flag writes (and ``--status-file``
  on the daemon itself keeps writing it atomically for file pollers);
* ``GET /events`` streams heartbeat + request/simulation lifecycle
  events as Server-Sent Events;
* every request gets a ``request_id`` that appears in the structured
  access log (:mod:`repro.obs.log`, subsystem ``serve``) and in the
  server's tracer spans (``--trace-out``).

Warm state lives for the life of the process: the workload registry,
an :class:`~repro.experiments.common.ExperimentContext` whose app /
plan / run memos make repeated requests near-free, an optional
persistent :class:`~repro.analysis.cache.AnalysisCache`, a bounded
:class:`~repro.serve.coalescer.ResponseCache`, and a
:class:`~repro.parallel.SuiteExecutor` pool for ``/v1/bench``.
"""

import asyncio
import json
import os
import secrets
import socket
import threading
import time

from repro.obs import MetricsRegistry, NULL_TRACER, Tracer
from repro.obs.log import (
    STATUS_KIND,
    STATUS_SCHEMA_VERSION,
    get_logger,
    write_status_snapshot,
)
from repro.serve.coalescer import Coalescer, ResponseCache, request_key
from repro.serve.handlers import (
    HANDLERS,
    ServeRequestError,
    normalize_params,
    workloads_result,
)

#: request limits — a local analysis service, not a hardened proxy
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 64
MAX_BODY_BYTES = 1 << 20
READ_TIMEOUT_S = 60.0

SCHEMA_HEADER = "x-repro-serve-schema"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServeStartupError(RuntimeError):
    """Bind/resolve failure at startup; the CLI maps it to exit 2."""


def preflight_host(host, port):
    """Resolve the bind address early for a clear one-line failure."""
    try:
        socket.getaddrinfo(str(host), int(port), type=socket.SOCK_STREAM)
    except socket.gaierror as exc:
        raise ServeStartupError(
            "cannot resolve --host {!r}: {}".format(host, exc)
        ) from None


class _EventBus:
    """Fan-out of server events to any number of SSE subscribers."""

    def __init__(self, metrics, capacity=256):
        self.metrics = metrics
        self.capacity = capacity
        self._queues = set()
        self._seq = 0

    @property
    def subscribers(self):
        return len(self._queues)

    def subscribe(self):
        queue = asyncio.Queue(maxsize=self.capacity)
        self._queues.add(queue)
        self.metrics.inc("serve.events.subscribes")
        return queue

    def unsubscribe(self, queue):
        self._queues.discard(queue)

    def publish(self, kind, **fields):
        self._seq += 1
        event = {"seq": self._seq, "kind": kind, "ts": round(time.time(), 3)}
        event.update(fields)
        self.metrics.inc("serve.events.published")
        for queue in list(self._queues):
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                self.metrics.inc("serve.events.dropped")
        return event


class ReproServer:
    """Daemon state + request handling; see the module docstring."""

    def __init__(self, host="127.0.0.1", port=0, cache_dir=None,
                 response_cache_size=1024, heartbeat_s=2.0,
                 status_file=None, trace_out=None, bench_jobs=1):
        self.host = host
        self.port = int(port)
        self.heartbeat_s = float(heartbeat_s)
        self.status_file = status_file or None
        self.trace_out = trace_out or None
        self.bench_jobs = max(1, int(bench_jobs))

        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if self.trace_out else NULL_TRACER
        self.log = get_logger("serve")
        self.coalescer = Coalescer(metrics=self.metrics)
        self.cache = ResponseCache(
            capacity=response_cache_size, metrics=self.metrics
        )
        self.events = _EventBus(self.metrics)
        self.sim_lock = threading.Lock()
        self.cache_dir = cache_dir

        from repro.experiments.common import ExperimentContext

        self.context = ExperimentContext()
        self._apps = {}
        self._suite_executor = None
        self.analysis_cache = None
        if cache_dir:
            from repro.analysis.cache import AnalysisCache

            self.analysis_cache = AnalysisCache(
                directory=cache_dir, metrics=self.metrics
            )

        self._started_monotonic = None
        self._started_wall = None
        self._requests_received = 0
        self._requests_finished = 0
        self._inflight = 0
        self._current = None
        self._stop_event = None
        self._server = None
        self._loop = None

    # ------------------------------------------------------------------
    # warm state accessors (called from executor threads under sim_lock)
    # ------------------------------------------------------------------
    def app_for(self, name):
        """Build-once application lookup (registry + hidden names)."""
        from repro.workloads import get_workload

        app = self._apps.get(name)
        if app is None:
            if len(self._apps) >= 512:
                # unbounded hidden names (fuzz-<seed>) must not grow the
                # memo forever; reset the warm context wholesale
                from repro.experiments.common import ExperimentContext

                self.context = ExperimentContext()
                self._apps.clear()
                self.metrics.inc("serve.context.resets")
            app = get_workload(name).build()
            self.context.register_app(app)
            self._apps[name] = app
        return app

    def run_with_engine(self, workload, model, engine):
        """An engine-pinned run: fresh context, env restored after."""
        from repro.experiments.common import ExperimentContext
        from repro.models.fastengine import ENGINE_ENV
        from repro.workloads import get_workload

        previous = os.environ.get(ENGINE_ENV)
        os.environ[ENGINE_ENV] = engine
        try:
            app = get_workload(workload).build()
            context = ExperimentContext()
            context.register_app(app)
            return context.run_model(app, model)
        finally:
            if previous is None:
                os.environ.pop(ENGINE_ENV, None)
            else:
                os.environ[ENGINE_ENV] = previous

    def suite_executor(self):
        """The ``/v1/bench`` worker pool (lazily built, process-wide)."""
        if self.bench_jobs <= 1:
            return None
        if self._suite_executor is None:
            from repro.parallel import SuiteExecutor

            self._suite_executor = SuiteExecutor(jobs=self.bench_jobs)
        return self._suite_executor

    # ------------------------------------------------------------------
    # status / metrics surfaces
    # ------------------------------------------------------------------
    def uptime_s(self):
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def status_snapshot(self):
        """The live ``repro-status`` snapshot behind ``/statusz``."""
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        lookups = counters.get("serve.cache.hits", 0.0) + counters.get(
            "serve.cache.misses", 0.0
        )
        payload = {
            "kind": STATUS_KIND,
            "schema_version": STATUS_SCHEMA_VERSION,
            "phase": "serve",
            "completed": self._requests_finished,
            "total": self._requests_received,
            "current": self._current,
            "elapsed_s": round(self.uptime_s(), 3),
            "eta_s": None,
            "done": self._inflight == 0,
            "pid": os.getpid(),
            "inflight": self._inflight,
            "cache_entries": len(self.cache),
            "cache_hit_rate": (
                counters.get("serve.cache.hits", 0.0) / lookups
                if lookups else None
            ),
            "coalesce_leaders": counters.get("serve.coalesce.leaders", 0.0),
            "coalesce_followers": counters.get(
                "serve.coalesce.followers", 0.0
            ),
            "event_subscribers": self.events.subscribers,
            "url": "http://{}:{}".format(self.host, self.port),
        }
        return payload

    def metrics_exposition(self):
        """The live ``/metrics`` document."""
        from repro.obs.prom import render_registry

        self.metrics.set_gauge("serve.uptime_seconds", self.uptime_s())
        self.metrics.set_gauge("serve.inflight_requests", self._inflight)
        self.metrics.set_gauge("serve.cache_entries", len(self.cache))
        self.metrics.set_gauge(
            "serve.event_subscribers", self.events.subscribers
        )
        return render_registry(
            self.metrics.snapshot(),
            namespace="repro",
            const_labels='service="repro-serve"',
        )

    def version_payload(self):
        from repro.serve import SERVE_SCHEMA_VERSION
        from repro.version import package_version, schema_versions

        return {
            "package": package_version(),
            "schemas": schema_versions(),
            "serve_schema_version": SERVE_SCHEMA_VERSION,
            "pid": os.getpid(),
        }

    def _write_status_file(self):
        if self.status_file:
            write_status_snapshot(self.status_snapshot(), self.status_file)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_stop(self):
        """Thread-safe graceful-shutdown trigger."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
        except socket.gaierror as exc:
            raise ServeStartupError(
                "cannot resolve --host {!r}: {}".format(self.host, exc)
            ) from None
        except OSError as exc:
            raise ServeStartupError(
                "cannot bind {}:{}: {}".format(
                    self.host, self.port, exc.strerror or exc
                )
            ) from None
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        self._started_wall = time.time()
        return self

    async def run(self, announce=None, ready=None):
        """Start, announce, heartbeat, serve until stopped."""
        await self.start()
        if announce is not None:
            announce(
                "repro serve: listening on http://{}:{} (pid {})".format(
                    self.host, self.port, os.getpid()
                )
            )
        if ready is not None:
            ready(self)
        try:
            self._loop.add_signal_handler(2, self._stop_event.set)    # INT
            self._loop.add_signal_handler(15, self._stop_event.set)   # TERM
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
        heartbeat = asyncio.ensure_future(self._heartbeat_task())
        try:
            async with self._server:
                self._write_status_file()
                await self._stop_event.wait()
        finally:
            heartbeat.cancel()
            try:
                await heartbeat
            except asyncio.CancelledError:
                pass
            self._write_status_file()
            if self.trace_out and self.tracer is not NULL_TRACER:
                self.tracer.write(self.trace_out)
            if self._suite_executor is not None:
                close = getattr(self._suite_executor, "close", None)
                if close is not None:
                    close()
        return 0

    async def _heartbeat_task(self):
        while True:
            await asyncio.sleep(self.heartbeat_s)
            self.metrics.inc("serve.heartbeats")
            self.events.publish(
                "heartbeat",
                uptime_s=round(self.uptime_s(), 3),
                completed=self._requests_finished,
                inflight=self._inflight,
                cache_entries=len(self.cache),
            )
            self._write_status_file()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except asyncio.TimeoutError:
            pass
        except asyncio.CancelledError:
            # loop shutdown with the connection (e.g. an /events tail)
            # still open; swallow so the streams callback stays quiet
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader):
        request_line = await asyncio.wait_for(
            reader.readline(), READ_TIMEOUT_S
        )
        if not request_line or len(request_line) > MAX_REQUEST_LINE:
            return None, None, None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None, None, None
        method, target = parts[0].upper(), parts[1]
        headers = {}
        for _ in range(MAX_HEADERS):
            line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_S)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _handle_request(self, reader, writer):
        method, target, headers = await self._read_head(reader)
        if method is None:
            return
        path = target.split("?", 1)[0]
        request_id = "r{:06d}-{}".format(
            self._requests_received + 1, secrets.token_hex(3)
        )
        self._requests_received += 1
        self._inflight += 1
        self._current = "{} {}".format(method, path)
        started = time.perf_counter()
        endpoint = self._endpoint_token(method, path)
        status = 500
        source = "-"
        try:
            if path == "/events" and method == "GET":
                status = 200
                self.metrics.inc("serve.requests.events")
                try:
                    await self._serve_events(writer, request_id)
                except OSError:
                    # ConnectionError included: a subscriber that went
                    # away ends its stream normally, not with a 500
                    pass
                return
            body = await self._read_body(reader, headers)
            status, payload, content_type, source = await self._route(
                method, path, headers, body, request_id
            )
            response = self._response_bytes(status, payload, content_type)
        except ServeRequestError as exc:
            status = exc.status
            response = self._error_bytes(exc.status, str(exc), request_id)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            status = 500
            self.metrics.inc("serve.errors.internal")
            response = self._error_bytes(
                500,
                "internal error: {}: {}".format(type(exc).__name__, exc),
                request_id,
            )
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self._inflight -= 1
            self._requests_finished += 1
            # observed (metrics, access-log line) before the response is
            # written: a client holding its answer never races the
            # daemon's bookkeeping for that request
            self._observe_request(
                endpoint, method, path, status, elapsed_ms, request_id,
                source,
            )
        writer.write(response)

    def _observe_request(self, endpoint, method, path, status, elapsed_ms,
                         request_id, source):
        self.metrics.inc("serve.requests.{}".format(endpoint))
        self.metrics.observe(
            "serve.latency_ms.{}".format(endpoint), elapsed_ms
        )
        if status >= 400:
            self.metrics.inc("serve.errors.{}".format(endpoint))
        self.tracer.complete(
            "serve.request:{}".format(path),
            ts_us=(time.time() - (elapsed_ms / 1e3)) * 1e6,
            dur_us=elapsed_ms * 1e3,
            cat="serve",
            args={
                "request_id": request_id,
                "status": status,
                "source": source,
            },
        )
        # the structured access log: one line per request, with the
        # request_id both in the text form and as a JSON field
        self.log.info(
            '{} "{} {}" {} {:.1f}ms rid={} source={}'.format(
                self.host, method, path, status, elapsed_ms, request_id,
                source,
            ),
            request_id=request_id,
            method=method,
            path=path,
            status=status,
            elapsed_ms=round(elapsed_ms, 3),
            source=source,
        )
        if path.startswith("/v1/") and path != "/v1/shutdown":
            self.events.publish(
                "request",
                request_id=request_id,
                path=path,
                status=status,
                elapsed_ms=round(elapsed_ms, 3),
                source=source,
            )

    @staticmethod
    def _endpoint_token(method, path):
        token = path.strip("/").replace("/", "_") or "root"
        if token.startswith("v1_"):
            token = token[len("v1_"):]
        return "{}_{}".format(method.lower(), token)

    async def _read_body(self, reader, headers):
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ServeRequestError("bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ServeRequestError("request body too large", status=413)
        if length <= 0:
            return None
        raw = await asyncio.wait_for(
            reader.readexactly(length), READ_TIMEOUT_S
        )
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServeRequestError("request body is not valid JSON")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, headers, body, request_id):
        if path in ("/healthz", "/statusz", "/metrics", "/version",
                    "/workloads"):
            if method != "GET":
                raise ServeRequestError("method not allowed", status=405)
            if path == "/healthz":
                return 200, {
                    "status": "ok",
                    "uptime_s": round(self.uptime_s(), 3),
                    "pid": os.getpid(),
                }, "application/json", "-"
            if path == "/statusz":
                return 200, self.status_snapshot(), "application/json", "-"
            if path == "/metrics":
                return (
                    200, self.metrics_exposition(),
                    "text/plain; version=0.0.4", "-",
                )
            if path == "/version":
                return 200, self.version_payload(), "application/json", "-"
            return 200, workloads_result(self, None), "application/json", "-"
        if path == "/v1/shutdown":
            if method != "POST":
                raise ServeRequestError("method not allowed", status=405)
            self._loop.call_later(0.05, self._stop_event.set)
            return 200, {"status": "shutting down"}, "application/json", "-"
        if path.startswith("/v1/"):
            if method != "POST":
                raise ServeRequestError("method not allowed", status=405)
            return await self._route_simulation(
                path, headers, body, request_id
            )
        raise ServeRequestError(
            "unknown path {!r}".format(path), status=404
        )

    def _check_schema_header(self, headers):
        from repro.serve import SERVE_SCHEMA_VERSION

        claimed = headers.get(SCHEMA_HEADER)
        if claimed is None:
            return
        if claimed.strip() != str(SERVE_SCHEMA_VERSION):
            self.metrics.inc("serve.errors.schema_mismatch")
            raise ServeRequestError(
                "serve schema mismatch: daemon speaks v{}, client sent "
                "v{}".format(SERVE_SCHEMA_VERSION, claimed.strip()),
                status=409,
            )

    async def _route_simulation(self, path, headers, body, request_id):
        from repro.serve import SERVE_KIND, SERVE_SCHEMA_VERSION

        self._check_schema_header(headers)
        endpoint = path[len("/v1/"):]
        handler = HANDLERS.get(endpoint)
        if handler is None:
            raise ServeRequestError(
                "unknown endpoint {!r}".format(endpoint), status=404
            )
        params = normalize_params(endpoint, body)
        key = request_key(endpoint, params)
        cached = self.cache.get(key)
        if cached is not None:
            result, source = cached, "cached"
        else:
            self.events.publish(
                "sim.start", request_id=request_id, endpoint=endpoint,
                key=key, params=params,
            )
            result, source = await self.coalescer.fetch(
                key, lambda: handler(self, params)
            )
            if source == "simulated":
                self.cache.put(key, result)
            self.events.publish(
                "sim.done", request_id=request_id, endpoint=endpoint,
                key=key, source=source,
            )
            if isinstance(result, dict) and "journal" in result:
                self.events.publish(
                    "journal", request_id=request_id, endpoint=endpoint,
                    **result["journal"]
                )
        envelope = {
            "kind": SERVE_KIND,
            "schema_version": SERVE_SCHEMA_VERSION,
            "endpoint": endpoint,
            "request_id": request_id,
            "key": key,
            "source": source,
            "params": params,
            "result": result,
        }
        return 200, envelope, "application/json", source

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    @staticmethod
    def _response_bytes(status, payload, content_type):
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode("utf-8")
        head = (
            "HTTP/1.1 {} {}\r\n"
            "Content-Type: {}\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).format(
            status, _STATUS_TEXT.get(status, "OK"), content_type, len(body)
        )
        return head.encode("latin-1") + body

    def _error_bytes(self, status, message, request_id):
        return self._response_bytes(
            status,
            {
                "kind": "repro-serve-error",
                "status": status,
                "error": message,
                "request_id": request_id,
            },
            "application/json",
        )

    async def _serve_events(self, writer, request_id):
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        queue = self.events.subscribe()
        self.log.info(
            "events: subscriber attached rid={}".format(request_id),
            request_id=request_id, path="/events",
        )
        try:
            hello = {
                "seq": 0, "kind": "hello", "request_id": request_id,
                "uptime_s": round(self.uptime_s(), 3),
            }
            writer.write(self._sse_frame(hello))
            await writer.drain()
            while not self._stop_event.is_set():
                try:
                    event = await asyncio.wait_for(queue.get(), 1.0)
                except asyncio.TimeoutError:
                    continue
                writer.write(self._sse_frame(event))
                await writer.drain()
        finally:
            self.events.unsubscribe(queue)

    @staticmethod
    def _sse_frame(event):
        return (
            "id: {}\nevent: {}\ndata: {}\n\n".format(
                event.get("seq", 0),
                event.get("kind", "message"),
                json.dumps(event, sort_keys=True),
            )
        ).encode("utf-8")


class ServeDaemon:
    """Run a :class:`ReproServer` on a background thread (tests, bench).

    ``with ServeDaemon() as daemon:`` binds an ephemeral port, waits
    until the server is accepting, and exposes ``daemon.port`` /
    ``daemon.base_url`` plus the live server object for white-box
    assertions (metrics counters, cache contents).
    """

    def __init__(self, **server_kwargs):
        server_kwargs.setdefault("port", 0)
        self.server = ReproServer(**server_kwargs)
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    @property
    def port(self):
        return self.server.port

    @property
    def base_url(self):
        return "http://{}:{}".format(self.server.host, self.server.port)

    def _thread_main(self):
        try:
            asyncio.run(
                self.server.run(ready=lambda _s: self._ready.set())
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
            self._ready.set()

    def start(self, timeout=10.0):
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve daemon did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout=10.0):
        if self._thread is None:
            return
        self.server.request_stop()
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, _exc_type, _exc, _tb):
        self.stop()
        return False
