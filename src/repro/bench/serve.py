"""``repro bench serve`` — load-test the serve daemon, report latency.

The bench answers the question the daemon exists to answer: *how much
faster is a warm daemon than a cold CLI invocation, and does request
coalescing actually hold under concurrency?*  Four phases against one
daemon (an external one via ``--url``, else a subprocess spawned and
reaped by the bench):

1. **warmup** — one request per target workload primes the daemon's
   warm :class:`~repro.experiments.common.ExperimentContext`;
2. **latency** — N sequential requests round-robin over the targets;
   per-request wall-clock p50/p95/p99;
3. **throughput** — the same requests fired from C concurrent client
   threads; requests/second plus the same latency quantiles;
4. **coalesce** — C threads release a barrier simultaneously on one
   *fresh* key (a workload held out of the earlier phases, so the
   response cache cannot answer it).  Exactly one response must report
   ``source == "simulated"``; the rest must be ``"coalesced"`` — and
   the daemon's own ``serve.coalesce.*`` counters must agree.

An optional **CLI baseline** times ``repro run`` one-shot subprocesses
(interpreter + parse + analyze cold start each time) for the speedup
headline.  The result is a schema-versioned
``repro-serve-bench-report`` JSON with its own structural validator,
written as ``SERVEBENCH_<UTC>.json``.
"""

import json
import os
import subprocess
import sys
import threading
import time

from repro.version import SERVE_BENCH_SCHEMA_VERSION

SERVE_BENCH_KIND = "repro-serve-bench-report"
SERVE_BENCH_FILE_PREFIX = "SERVEBENCH_"

#: what the daemon prints once it is accepting connections
LISTENING_PREFIX = "repro serve: listening on "

#: quantile block every phase's ``wall_ms`` must carry
LATENCY_KEYS = ("p50", "p95", "p99", "mean", "max", "min", "count")

#: default load shape (kept light enough for CI smoke use)
DEFAULT_REQUESTS = 24
DEFAULT_CONCURRENCY = 4
DEFAULT_BURST = 8
DEFAULT_WORKLOADS = ("mvt", "bicg", "path")
#: held out of warmup/latency/throughput so its key is cold for the burst
DEFAULT_BURST_WORKLOAD = "nw"


# ----------------------------------------------------------------------
# daemon management
# ----------------------------------------------------------------------
class SpawnedDaemon:
    """Spawn ``repro serve`` as a subprocess; parse the announce line."""

    def __init__(self, extra_args=(), startup_timeout=60.0):
        self.extra_args = list(extra_args)
        self.startup_timeout = startup_timeout
        self.process = None
        self.url = None

    def start(self):
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
        ] + self.extra_args
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith(LISTENING_PREFIX):
                # "... listening on http://H:P (pid N)"
                self.url = line[len(LISTENING_PREFIX):].split()[0]
                return self
        self.stop()
        raise RuntimeError(
            "spawned daemon never announced itself (within {}s)".format(
                self.startup_timeout
            )
        )

    def stop(self):
        if self.process is None:
            return
        if self.process.poll() is None:
            if self.url:
                try:
                    from repro.serve.client import ServeClient

                    ServeClient(self.url, timeout=5.0).shutdown()
                except Exception:  # noqa: BLE001 - fall through to kill
                    pass
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self.process.stdout.close()
        self.process = None

    def __enter__(self):
        return self.start()

    def __exit__(self, _exc_type, _exc, _tb):
        self.stop()
        return False


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def _percentile(ordered, fraction):
    """Linear-interpolated percentile of an ascending-sorted list."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def latency_block(samples_ms):
    """The ``wall_ms`` quantile block for a list of millisecond samples."""
    ordered = sorted(samples_ms)
    count = len(ordered)
    return {
        "p50": round(_percentile(ordered, 0.50), 3),
        "p95": round(_percentile(ordered, 0.95), 3),
        "p99": round(_percentile(ordered, 0.99), 3),
        "mean": round(sum(ordered) / count, 3) if count else 0.0,
        "max": round(ordered[-1], 3) if count else 0.0,
        "min": round(ordered[0], 3) if count else 0.0,
        "count": count,
    }


def _timed_run(client, workload, model):
    """One ``/v1/run`` request; returns (elapsed_ms, source)."""
    started = time.perf_counter()
    envelope = client.call("run", workload=workload, model=model)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return elapsed_ms, envelope.get("source", "?")


def _source_counts(sources):
    counts = {}
    for source in sources:
        counts[source] = counts.get(source, 0) + 1
    return counts


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
def _phase_warmup(make_client, workloads, model):
    client = make_client()
    started = time.perf_counter()
    for workload in workloads:
        client.call("run", workload=workload, model=model)
    return {
        "requests": len(workloads),
        "total_s": round(time.perf_counter() - started, 3),
    }


def _phase_latency(make_client, workloads, model, requests):
    client = make_client()
    samples, sources = [], []
    for index in range(requests):
        elapsed_ms, source = _timed_run(
            client, workloads[index % len(workloads)], model
        )
        samples.append(elapsed_ms)
        sources.append(source)
    return {
        "requests": requests,
        "wall_ms": latency_block(samples),
        "sources": _source_counts(sources),
    }


def _phase_throughput(make_client, workloads, model, requests, concurrency):
    samples, sources = [], []
    lock = threading.Lock()
    next_index = [0]

    def worker():
        client = make_client()
        while True:
            with lock:
                index = next_index[0]
                if index >= requests:
                    return
                next_index[0] += 1
            elapsed_ms, source = _timed_run(
                client, workloads[index % len(workloads)], model
            )
            with lock:
                samples.append(elapsed_ms)
                sources.append(source)

    threads = [
        threading.Thread(target=worker, name="bench-load-{}".format(i))
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - started
    return {
        "requests": requests,
        "concurrency": concurrency,
        "elapsed_s": round(elapsed_s, 3),
        "rps": round(requests / elapsed_s, 2) if elapsed_s > 0 else 0.0,
        "wall_ms": latency_block(samples),
        "sources": _source_counts(sources),
    }


def _phase_coalesce(make_client, workload, model, burst):
    """Barrier-released identical requests on a cold key."""
    results = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(burst)

    def worker():
        client = make_client()
        try:
            barrier.wait(timeout=30.0)
            elapsed_ms, source = _timed_run(client, workload, model)
            with lock:
                results.append((elapsed_ms, source))
        except Exception as exc:  # noqa: BLE001 - reported in the block
            with lock:
                errors.append("{}: {}".format(type(exc).__name__, exc))

    threads = [
        threading.Thread(target=worker, name="bench-burst-{}".format(i))
        for i in range(burst)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sources = [source for _ms, source in results]
    counts = _source_counts(sources)
    total = len(sources)
    coalesced = counts.get("coalesced", 0)
    return {
        "burst": burst,
        "workload": workload,
        "completed": total,
        "sources": counts,
        "simulations": counts.get("simulated", 0),
        "coalesce_hit_rate": round(coalesced / total, 4) if total else 0.0,
        "wall_ms": latency_block([ms for ms, _source in results]),
        "errors": errors,
    }


def _cli_baseline(workload, model, repeats):
    """Time one-shot ``repro run`` subprocesses (full cold start)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "run", workload,
                "--model", model, "--json", os.devnull,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=False,
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if completed.returncode == 0:
            samples.append(elapsed_ms)
    if not samples:
        return None
    return {
        "repeats": len(samples),
        "workload": workload,
        "wall_ms": latency_block(samples),
    }


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------
def run_serve_bench(url=None, requests=DEFAULT_REQUESTS,
                    concurrency=DEFAULT_CONCURRENCY, burst=DEFAULT_BURST,
                    workloads=None, burst_workload=DEFAULT_BURST_WORKLOAD,
                    model="consumer3", baseline_repeats=1, log=None):
    """Run all phases; return a ``repro-serve-bench-report`` payload.

    ``url=None`` spawns a daemon subprocess for the duration of the
    bench; otherwise the daemon at ``url`` is used (and left running).
    ``baseline_repeats=0`` skips the CLI cold-start baseline.
    """
    from repro.bench.schema import git_metadata, host_metadata, utc_timestamp
    from repro.serve.client import ServeClient

    emit = log or (lambda _message: None)
    workloads = list(workloads or DEFAULT_WORKLOADS)
    if burst_workload in workloads:
        raise ValueError(
            "burst workload {!r} must be held out of the load set "
            "(its key must be cold for the coalesce phase)".format(
                burst_workload
            )
        )

    spawned = url is None
    daemon = SpawnedDaemon() if spawned else None
    if spawned:
        emit("spawning daemon subprocess ...")
        daemon.start()
        url = daemon.url
        emit("daemon up at {}".format(url))

    def make_client():
        return ServeClient(url)

    try:
        probe = make_client()
        daemon_info = probe.version()
        status_before = probe.statusz()

        emit("warmup: {} workloads ...".format(len(workloads)))
        warmup = _phase_warmup(make_client, workloads, model)
        emit("latency: {} sequential requests ...".format(requests))
        latency = _phase_latency(make_client, workloads, model, requests)
        emit(
            "throughput: {} requests x {} threads ...".format(
                requests, concurrency
            )
        )
        throughput = _phase_throughput(
            make_client, workloads, model, requests, concurrency
        )
        emit("coalesce: {} simultaneous identical requests ...".format(burst))
        coalesce = _phase_coalesce(make_client, burst_workload, model, burst)

        status_after = probe.statusz()
        coalesce["counters"] = {
            "leaders_delta": (
                status_after.get("coalesce_leaders", 0)
                - status_before.get("coalesce_leaders", 0)
            ),
            "followers_delta": (
                status_after.get("coalesce_followers", 0)
                - status_before.get("coalesce_followers", 0)
            ),
        }

        baseline = None
        if baseline_repeats > 0:
            emit(
                "cli baseline: {} one-shot subprocess run(s) ...".format(
                    baseline_repeats
                )
            )
            baseline = _cli_baseline(workloads[0], model, baseline_repeats)
    finally:
        if spawned:
            daemon.stop()

    payload = {
        "kind": SERVE_BENCH_KIND,
        "schema_version": SERVE_BENCH_SCHEMA_VERSION,
        "created_utc": utc_timestamp(),
        "host": host_metadata(),
        "git": git_metadata(),
        "daemon": {
            "url": url,
            "spawned": spawned,
            "package": daemon_info.get("package"),
            "schemas": daemon_info.get("schemas"),
        },
        "config": {
            "requests": requests,
            "concurrency": concurrency,
            "burst": burst,
            "workloads": workloads,
            "burst_workload": burst_workload,
            "model": model,
            "baseline_repeats": baseline_repeats,
        },
        "phases": {
            "warmup": warmup,
            "latency": latency,
            "throughput": throughput,
            "coalesce": coalesce,
        },
        "cli_baseline": baseline,
    }
    warm_p50 = latency["wall_ms"]["p50"]
    if baseline is not None and warm_p50 > 0:
        payload["comparison"] = {
            "daemon_warm_p50_ms": warm_p50,
            "cli_cold_p50_ms": baseline["wall_ms"]["p50"],
            "speedup": round(baseline["wall_ms"]["p50"] / warm_p50, 2),
        }
    return payload


# ----------------------------------------------------------------------
# persistence / validation / formatting
# ----------------------------------------------------------------------
def serve_bench_filename(when=None):
    from repro.bench.schema import utc_timestamp

    return "{}{}.json".format(
        SERVE_BENCH_FILE_PREFIX,
        utc_timestamp(when).replace(":", "").replace("-", ""),
    )


def write_serve_bench_report(payload, path):
    """Atomic (tmp + rename) write of a serve-bench report."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = "{}.tmp.{}".format(path, os.getpid())
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_latency(block, where, errors):
    if not isinstance(block, dict):
        errors.append("{}: not an object".format(where))
        return
    for key in LATENCY_KEYS:
        if not _is_number(block.get(key)):
            errors.append("{}.{}: missing or non-numeric".format(where, key))
    if not errors and block["count"] > 0 and block["min"] > block["max"]:
        errors.append("{}: min > max".format(where))


def validate_serve_bench_report(payload):
    """Structural validation; returns ``"path: problem"`` strings."""
    errors = []
    if not isinstance(payload, dict):
        return ["report: not an object"]
    if payload.get("kind") != SERVE_BENCH_KIND:
        errors.append(
            "kind: expected {!r}, got {!r}".format(
                SERVE_BENCH_KIND, payload.get("kind")
            )
        )
    if payload.get("schema_version") != SERVE_BENCH_SCHEMA_VERSION:
        errors.append(
            "schema_version: expected {}, got {!r}".format(
                SERVE_BENCH_SCHEMA_VERSION, payload.get("schema_version")
            )
        )
    for section in ("created_utc",):
        if not isinstance(payload.get(section), str):
            errors.append("{}: missing or not a string".format(section))
    for section in ("host", "git", "daemon", "config", "phases"):
        if not isinstance(payload.get(section), dict):
            errors.append("{}: missing or not an object".format(section))
    phases = payload.get("phases")
    if isinstance(phases, dict):
        for name in ("warmup", "latency", "throughput", "coalesce"):
            if not isinstance(phases.get(name), dict):
                errors.append(
                    "phases.{}: missing or not an object".format(name)
                )
        for name in ("latency", "throughput", "coalesce"):
            phase = phases.get(name)
            if isinstance(phase, dict):
                _check_latency(
                    phase.get("wall_ms"),
                    "phases.{}.wall_ms".format(name),
                    errors,
                )
        throughput = phases.get("throughput")
        if isinstance(throughput, dict) and not _is_number(
            throughput.get("rps")
        ):
            errors.append("phases.throughput.rps: missing or non-numeric")
        coalesce = phases.get("coalesce")
        if isinstance(coalesce, dict):
            for key in ("burst", "completed", "simulations",
                        "coalesce_hit_rate"):
                if not _is_number(coalesce.get(key)):
                    errors.append(
                        "phases.coalesce.{}: missing or "
                        "non-numeric".format(key)
                    )
            if not isinstance(coalesce.get("sources"), dict):
                errors.append("phases.coalesce.sources: missing object")
    baseline = payload.get("cli_baseline")
    if baseline is not None:
        if isinstance(baseline, dict):
            _check_latency(
                baseline.get("wall_ms"), "cli_baseline.wall_ms", errors
            )
        else:
            errors.append("cli_baseline: not an object or null")
    return errors


def format_serve_bench_report(payload):
    """Human-readable summary lines for one serve-bench report."""
    phases = payload.get("phases", {})
    lines = [
        "serve bench @ {} (daemon {})".format(
            payload.get("created_utc", "?"),
            payload.get("daemon", {}).get("url", "?"),
        )
    ]
    for name in ("latency", "throughput"):
        phase = phases.get(name, {})
        wall = phase.get("wall_ms", {})
        extra = (
            "  {:.2f} req/s".format(phase["rps"])
            if name == "throughput" and _is_number(phase.get("rps"))
            else ""
        )
        lines.append(
            "  {:<11} {:>4} reqs  p50 {:>8.2f}ms  p95 {:>8.2f}ms  "
            "p99 {:>8.2f}ms{}".format(
                name, phase.get("requests", 0), wall.get("p50", 0.0),
                wall.get("p95", 0.0), wall.get("p99", 0.0), extra,
            )
        )
    coalesce = phases.get("coalesce", {})
    lines.append(
        "  {:<11} {:>4} reqs  {} simulation(s)  hit rate {:.0%}".format(
            "coalesce", coalesce.get("burst", 0),
            coalesce.get("simulations", 0),
            coalesce.get("coalesce_hit_rate", 0.0),
        )
    )
    comparison = payload.get("comparison")
    if comparison:
        lines.append(
            "  warm daemon p50 {:.2f}ms vs cold CLI p50 {:.0f}ms "
            "({:.0f}x)".format(
                comparison["daemon_warm_p50_ms"],
                comparison["cli_cold_p50_ms"],
                comparison["speedup"],
            )
        )
    return lines
