"""Event tracing in Chrome trace-event format.

:class:`Tracer` collects *span* (duration) and *instant* events and
exports them as Chrome trace-event JSON — the format understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.  Two clock
domains coexist in one trace, separated by synthetic process IDs:

* **wall clock** (:data:`PID_RUNTIME`) — real host time spent in the
  launch-time pipeline (reorder, Algorithm-1 analysis, graph build,
  pattern encoding) and in each model's simulation loop.  Timestamps
  are microseconds since the tracer's construction.
* **simulated time** (:data:`PID_HOST`, :data:`PID_DEVICE`,
  :data:`PID_SM`) — the discrete-event simulator's nanosecond clock,
  converted to microseconds.  Host command-queue activity, kernel
  lifecycle phases, and per-thread-block execution each get their own
  process row.

:class:`NullTracer` is the zero-cost stand-in used when tracing is
disabled: every method is a no-op and ``enabled`` is ``False`` so hot
paths can skip even building the argument dictionaries.  Instrumented
code must never behave differently based on which tracer it holds —
tracing is observation only.
"""

import json
import time

#: wall-clock domain: launch-time pipeline and model wall time
PID_RUNTIME = 1
#: simulated time: host command-queue activity (one thread per stream)
PID_HOST = 2
#: simulated time: kernel lifecycle phases (one thread per kernel)
PID_DEVICE = 3
#: simulated time: per-TB execution (one thread per SM)
PID_SM = 4

_PROCESS_NAMES = {
    PID_RUNTIME: "runtime (wall clock)",
    PID_HOST: "host queue (simulated)",
    PID_DEVICE: "kernels (simulated)",
    PID_SM: "SMs (simulated)",
}


def trace_us(us):
    """A timestamp or duration as the trace writes it: microseconds,
    rounded to 1 ns."""
    return round(float(us), 3)


class _SpanHandle:
    """Context manager for one wall-clock span."""

    __slots__ = ("_tracer", "_name", "_cat", "_pid", "_tid", "_args", "_start")

    def __init__(self, tracer, name, cat, pid, tid, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._pid = pid
        self._tid = tid
        self._args = args

    def __enter__(self):
        self._start = self._tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = self._tracer._now_us()
        self._tracer.complete(
            self._name,
            self._start,
            end - self._start,
            cat=self._cat,
            pid=self._pid,
            tid=self._tid,
            args=self._args,
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects trace events; export with :meth:`to_dict` / :meth:`write`."""

    enabled = True

    def __init__(self, clock=None, per_sm_counters=False):
        self._clock = clock or time.perf_counter
        #: opt-in: a rendered run also gets per-SM ``running_tbs[sm=i]``
        #: counters (off by default to keep trace size bounded)
        self.per_sm_counters = per_sm_counters
        self._epoch = self._clock()
        self._events = []
        self._named_threads = set()
        for pid, name in _PROCESS_NAMES.items():
            self._meta("process_name", pid, 0, {"name": name})
            # sort wall clock first, then host, device, SMs
            self._meta("process_sort_index", pid, 0, {"sort_index": pid})

    # ------------------------------------------------------------------
    def _now_us(self):
        return (self._clock() - self._epoch) * 1e6

    def _meta(self, name, pid, tid, args):
        self._events.append(
            {"name": name, "ph": "M", "ts": 0, "pid": pid, "tid": tid, "args": args}
        )

    def _event(self, name, ph, ts, pid, tid, cat, args, **extra):
        event = {
            "name": name,
            "ph": ph,
            "ts": trace_us(ts),
            "pid": pid,
            "tid": tid,
        }
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = args
        event.update(extra)
        self._events.append(event)

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def name_thread(self, pid, tid, name):
        """Label one (pid, tid) row; repeated calls are deduplicated."""
        key = (pid, tid)
        if key in self._named_threads:
            return
        self._named_threads.add(key)
        self._meta("thread_name", pid, tid, {"name": name})

    # ------------------------------------------------------------------
    # wall-clock spans
    # ------------------------------------------------------------------
    def span(self, name, cat="", pid=PID_RUNTIME, tid=0, args=None):
        """Context manager measuring a wall-clock duration event."""
        return _SpanHandle(self, name, cat, pid, tid, args)

    # ------------------------------------------------------------------
    # explicit-timestamp events (simulated clock or precomputed wall)
    # ------------------------------------------------------------------
    def complete(self, name, ts_us, dur_us, cat="", pid=PID_RUNTIME, tid=0, args=None):
        """A ``ph:"X"`` complete event at an explicit timestamp (us)."""
        self._event(
            name, "X", ts_us, pid, tid, cat, args, dur=trace_us(dur_us)
        )

    def sim_span(self, name, start_ns, end_ns, cat="", pid=PID_DEVICE, tid=0, args=None):
        """A complete event on the simulated clock (nanosecond inputs)."""
        self.complete(
            name,
            start_ns / 1e3,
            max(0.0, (end_ns - start_ns) / 1e3),
            cat=cat,
            pid=pid,
            tid=tid,
            args=args,
        )

    def instant(self, name, ts_us=None, cat="", pid=PID_RUNTIME, tid=0, args=None):
        """A ``ph:"i"`` instant event (thread-scoped)."""
        if ts_us is None:
            ts_us = self._now_us()
        self._event(name, "i", ts_us, pid, tid, cat, args, s="t")

    def counter(self, name, values, ts_us=None, cat="", pid=PID_DEVICE, tid=0):
        """A ``ph:"C"`` counter sample; ``values`` maps series to value."""
        if ts_us is None:
            ts_us = self._now_us()
        self._event(name, "C", ts_us, pid, tid, cat, dict(values))

    def async_begin(self, name, ts_us, event_id, cat="", pid=PID_SM, tid=0, args=None):
        """Async begin (``ph:"b"``): overlapping spans on one row."""
        self._event(name, "b", ts_us, pid, tid, cat, args, id=str(event_id))

    def async_end(self, name, ts_us, event_id, cat="", pid=PID_SM, tid=0):
        self._event(name, "e", ts_us, pid, tid, cat, None, id=str(event_id))

    def flow(self, name, ts_us, flow_id, phase, cat="", pid=PID_RUNTIME,
             tid=0, args=None):
        """A flow event (``ph:"s"/"t"/"f"``): Perfetto draws arrows
        between flow points sharing ``flow_id``, letting one logical
        chain (e.g. the critical path) span process/thread rows.

        ``phase`` is ``"begin"``, ``"step"``, or ``"end"``.  The ``"f"``
        end event carries ``bp:"e"`` so the final arrow binds to the
        enclosing slice rather than the next one.
        """
        ph = {"begin": "s", "step": "t", "end": "f"}[phase]
        extra = {"id": str(flow_id)}
        if ph == "f":
            extra["bp"] = "e"
        self._event(name, ph, ts_us, pid, tid, cat, args, **extra)

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def events(self, ph=None, pid=None, cat_prefix=None):
        """The recorded events, optionally filtered."""
        out = []
        for event in self._events:
            if ph is not None and event["ph"] != ph:
                continue
            if pid is not None and event["pid"] != pid:
                continue
            if cat_prefix is not None and not event.get("cat", "").startswith(
                cat_prefix
            ):
                continue
            out.append(event)
        return out

    def __len__(self):
        return len(self._events)

    def wall_phase_totals(self, cat_prefix="", pid=PID_RUNTIME):
        """Aggregate complete-event durations by name — blame input.

        Returns ``[(name, total_us, count), ...]`` sorted by descending
        total.  Nested spans each contribute their own full duration
        (like ``systemd-analyze blame``, attribution is per unit, not
        exclusive).
        """
        totals = {}
        for event in self.events(ph="X", pid=pid, cat_prefix=cat_prefix):
            total, count = totals.get(event["name"], (0.0, 0))
            totals[event["name"]] = (total + event.get("dur", 0.0), count + 1)
        rows = [
            (name, total, count) for name, (total, count) in totals.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def to_dict(self):
        """Chrome trace-event JSON object form."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.Tracer",
                "clock_domains": {
                    str(pid): name for pid, name in _PROCESS_NAMES.items()
                },
            },
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path):
        from repro.obs.report import atomic_write_text

        atomic_write_text(self.to_json(), path)
        return path


class NullTracer:
    """No-op tracer with the full :class:`Tracer` API surface."""

    enabled = False
    per_sm_counters = False

    def name_thread(self, pid, tid, name):
        pass

    def span(self, name, cat="", pid=PID_RUNTIME, tid=0, args=None):
        return _NULL_SPAN

    def complete(self, name, ts_us, dur_us, cat="", pid=PID_RUNTIME, tid=0, args=None):
        pass

    def sim_span(self, name, start_ns, end_ns, cat="", pid=PID_DEVICE, tid=0, args=None):
        pass

    def instant(self, name, ts_us=None, cat="", pid=PID_RUNTIME, tid=0, args=None):
        pass

    def counter(self, name, values, ts_us=None, cat="", pid=PID_DEVICE, tid=0):
        pass

    def async_begin(self, name, ts_us, event_id, cat="", pid=PID_SM, tid=0, args=None):
        pass

    def async_end(self, name, ts_us, event_id, cat="", pid=PID_SM, tid=0):
        pass

    def flow(self, name, ts_us, flow_id, phase, cat="", pid=PID_RUNTIME,
             tid=0, args=None):
        pass

    def events(self, ph=None, pid=None, cat_prefix=None):
        return []

    def __len__(self):
        return 0

    def wall_phase_totals(self, cat_prefix="", pid=PID_RUNTIME):
        return []


#: shared no-op instance — the default everywhere tracing is optional
NULL_TRACER = NullTracer()
