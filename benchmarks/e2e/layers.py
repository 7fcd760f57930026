"""The benchmark's per-layer tracing: spans around public entry points.

Nothing here edits the program.  One :class:`SpanTracer` (a
``repro.obs.Tracer``) records every span of a traced run.
:func:`install` wraps public callables of ``repro`` for the duration
of the run:

============================  =====================================
wrapped callable              span (layer)
============================  =====================================
``WorkloadSpec.build``        ``workloads.build``
``BlockMaestroRuntime.plan``  the runtime's own spans, recorded by
                              handing it the tracer: ``plan:<app>``
                              and its validate/reorder/true-deps/
                              cross-stream children (``core.plan``),
                              ``plan.analyze`` (``analysis.analyze``),
                              ``plan.graphs`` (``analysis.graphs``)
``ExecutionModel.run``        ``models.run``
``json.dumps`` (CLI child)    ``obs.serialize``
============================  =====================================

``plan`` and ``run`` also receive a counting ``metrics=`` registry, so
the program's own counters (``engine.tier.*``, ``engine.fallback.*``,
``analysis.fastpath.*``, ``plan.kernels_analyzed``...) land in
:attr:`SpanTracer.counters`.  The registry reports ``enabled = False``,
so the engine skips the gauge and histogram bookkeeping a full
:class:`~repro.obs.MetricsRegistry` would add to the timed work.

Spans nest by time on each (pid, tid) row.  A span with no enclosing
span starts a new operation; :func:`analyse` gives every span its
operation id and its self time (its duration minus its children's), so
the self times of one operation add up to the operation's wall time.
"""

import json
import time
from collections import defaultdict, namedtuple

from repro.obs.tracer import Tracer

#: runtime tracer span -> benchmark layer (``plan:<app>`` is ``core.plan``)
RUNTIME_LAYERS = {
    "plan.validate": "core.plan",
    "plan.reorder": "core.plan",
    "plan.true-deps": "core.plan",
    "plan.cross-stream": "core.plan",
    "plan.analyze": "analysis.analyze",
    "plan.graphs": "analysis.graphs",
}

#: one analysed span: the trace event, its layer, its self time in
#: seconds, the registry workload it worked on (or None), its op id and
#: whether it is the operation's root
Span = namedtuple("Span", "event layer self_s workload op root")


def layer_of(name):
    if name.startswith("plan:"):
        return "core.plan"
    return RUNTIME_LAYERS.get(name, name)


class SpanTracer(Tracer):
    """``repro.obs.Tracer`` on ``time.monotonic`` that keeps spans only.

    Its ``enabled`` is False, so ``BlockMaestroRuntime.plan`` skips the
    per-graph instant events, and building their arguments, that it
    would otherwise do inside the timed ``plan.graphs`` span; spans are
    recorded all the same.  ``time.monotonic`` is one system-wide
    clock, so spans timed in a child process merge into this trace.
    """

    enabled = False

    def __init__(self):
        # trace timestamps are microseconds since construction
        self.origin = time.monotonic()
        super().__init__(clock=time.monotonic)
        self.counters = defaultdict(float)

    def instant(self, *args, **kwargs):
        pass

    def add(self, name, start, end, tid=0, args=None):
        """A span timed elsewhere, from two ``time.monotonic()`` readings."""
        self.complete(name, (start - self.origin) * 1e6, (end - start) * 1e6,
                      tid=tid, args=args)

    def export(self):
        """Plain data for a parent process's :meth:`merge`."""
        return {"origin": self.origin, "spans": self.events(ph="X"),
                "counters": dict(self.counters)}

    def merge(self, exported):
        shift_us = (exported["origin"] - self.origin) * 1e6
        for event in exported["spans"]:
            self.complete(event["name"], event["ts"] + shift_us, event["dur"],
                          tid=event["tid"], args=event.get("args"))
        for name, value in exported["counters"].items():
            self.counters[name] += value


def analyse(tracer):
    """Nest the spans, then :class:`Span` per span in start order.

    Also stores each span's op id in its event's ``args.op``, for the
    Chrome trace that :meth:`Tracer.write` saves."""
    events = sorted(tracer.events(ph="X"),
                    key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    parents = []
    ops = []
    roots = 0
    child_us = defaultdict(float)
    row = stack = None
    for index, event in enumerate(events):
        if (event["pid"], event["tid"]) != row:
            row, stack = (event["pid"], event["tid"]), []
        while stack and event["ts"] >= stack[-1][1]:
            stack.pop()
        parent = stack[-1][0] if stack else None
        parents.append(parent)
        if parent is None:
            roots += 1
            ops.append(roots)
        else:
            ops.append(ops[parent])
            child_us[parent] += event["dur"]
        stack.append((index, event["ts"] + event["dur"]))

    def workload_of(index):
        while index is not None:
            args = events[index].get("args") or {}
            name = args.get("workload", args.get("application"))
            if name is not None:
                return name
            index = parents[index]
        return None

    spans = []
    for index, event in enumerate(events):
        event.setdefault("args", {})["op"] = ops[index]
        spans.append(Span(event, layer_of(event["name"]),
                          (event["dur"] - child_us[index]) / 1e6,
                          workload_of(index), ops[index], parents[index] is None))
    return sorted(spans, key=lambda span: span.event["ts"])


def layer_totals(spans):
    """``{layer: (self_seconds, spans)}``."""
    totals = defaultdict(lambda: [0.0, 0])
    for span in spans:
        totals[span.layer][0] += span.self_s
        totals[span.layer][1] += 1
    return {layer: tuple(value) for layer, value in totals.items()}


def layer_split(spans):
    """``{layer: {registry workload: self_seconds}}``."""
    split = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.workload is not None:
            split[span.layer][span.workload] += span.self_s
    return {layer: dict(per) for layer, per in split.items()}


def op_seconds(spans):
    """Total wall time of all operations (root spans)."""
    return sum(span.event["dur"] / 1e6 for span in spans if span.root)


def format_blame(totals, wall_s):
    """``analyze blame`` style: layer self times, largest first."""
    lines = []
    for name, (own, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        share = 100.0 * own / wall_s if wall_s else 0.0
        lines.append("    {:08.5f}s {:5.1f}%  ({}) x{}".format(own, share, name, calls))
    return lines


# ----------------------------------------------------------------------
# wrappers around public entry points
# ----------------------------------------------------------------------
def counting_metrics(counters):
    """A metrics registry that keeps only counter increments."""
    from repro.obs.metrics import NullMetrics

    class CountingMetrics(NullMetrics):
        def inc(self, name, amount=1.0):
            counters[name] += amount

    return CountingMetrics()


def install(tracer, serialize=False):
    """Wrap the layer entry points; returns a function that unwraps them.

    ``serialize=True`` also wraps ``json.dumps`` (used only inside a
    child process, where every ``dumps`` is the program's own).
    """
    from repro.core.runtime import BlockMaestroRuntime
    from repro.models.base import ExecutionModel
    from repro.workloads.registry import WorkloadSpec

    metrics = counting_metrics(tracer.counters)
    originals = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap_build(original):
        def build(self, **overrides):
            with tracer.span("workloads.build", args={"workload": self.name}):
                return original(self, **overrides)
        return build

    def wrap_plan(original):
        def plan(self, application, reorder=True, window=None):
            saved = self.tracer, self.metrics
            self.tracer, self.metrics = tracer, metrics
            try:
                return original(self, application, reorder, window)
            finally:
                self.tracer, self.metrics = saved
        return plan

    def wrap_run(original):
        def run(self, plan, *args, **kwargs):
            if not args and kwargs.get("metrics") is None:
                kwargs["metrics"] = metrics
            with tracer.span("models.run", args={"workload": plan.application,
                                                 "model": self.name}):
                stats = original(self, plan, *args, **kwargs)
            tracer.counters["models.tbs"] += len(stats.tb_records)
            return stats
        return run

    def wrap_dumps(original):
        def dumps(obj, *args, **kwargs):
            with tracer.span("obs.serialize"):
                return original(obj, *args, **kwargs)
        return dumps

    patch(WorkloadSpec, "build", wrap_build)
    patch(BlockMaestroRuntime, "plan", wrap_plan)
    patch(ExecutionModel, "run", wrap_run)
    if serialize:
        patch(json, "dumps", wrap_dumps)

    def uninstall():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
