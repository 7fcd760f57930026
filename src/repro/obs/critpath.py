"""Critical-path profiling: per-TB provenance, makespan attribution,
and what-if speedup bounds.

Everything here is derived from one run's journal
(:class:`~repro.obs.journal.JournalRecorder`, attached with
``model.run(plan, journal=...)``).  Its ``tb_ready``, ``tb_dispatch``
and ``kernel_launch`` events carry the release edge that caused them,
and :func:`derive_provenance` folds them into, for every thread block,
*which edge released it* —

* **dependency** — the last-finishing parent thread block resolved its
  parent counter (Dependency List Buffer behaviour);
* **occupancy**  — the block was ready but waited for an SM slot; the
  recorded source is the retiring block whose slot it took;
* **launch**     — the block became dispatchable when its own kernel's
  launch overhead finished;
* **barrier**    — an in-order kernel *completion* (grandparent
  barriers, cross-stream dependencies, coarse kernel-level blocking);
* **input**      — a non-kernel data prerequisite (e.g. an H2D copy)
  completed;
* **host**       — the releasing event was the host enqueueing a call.

From those records :func:`extract_critical_path` walks the last-arrival
blame graph *backwards* from the makespan-determining activity.  The
walk emits contiguous segments ``[t0, t1]`` covering ``[0, makespan]``,
each blamed on one component, so the **hierarchical makespan
attribution** (:data:`COMPONENT_KEYS`) sums to the makespan by
construction — a per-workload generalization of the paper's Fig. 11.

:func:`what_if_bounds` replays the recorded DAG under perturbed
parameters (zero launch overhead, infinite SMs, dependencies dropped)
on the *timing* engine only — no functional re-simulation — and
reports an optimistic speedup bound per knob.

Import note: this module must not be imported from
``repro.obs.__init__`` — the engine imports ``repro.obs`` at module
load, and the what-if analyzer imports the engine (lazily, inside the
function) to replay plans.
"""

import bisect
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import schema
from repro.host.api import KernelLaunchCall, MallocCall, MemcpyD2H, MemcpyH2D
from repro.obs.tracer import PID_DEVICE, PID_HOST, PID_SM
from repro.version import CRITPATH_SCHEMA_VERSION

CRITPATH_KIND = "repro-critpath-report"

#: attribution buckets; every critical-path segment lands in exactly one
COMPONENT_KEYS = (
    "exec",        # thread blocks executing on SMs
    "launch",      # kernel launch overhead on the launch engine
    "dependency",  # waiting on parent thread blocks (non-contiguous gaps)
    "occupancy",   # ready blocks waiting for an SM slot
    "barrier",     # in-order completion / grandparent / cross-stream waits
    "copy",        # host<->device memory transfers
    "host",        # host API issue cost and host-side bookkeeping
    "other",       # unexplained gaps (defensive; should stay ~0)
)

#: what-if knobs, each an independent optimistic relaxation
WHATIF_KNOBS = ("zero_launch", "infinite_sms", "no_dependencies", "ideal")

#: float-time matching tolerance (ns); event times are exact floats, but
#: derived anchors (enqueue - api cost) can carry rounding error
_EPS = 1e-3


# ----------------------------------------------------------------------
# provenance records, derived from the journal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeRef:
    """The releasing edge of one scheduling decision."""

    kind: str                      # one of the kinds documented above
    kernel: Optional[int] = None   # releasing kernel (dependency/launch/...)
    tb: Optional[int] = None       # releasing thread block (dependency/occupancy)
    position: Optional[int] = None  # releasing API-call position (input/host)

    def as_dict(self):
        out = {"kind": self.kind}
        if self.kernel is not None:
            out["kernel"] = self.kernel
        if self.tb is not None:
            out["tb"] = self.tb
        if self.position is not None:
            out["position"] = self.position
        return out


@dataclass(frozen=True)
class TBStart:
    """Start-reason record for one thread block."""

    ready_push_ns: float   # when the block entered the ready queue
    ready_edge: EdgeRef    # what pushed it there
    start_ns: float        # when it was placed on an SM
    release_edge: EdgeRef  # ready_edge, or an occupancy edge if it waited


#: journal release-edge kind (:func:`repro.obs.journal.edge_fields`) ->
#: the edge kind of a block that started without waiting for a slot
_RELEASE_KIND = {
    "tb_finish": "dependency",
    "launch": "launch",
    "completion": "barrier",
    "call": "input",
    "enqueue": "host",
}


def _edge_ref(edge, waited=False):
    """Map a journal release edge to an :class:`EdgeRef`.

    ``waited=True`` marks a dispatch that happened strictly after the
    ready push — the releasing resource is an SM slot, so the edge kind
    becomes ``occupancy`` (annotated with whatever freed the slot).
    """
    if waited:
        return EdgeRef("occupancy", kernel=edge.get("kernel"),
                       tb=edge.get("tb"))
    return EdgeRef(
        _RELEASE_KIND.get(edge["kind"], "host"), kernel=edge.get("kernel"),
        tb=edge.get("tb"), position=edge.get("position"),
    )


@dataclass
class Provenance:
    """Why every thread block started and every kernel launched, plus
    the command-queue times the walk anchors on (one observed run)."""

    tb_starts: Dict[Tuple[int, int], TBStart]
    kernel_launch_trigger: Dict[int, EdgeRef]
    call_start_ns: Dict[int, float]
    call_enqueued_ns: List[float]
    call_done_ns: List[float]

    def release_edge_counts(self):
        """How many thread blocks each edge kind released (whole run)."""
        counts = {}
        for start in self.tb_starts.values():
            kind = start.release_edge.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts


def derive_provenance(journal):
    """Fold a finished run's journal events into :class:`Provenance`."""
    num_calls = len(journal.plan.order)
    prov = Provenance(
        tb_starts={}, kernel_launch_trigger={}, call_start_ns={},
        call_enqueued_ns=[0.0] * num_calls, call_done_ns=[0.0] * num_calls,
    )
    ready = {}
    for event in journal.events:
        kind, now = event["kind"], event["t_ns"]
        if kind == "tb_ready":
            ready[(event["kernel"], event["tb"])] = (
                now, _edge_ref(event["edge"])
            )
        elif kind == "tb_dispatch":
            key = (event["kernel"], event["tb"])
            ready_ns, ready_edge = ready.pop(key, None) or (
                now, _edge_ref(event["edge"])
            )
            if now - ready_ns <= _EPS:
                release = ready_edge
            else:
                release = _edge_ref(event["edge"], waited=True)
            prov.tb_starts[key] = TBStart(ready_ns, ready_edge, now, release)
        elif kind == "kernel_launch":
            prov.kernel_launch_trigger[event["kernel"]] = _edge_ref(
                event["edge"]
            )
        elif kind == "call_start":
            prov.call_start_ns[event["position"]] = now
        elif kind == "call_enqueue":
            prov.call_enqueued_ns[event["position"]] = now
        elif kind == "call_complete":
            prov.call_done_ns[event["position"]] = now
    return prov


# ----------------------------------------------------------------------
# the backward walk
# ----------------------------------------------------------------------
class _Walker:
    """Backward walk over the last-arrival blame graph.

    Nodes are tuples: ``("call", p)``, ``("host_issue", p)``,
    ``("kernel_launch", ki)``, ``("kernel_complete", ki)``,
    ``("tb", ki, tb)``.  The cursor starts at the makespan and only
    moves toward zero; every handler emits the segments that cover the
    interval it consumed, so the emitted segments tile ``[0, makespan]``.
    """

    def __init__(self, stats, journal, records):
        self.stats = stats
        self.plan = journal.plan
        self.records = records
        self.segments = []
        self.visited = set()
        self.kr_by_index = {kr.index: kr for kr in stats.kernel_records}
        self.tb_by_key = {
            (tb.kernel_index, tb.tb_id): tb for tb in stats.tb_records
        }
        self.last_tb = {}
        for rec in stats.tb_records:
            cur = self.last_tb.get(rec.kernel_index)
            if cur is None or (rec.finish_ns, rec.tb_id) > (
                cur.finish_ns, cur.tb_id
            ):
                self.last_tb[rec.kernel_index] = rec
        self.api_call_ns = journal.options.api_call_ns
        self.strict_order = journal.options.strict_order
        self._anchors = self._build_anchors()
        self._anchor_times = [a[0] for a in self._anchors]

    # -- helpers --------------------------------------------------------
    def _build_anchors(self):
        """Every known event time, for defensive gap recovery."""
        anchors = []
        records = self.records
        for p in range(len(records.call_done_ns)):
            anchors.append((records.call_enqueued_ns[p], 0, ("host_issue", p)))
            anchors.append((records.call_done_ns[p], 2, ("call", p)))
        for kr in self.stats.kernel_records:
            anchors.append((kr.resident_ns, 1, ("kernel_launch", kr.index)))
            anchors.append((kr.completed_ns, 1, ("kernel_complete", kr.index)))
        for rec in self.stats.tb_records:
            anchors.append(
                (rec.finish_ns, 3, ("tb", rec.kernel_index, rec.tb_id))
            )
        anchors.sort(key=lambda a: (a[0], a[1]))
        return anchors

    def _emit(self, t0, t1, kind, via, **info):
        t1 = min(t1, self.cursor)
        t0 = max(0.0, min(t0, t1))
        if t1 - t0 > 0:
            seg = {"t0_ns": t0, "t1_ns": t1, "kind": kind, "via": via}
            seg.update(info)
            self.segments.append(seg)
        self.cursor = t0

    def _node_time(self, node):
        kind = node[0]
        if kind == "call":
            return self.records.call_done_ns[node[1]]
        if kind == "host_issue":
            return self.records.call_enqueued_ns[node[1]]
        if kind == "kernel_launch":
            return self.kr_by_index[node[1]].resident_ns
        if kind == "kernel_complete":
            return self.kr_by_index[node[1]].completed_ns
        if kind == "tb":
            rec = self.tb_by_key.get((node[1], node[2]))
            return rec.finish_ns if rec is not None else None
        return None

    def _anchor_before(self, t):
        """Largest known event strictly before ``t`` not yet visited."""
        i = bisect.bisect_left(self._anchor_times, t - _EPS)
        while i > 0:
            i -= 1
            time, _prio, node = self._anchors[i]
            if node not in self.visited:
                return time, node
        return None, None

    def _fallback(self):
        """Recover via the nearest earlier anchor (emits an ``other``
        segment for the unexplained gap); ends the walk at zero."""
        time, node = self._anchor_before(self.cursor)
        if node is None:
            self._emit(0.0, self.cursor, "other", "unattributed")
            return None
        self._emit(time, self.cursor, "other", "gap before {}".format(node[0]))
        return node

    def _hop(self, node):
        """Move to ``node``, bridging any time gap defensively."""
        if node is None or node in self.visited:
            return self._fallback()
        t = self._node_time(node)
        if t is None or t > self.cursor + _EPS:
            return self._fallback()
        if t < self.cursor - _EPS:
            self._emit(t, self.cursor, "other", "gap before {}".format(node[0]))
        return node

    # -- node handlers --------------------------------------------------
    def _call_of_kernel(self, position):
        ki = self.plan.kernel_at_position.get(position)
        return ki

    def _handle_call(self, p):
        done = self.records.call_done_ns[p]
        if done < self.cursor - _EPS:
            self._emit(done, self.cursor, "other", "gap before call {}".format(p))
        self.cursor = min(self.cursor, done)
        call = self.plan.order[p]
        if isinstance(call, KernelLaunchCall):
            # a kernel call's completion IS the kernel's in-order
            # completion point — hand off to the kernel-side walk
            return ("kernel_complete", self._call_of_kernel(p))
        start = self.records.call_start_ns.get(p, done)
        via = call.trace_name
        if isinstance(call, (MemcpyH2D, MemcpyD2H)):
            self._emit(start, self.cursor, "copy", via,
                       node_kind="call", position=p, stream=call.stream_id)
        elif isinstance(call, MallocCall):
            self._emit(start, self.cursor, "host", via,
                       node_kind="call", position=p, stream=call.stream_id)
        else:
            self.cursor = min(self.cursor, start)  # zero-cost barrier/event
        return self._pred_of_call_start(p)

    def _pred_of_call_start(self, p):
        """What gated the start of command ``p``: its own enqueue, a data
        prerequisite, or (strict mode) the same-stream prefix."""
        candidates = [(self.records.call_enqueued_ns[p], 0, ("host_issue", p))]
        for q in self.plan.deps[p]:
            candidates.append((self.records.call_done_ns[q], 1, ("call", q)))
        if self.strict_order:
            stream = self.plan.order[p].stream_id
            for q in range(p):
                if self.plan.order[q].stream_id == stream:
                    candidates.append(
                        (self.records.call_done_ns[q], 1, ("call", q))
                    )
        return self._best_candidate(candidates)

    def _best_candidate(self, candidates):
        best = None
        for time, prio, node in candidates:
            if time > self.cursor + _EPS or node in self.visited:
                continue
            if best is None or (time, prio) > (best[0], best[1]):
                best = (time, prio, node)
        if best is None:
            return self._fallback()
        return self._hop(best[2])

    def _handle_host_issue(self, p):
        enq = self.records.call_enqueued_ns[p]
        self.cursor = min(self.cursor, enq)
        issue = max(0.0, enq - self.api_call_ns)
        call = self.plan.order[p]
        self._emit(issue, self.cursor, "host",
                   "issue {}".format(call.trace_name),
                   node_kind="host_issue", position=p,
                   stream=call.stream_id)
        if p == 0 or self.cursor <= _EPS:
            return None
        # the host issues sequentially: the previous issue finished at
        # enqueued[p-1]; a host-blocking call that completed exactly at
        # our issue time explains a longer wait, so it wins ties
        candidates = [
            (self.records.call_enqueued_ns[p - 1], 0, ("host_issue", p - 1))
        ]
        for q in range(p):
            candidates.append((self.records.call_done_ns[q], 1, ("call", q)))
        return self._best_candidate(candidates)

    def _handle_kernel_launch(self, ki):
        kr = self.kr_by_index[ki]
        if kr.resident_ns < self.cursor - _EPS:
            self._emit(kr.resident_ns, self.cursor, "other",
                       "gap before k{} launch".format(ki))
        self.cursor = min(self.cursor, kr.resident_ns)
        self._emit(kr.launch_begin_ns, self.cursor, "launch",
                   "k{:02d} {} launch".format(ki, kr.name),
                   node_kind="kernel_launch", kernel=ki)
        edge = self.records.kernel_launch_trigger.get(ki)
        if edge is None:
            return self._fallback() if self.cursor > _EPS else None
        return self._hop(self._node_of_edge(edge))

    def _node_of_edge(self, edge):
        if edge.kind == "dependency" and edge.tb is not None:
            return ("tb", edge.kernel, edge.tb)
        if edge.kind == "occupancy" and edge.tb is not None:
            return ("tb", edge.kernel, edge.tb)
        if edge.kind == "launch":
            return ("kernel_launch", edge.kernel)
        if edge.kind == "barrier":
            return ("kernel_complete", edge.kernel)
        if edge.kind == "input":
            return ("call", edge.position)
        if edge.kind == "host" and edge.position is not None:
            return ("host_issue", edge.position)
        return None

    def _handle_kernel_complete(self, ki):
        kr = self.kr_by_index[ki]
        if kr.completed_ns < self.cursor - _EPS:
            self._emit(kr.completed_ns, self.cursor, "other",
                       "gap before k{} completion".format(ki))
        self.cursor = min(self.cursor, kr.completed_ns)
        if kr.all_tbs_done_ns >= kr.completed_ns - _EPS:
            rec = self.last_tb.get(ki)
            if rec is not None:
                return self._hop(("tb", ki, rec.tb_id))
            return self._fallback() if self.cursor > _EPS else None
        # drained earlier but completed now: the in-order barrier — its
        # completion time equals the predecessor's (same cascade event)
        prev = self.plan.kernels[ki].chain_prev
        if prev is not None:
            return self._hop(("kernel_complete", prev))
        return self._fallback() if self.cursor > _EPS else None

    def _handle_tb(self, ki, tb):
        rec = self.tb_by_key.get((ki, tb))
        if rec is None:
            return self._fallback()
        if rec.finish_ns < self.cursor - _EPS:
            self._emit(rec.finish_ns, self.cursor, "other",
                       "gap before k{}/tb{}".format(ki, tb))
        self.cursor = min(self.cursor, rec.finish_ns)
        kr = self.kr_by_index.get(ki)
        name = kr.name if kr is not None else "k{}".format(ki)
        self._emit(rec.start_ns, self.cursor, "exec",
                   "k{:02d}/{} tb{}".format(ki, name, tb),
                   node_kind="tb", kernel=ki, tb=tb, sm=rec.sm)
        start = self.records.tb_starts.get((ki, tb))
        if start is None:
            return self._fallback() if self.cursor > _EPS else None
        if start.release_edge.kind == "occupancy":
            self._emit(start.ready_push_ns, self.cursor, "occupancy",
                       "k{:02d}/tb{} waiting for an SM slot (freed by {})"
                       .format(ki, tb, _describe_edge(start.release_edge)),
                       node_kind="tb", kernel=ki, tb=tb, sm=rec.sm,
                       freed_by=start.release_edge.as_dict())
            edge = start.ready_edge
        else:
            edge = start.release_edge
        return self._hop(self._node_of_edge(edge))

    # -- entry ----------------------------------------------------------
    def _terminal(self, makespan):
        """The makespan-determining node: the latest call completion,
        else the latest kernel completion, else the latest TB finish."""
        best = None
        for p, done in enumerate(self.records.call_done_ns):
            if done >= makespan - _EPS and (best is None or p > best[1]):
                best = (done, p)
        if best is not None:
            return ("call", best[1])
        for kr in self.stats.kernel_records:
            if kr.completed_ns >= makespan - _EPS:
                return ("kernel_complete", kr.index)
        for rec in self.stats.tb_records:
            if rec.finish_ns >= makespan - _EPS:
                return ("tb", rec.kernel_index, rec.tb_id)
        return None

    def walk(self):
        makespan = self.stats.makespan_ns
        self.cursor = makespan
        node = self._terminal(makespan)
        handlers = {
            "call": self._handle_call,
            "host_issue": self._handle_host_issue,
            "kernel_launch": self._handle_kernel_launch,
            "kernel_complete": self._handle_kernel_complete,
            "tb": self._handle_tb,
        }
        max_steps = (
            4 * (len(self.stats.tb_records) + len(self.records.call_done_ns)
                 + 2 * len(self.stats.kernel_records)) + 64
        )
        steps = 0
        while node is not None and self.cursor > _EPS:
            steps += 1
            if steps > max_steps:
                self._emit(0.0, self.cursor, "other", "walk step limit")
                break
            if node in self.visited:
                node = self._fallback()
                continue
            self.visited.add(node)
            node = handlers[node[0]](*node[1:])
        if self.cursor > _EPS:
            self._emit(0.0, self.cursor, "other", "walk ended early")
        self.segments.reverse()  # chronological order
        return self.segments


def _describe_edge(edge):
    if edge.kernel is not None and edge.tb is not None:
        return "k{}/tb{}".format(edge.kernel, edge.tb)
    if edge.kernel is not None:
        return "k{}".format(edge.kernel)
    if edge.position is not None:
        return "call {}".format(edge.position)
    return edge.kind


def extract_critical_path(stats, journal):
    """Chronological critical-path segments tiling ``[0, makespan]``.

    ``journal`` must be the journal of the run that produced ``stats``.
    """
    return _Walker(stats, journal, derive_provenance(journal)).walk()


def attribution_from_segments(segments, makespan_ns):
    """Fold segments into the component buckets; the residual from
    float summation is absorbed into ``other`` so the components sum to
    the makespan exactly."""
    attribution = {key: 0.0 for key in COMPONENT_KEYS}
    for seg in segments:
        attribution[seg["kind"]] += seg["t1_ns"] - seg["t0_ns"]
    residual = makespan_ns - sum(attribution.values())
    if abs(residual) > 0:
        attribution["other"] += residual
    return attribution


# ----------------------------------------------------------------------
# what-if analysis
# ----------------------------------------------------------------------
def whatif_engine(plan, gpu_config, options, knob):
    """The scalar engine that replays ``plan`` under one what-if knob."""
    from repro.models.base import ExecutionEngine
    from repro.sim.device import UnboundedDevice

    device = None
    if knob in ("zero_launch", "ideal"):
        options = replace(options, launch_overhead_ns=0.0)
    if knob in ("no_dependencies", "ideal"):
        options = replace(options, ignore_dependencies=True)
    if knob in ("infinite_sms", "ideal"):
        device = UnboundedDevice(gpu_config)
    return ExecutionEngine(plan, gpu_config, options, device=device)


def what_if_bounds(plan, gpu_config, options, achieved_makespan_ns,
                   knobs=None):
    """Optimistic speedup bounds from replaying the recorded DAG.

    Each knob re-runs the *timing* engine on the already-analyzed plan
    (no functional simulation, no re-planning) with one relaxation:

    * ``zero_launch``     — launch overhead set to 0;
    * ``infinite_sms``    — occupancy limits removed
      (:class:`~repro.sim.device.UnboundedDevice`);
    * ``no_dependencies`` — TB-level and kernel-level dependency gating
      dropped (in-order completion chains are preserved);
    * ``ideal``           — all three at once.

    Scheduling is not monotone, so a perturbed replay can in corner
    cases finish *later* than the achieved run; bounds are clamped to
    the achieved makespan and flagged ``clamped`` when that happens.
    """
    results = {}
    for knob in knobs or WHATIF_KNOBS:
        bound = whatif_engine(plan, gpu_config, options, knob).run().makespan_ns
        clamped = bound > achieved_makespan_ns
        if clamped:
            bound = achieved_makespan_ns
        results[knob] = {
            "bound_makespan_ns": bound,
            "speedup_bound": (
                achieved_makespan_ns / bound if bound > 0 else 0.0
            ),
            "clamped": clamped,
        }
    return results


# ----------------------------------------------------------------------
# report construction / validation / rendering
# ----------------------------------------------------------------------
def build_report(stats, journal, whatif=False, whatif_knobs=None,
                 max_path_segments=512):
    """The schema-versioned critpath report for one journaled run.

    What-if replays reuse the journal's plan, GPU configuration and
    engine options.
    """
    prov = derive_provenance(journal)
    segments = _Walker(stats, journal, prov).walk()
    makespan = stats.makespan_ns
    attribution = attribution_from_segments(segments, makespan)
    path_counts = {}
    for seg in segments:
        path_counts[seg["kind"]] = path_counts.get(seg["kind"], 0) + 1
    truncated = len(segments) > max_path_segments
    report = {
        "kind": CRITPATH_KIND,
        "schema_version": CRITPATH_SCHEMA_VERSION,
        "workload": stats.application,
        "model": stats.model,
        "makespan_ns": makespan,
        "attribution_ns": attribution,
        "attribution_fraction": {
            key: (value / makespan if makespan > 0 else 0.0)
            for key, value in attribution.items()
        },
        "release_edges": prov.release_edge_counts(),
        "critical_path": {
            "num_segments": len(segments),
            "path_edge_counts": path_counts,
            "truncated": truncated,
            "segments": segments[-max_path_segments:],
        },
    }
    if whatif:
        report["whatif"] = what_if_bounds(
            journal.plan, journal.gpu_config, journal.options, makespan,
            knobs=whatif_knobs,
        )
    return report


_REPORT = {
    "kind": CRITPATH_KIND,
    "schema_version": CRITPATH_SCHEMA_VERSION,
    "workload": str,
    "model": str,
    "makespan_ns": schema.NUMBER,
    "attribution_ns": {key: schema.NUMBER for key in COMPONENT_KEYS},
    "attribution_fraction": dict,
    "critical_path": {"segments": [{
        "kind": schema.one_of(*COMPONENT_KEYS),
        "t0_ns": schema.NUMBER,
        "t1_ns": schema.NUMBER,
    }]},
    "whatif": schema.Optional(schema.Map({
        "bound_makespan_ns": schema.NUMBER,
        "speedup_bound": schema.NUMBER,
    })),
}


def validate_critpath_report(report):
    """Structural + invariant validation; returns problem strings."""
    errors = schema.check(report, _REPORT)
    if errors:
        return errors
    makespan = report["makespan_ns"]
    attribution = report["attribution_ns"]
    unknown = set(attribution) - set(COMPONENT_KEYS)
    if unknown:
        errors.append("attribution_ns: unknown components {}".format(
            sorted(unknown)))
    total = sum(attribution[key] for key in COMPONENT_KEYS)
    tol = max(1e-3, 1e-9 * abs(makespan))
    if abs(total - makespan) > tol:
        errors.append(
            "attribution_ns: components sum to {} != makespan {}".format(
                total, makespan))
    for i, seg in enumerate(report["critical_path"]["segments"]):
        if seg["t1_ns"] + 1e-6 < seg["t0_ns"]:
            errors.append(
                "critical_path.segments[{}]: negative duration".format(i))
    for knob, entry in (report.get("whatif") or {}).items():
        if entry["bound_makespan_ns"] > makespan + tol:
            errors.append("whatif.{}: bound {} exceeds makespan {}".format(
                knob, entry["bound_makespan_ns"], makespan))
    return errors


def checked_report(stats, journal, whatif=False):
    """:func:`build_report`, checked by :func:`validate_critpath_report`
    before anything renders it; a problem raises ``AssertionError``."""
    report = build_report(stats, journal, whatif=whatif)
    schema.assert_valid(
        "generated critpath report", validate_critpath_report(report)
    )
    return report


def _bar(fraction, width=24):
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def format_critpath(report, limit=12):
    """Human-readable tree: attribution, the path tail, what-if bounds."""
    makespan = report["makespan_ns"]
    lines = [
        "critical path: {} x {} — makespan {:.1f}us".format(
            report["workload"], report["model"], makespan / 1e3
        ),
        "  makespan attribution (components sum to the makespan):",
    ]
    fractions = report["attribution_fraction"]
    for key in COMPONENT_KEYS:
        ns = report["attribution_ns"][key]
        frac = fractions[key]
        if ns == 0 and key != "exec":
            continue
        lines.append("    {:10s} {:>12.3f}us  {:6.1%}  {}".format(
            key, ns / 1e3, frac, _bar(frac)))
    edges = report.get("release_edges") or {}
    if edges:
        lines.append("  thread-block release edges (whole run): {}".format(
            ", ".join("{} {}".format(k, edges[k]) for k in sorted(edges))))
    path = report["critical_path"]
    segments = path["segments"]
    lines.append(
        "  path: {} segments{}; the {} closest to the makespan:".format(
            path["num_segments"],
            " (truncated)" if path["truncated"] else "",
            min(limit, len(segments)),
        )
    )
    for seg in segments[len(segments) - min(limit, len(segments)):]:
        lines.append(
            "    {:>12.3f}..{:<12.3f}us  {:10s} {}".format(
                seg["t0_ns"] / 1e3, seg["t1_ns"] / 1e3, seg["kind"],
                seg["via"],
            )
        )
    whatif = report.get("whatif")
    if whatif:
        lines.append("  what-if speedup bounds (optimistic; see docs):")
        for knob in WHATIF_KNOBS:
            entry = whatif.get(knob)
            if entry is None:
                continue
            lines.append(
                "    {:16s} -> {:>12.3f}us  ({:.2f}x bound{})".format(
                    knob,
                    entry["bound_makespan_ns"] / 1e3,
                    entry["speedup_bound"],
                    ", clamped" if entry.get("clamped") else "",
                )
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Perfetto flow-event overlay
# ----------------------------------------------------------------------
def emit_critpath_flow(tracer, segments, flow_id="critpath"):
    """Overlay the critical path onto an existing trace as Chrome flow
    events (``ph: s/t/f``): Perfetto draws arrows connecting the
    makespan-determining chain across the host, kernel, and SM rows.

    Returns the number of flow events emitted.
    """
    if not getattr(tracer, "enabled", False):
        return 0
    points = []
    for seg in segments:
        node_kind = seg.get("node_kind")
        if node_kind == "tb":
            pid, tid = PID_SM, seg.get("sm", 0)
        elif node_kind == "kernel_launch":
            pid, tid = PID_DEVICE, seg.get("kernel", 0)
        elif node_kind in ("call", "host_issue"):
            pid, tid = PID_HOST, seg.get("stream", 0)
        else:
            continue
        points.append((seg["t0_ns"] / 1e3, pid, tid, seg))
    for i, (ts_us, pid, tid, seg) in enumerate(points):
        if i == 0:
            phase = "begin"
        elif i == len(points) - 1:
            phase = "end"
        else:
            phase = "step"
        tracer.flow(
            "critical-path", ts_us, flow_id, phase,
            cat="critpath", pid=pid, tid=tid,
            args={"kind": seg["kind"], "via": seg["via"]},
        )
    return len(points)
