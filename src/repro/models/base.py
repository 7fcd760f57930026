"""Shared discrete-event execution engine.

One engine implements every execution model in the paper; models differ
only in their :class:`EngineOptions`:

==================  ==========  ========  ==========  =========
model               window      fine TB   reorder +   launch
                    (kernels)   deps      non-block   overhead
==================  ==========  ========  ==========  =========
serialized          1           no        no          5 us
ideal               1           no        no          0
prelaunch-only      2+          no        yes         5 us
BlockMaestro        2-4         yes       yes         5 us
CDP (Fig. 14)       1           no        no          3 us
Wireframe (Fig.14)  3           yes       yes         0
==================  ==========  ========  ==========  =========

Semantics implemented here:

* **Host**: issues API calls sequentially; each issue costs
  ``api_call_ns``.  Blocking calls suspend the host until the call
  completes: under baseline semantics that is every memory call and
  synchronize; under BlockMaestro semantics only device-to-host copies
  (the host RAW hazard) block — everything else streams into the queue.
* **Command queue**: commands become *startable* when their
  prerequisites complete.  Strict mode uses full program order (one
  command at a time — the paper's "only one event being processed");
  relaxed mode uses true data dependencies only.
* **Launch engine**: one kernel launch in flight at a time; a launch
  may begin when fewer than ``window`` kernels are un-completed — this
  is kernel pre-launching, and the launch overhead overlaps the
  predecessor's execution.
* **Thread-block scheduler**: dispatches ready TBs to SM slots.
  Coarse mode makes a kernel's TBs ready only when the *previous kernel
  finished all TBs*; fine mode resolves the bipartite graph per TB
  (Dependency List Buffer / Parent Counter Buffer behaviour), with
  producer/consumer priority and the optional grandparent barrier.
* **In-order completion**: a kernel is *completed* (freeing its window
  slot and acting as a barrier for grandparent dependencies) only when
  all its TBs finished and its predecessor completed (Section III-B.1).
"""

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import RuntimePlan
from repro.host.api import (
    DeviceSynchronize,
    EventRecord,
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
    StreamSynchronize,
    StreamWaitEvent,
)

#: barrier-like calls BlockMaestro bypasses: the data dependencies they
#: protect are tracked separately, in hardware
_BYPASSED_BARRIERS = (
    DeviceSynchronize,
    StreamSynchronize,
    EventRecord,
    StreamWaitEvent,
)
from repro.modes import resolve_engine_mode
from repro.obs import NULL_METRICS, NULL_TRACER, PID_RUNTIME
from repro.sim.config import GPUConfig
from repro.sim.device import Device, empty_device_slots
from repro.sim.stats import KernelRecord, RunStats, TBTable


def certify_device_serial(plan, config, options):
    """Prove the plan executes device-serially under ``options``.

    Returns ``None`` when the vectorized tier
    (:mod:`repro.models.fastengine`) applies, else a short reason slug
    (reported as an ``engine.fallback.<reason>`` counter).  Any decline
    means the scalar oracle runs instead, so pathological inputs
    (zero-TB kernels, blocks that never fit) keep their reference
    behavior — including :class:`EngineDrainError`.  Coarse models gate
    a kernel's TBs on the predecessor's drain, so they are
    device-serial for *any* graph shape.
    """
    if options.ignore_dependencies:
        return "ignore_dependencies"
    if options.ready_capacity is not None:
        # Wireframe's pending-buffer cap limits ready-but-undispatched
        # TBs, not resident ones: the buffer refills within a single
        # event time, so occupancy is not simply min(width, capacity)
        return "ready_capacity"
    streams = {call.stream_id for call in plan.order}
    if len(streams) > 1:
        return "multi_stream"
    for kp in plan.kernels:
        if kp.cross_stream_deps:
            return "cross_stream"
        if kp.num_tbs <= 0:
            return "zero_tb_kernel"
        if empty_device_slots(config, kp.threads_per_tb) <= 0:
            return "no_slot_fits"
        if options.fine_grain and kp.chain_prev is not None:
            graph = kp.graph
            if graph is None or not graph.is_fully_connected:
                # 1-to-1 / independent / explicit graphs pipeline parent
                # and child TBs under fine-grain scheduling
                return "fine_grain_graph"
    return None


@dataclass(frozen=True)
class EngineOptions:
    """Model-defining switches for the shared engine."""

    name: str = "engine"
    #: max concurrently launched-but-not-completed kernels (1 = serialized)
    window: int = 1
    #: resolve TB-level dependencies (else coarse kernel-level blocking)
    fine_grain: bool = False
    policy: SchedulingPolicy = SchedulingPolicy.PRODUCER_PRIORITY
    #: command startability: program order (strict) vs true deps
    strict_order: bool = True
    #: host blocking semantics: baseline vs BlockMaestro
    blockmaestro_host: bool = False
    #: kernel launch overhead charged on the launch engine
    launch_overhead_ns: float = 5_000.0
    #: host cost of issuing one API call
    api_call_ns: float = 1_000.0
    #: cap on ready-but-undispatched TBs per kernel (None = unlimited);
    #: models Wireframe's size-constrained pending update buffers
    ready_capacity: Optional[int] = None
    #: count dependency-resolution memory traffic (fine-grain hardware)
    count_dependency_traffic: bool = True
    #: drop TB-level and kernel-level dependency gating (in-order
    #: completion chains are kept); used by the critpath what-if
    #: analyzer's "dependencies dropped" replay — not a real model
    ignore_dependencies: bool = False


class ExecutionModel:
    """Base class: a named engine configuration."""

    def __init__(self, gpu_config: GPUConfig = None):
        self.gpu_config = gpu_config or GPUConfig()

    @property
    def name(self):
        return self.options().name

    def options(self) -> EngineOptions:
        raise NotImplementedError

    def run(
        self, plan: RuntimePlan, tracer=None, metrics=None, journal=None,
        engine=None,
    ) -> RunStats:
        """Simulate ``plan``; pass a tracer/metrics registry to observe.

        ``journal`` may be a :class:`repro.obs.journal.JournalRecorder`;
        the engine then emits every scheduling event, with its release
        edge, into the flight recorder — the one stream critical-path
        and telemetry analysis are derived from.  The tracer and the
        registry see the finished run only: ``repro.obs.render``
        derives the trace events and the ``engine.*`` and ``device.*``
        metrics from its records, so results are identical whether or
        not anything observes them.

        ``engine`` selects the simulation tier
        (:func:`repro.modes.resolve_engine_mode`; ``None`` reads
        ``REPRO_ENGINE``, default ``auto``).  The vectorized tier
        produces bit-identical :class:`RunStats` for the runs
        :func:`certify_device_serial` accepts, and its module is
        imported only for those; a journal-carrying run silently uses
        the scalar reference engine, since the journal hooks per-event
        injection points the batched tier skips.  Each run counts its
        tier (``engine.tier.*``) and any decline (``engine.fallback.*``)
        on ``metrics``, even on a disabled registry.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        metrics = NULL_METRICS if metrics is None else metrics
        options = self.options()
        mode = resolve_engine_mode(engine)
        with tracer.span(
            "model:{}".format(options.name),
            cat="model",
            pid=PID_RUNTIME,
            args={"application": plan.application},
        ):
            fast = None
            if mode != "reference":
                if journal is not None:
                    reason = "observers"
                else:
                    reason = certify_device_serial(
                        plan, self.gpu_config, options
                    )
                if reason is None:
                    # imported lazily: it builds on this module, and a
                    # declined run never needs it
                    from repro.models import fastengine

                    fast = fastengine.run_fast(plan, self.gpu_config, options)
                else:
                    metrics.inc("engine.fallback.%s" % reason)
            if fast is not None:
                metrics.inc("engine.tier.vectorized")
                stats, enqueued_ns, done_ns = fast
                events, pending = 0, 0  # the tier runs no event loop
            else:
                metrics.inc("engine.tier.reference")
                reference = ExecutionEngine(
                    plan, self.gpu_config, options, journal=journal
                )
                stats = reference.run()
                enqueued_ns = reference.call_enqueued_ns
                done_ns = reference.call_done_ns
                events = reference.events_processed
                pending = reference.peak_pending
            if tracer.enabled or metrics.enabled:
                from repro.obs.render import render_run

                render_run(
                    tracer, metrics, plan, stats, enqueued_ns, done_ns,
                    events, pending,
                )
            return stats


# ----------------------------------------------------------------------
@dataclass
class _KernelState:
    plan: object  # KernelPlan
    #: copied from the plan, whose properties derive them from its
    #: launch call and encoding; the TB scheduler reads them on every
    #: event
    index: int = 0
    num_tbs: int = 0
    threads_per_tb: int = 0
    graph: object = None  # the plan's effective BipartiteGraph
    #: the plan's TB durations, read when the kernel turns resident
    durations: Optional[List[float]] = None
    enqueued_ns: Optional[float] = None
    launch_begin_ns: Optional[float] = None
    resident_ns: Optional[float] = None
    input_ready_ns: float = 0.0
    resident: bool = False
    all_tbs_done: bool = False
    all_tbs_done_ns: Optional[float] = None
    completed: bool = False
    completed_ns: Optional[float] = None
    dispatched: int = 0
    finished: int = 0
    ready: deque = field(default_factory=deque)
    pending_counters: Optional[List[int]] = None
    #: per TB of an explicit graph, the finish time of its latest
    #: parent so far: each parent stamps its children as it finishes,
    #: and events run in time order
    parents_done_ns: Optional[List[float]] = None
    #: a TB's ready time is its stamp or the input-ready time, whichever
    #: is later: no grandparent barrier or cross-stream dependency adds
    #: to it
    ready_from_stamps: bool = False
    #: TBs whose counters resolved while the ready queue was at capacity
    deferred_ready: deque = field(default_factory=deque)
    first_tb_start_ns: Optional[float] = None
    made_eligible: bool = False
    #: fine-grain, fully connected: no TB is ready before the parent
    #: kernel drains
    awaits_parent_drain: bool = False


class EngineDrainError(RuntimeError):
    """The event queue drained with work still outstanding.

    Raised instead of silently reporting a truncated makespan when
    thread blocks were never released (dependency cycle, scheduler bug)
    or API calls never completed.  ``details`` is a structured dict:
    ``{"calls": [positions...], "kernels": [{"index", "name",
    "finished", "num_tbs", "unreleased", "stuck_tbs": [{"tb",
    "pending_parents", "unmet_parents"} | {"tb", "reason"}]}]}``.  When
    the run carried a :class:`~repro.obs.journal.JournalRecorder`,
    ``details["journal_tail"]`` additionally holds the last ~20 journal
    events — the flight recorder's black-box tail.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class ExecutionEngine:
    """The discrete-event simulation of one plan under one model.

    The engine owns its event heap.  Events run in ``(time, seq)``
    order, ``seq`` counting schedulings, so same-time events run in the
    order they were scheduled and every run is deterministic.  A TB
    finish is the heap entry ``(finish, seq, kernel state, tb, sm)``,
    which the event loop hands to :meth:`_tb_finished`; every other
    event is ``(time, seq, callback, args)`` (:meth:`schedule`).
    """

    #: events per run before the loop gives up on a livelock
    max_events = 50_000_000

    def __init__(
        self,
        plan: RuntimePlan,
        gpu_config: GPUConfig,
        options: EngineOptions,
        journal=None,
        device=None,
    ):
        self.plan = plan
        self.config = gpu_config
        self.opts = options
        #: observation-only flight recorder of every engine event
        self.journal = journal
        if journal is not None:
            # imported here: an unobserved run builds no release edges
            from repro.obs.journal import EDGE_KINDS, edge_fields

            self._edge_kinds, self._edge_fields = EDGE_KINDS, edge_fields
        #: the event context: what kind of event is currently executing
        #: (the journal's release edges only — never consulted for
        #: scheduling)
        self._ctx = ("host",)
        self._heap = []
        self._seq = itertools.count()
        #: time of the event running now (of the last one, once drained)
        self.now = 0.0
        #: event-loop counts, rendered as ``engine.*`` gauges after the
        #: run (:mod:`repro.obs.render`)
        self.events_processed = 0
        self.peak_pending = 0
        self.device = device if device is not None else Device(gpu_config)
        self.timing = gpu_config.timing
        self.kernels = [
            _KernelState(
                plan=kp, index=kp.kernel_index, num_tbs=kp.num_tbs,
                threads_per_tb=kp.threads_per_tb, graph=kp.graph,
            )
            for kp in plan.kernels
        ]
        self.call_done = [False] * len(plan.order)
        self.call_done_ns = [0.0] * len(plan.order)
        self.call_enqueued = [False] * len(plan.order)
        self.call_enqueued_ns = [0.0] * len(plan.order)
        self.tb_records = TBTable()
        self.counters: Dict[str, float] = {
            "dispatch_passes": 0.0,
            "host_blocks": 0.0,
        }
        #: added to ``counters["dispatch_passes"]`` when the run ends
        self._dispatch_passes = 0
        self._host_cursor = 0
        self._host_time = 0.0
        self._call_waiters: Dict[int, list] = {}
        # per-stream structures: command positions, kernel chains and
        # launch cursors (streams are independent command queues)
        self._stream_positions: Dict[int, List[int]] = {}
        self._position_in_stream: Dict[int, int] = {}
        for position, call in enumerate(plan.order):
            lst = self._stream_positions.setdefault(call.stream_id, [])
            self._position_in_stream[position] = len(lst)
            lst.append(position)
        self._stream_done_prefix: Dict[int, int] = {
            s: 0 for s in self._stream_positions
        }
        self._stream_kernels: Dict[int, List[int]] = {}
        #: each kernel's index in its stream's chain
        self._chain_index: List[int] = []
        for kp in plan.kernels:
            chain = self._stream_kernels.setdefault(kp.stream, [])
            self._chain_index.append(len(chain))
            chain.append(kp.kernel_index)
        self._stream_launch_cursor: Dict[int, int] = {
            s: 0 for s in self._stream_kernels
        }
        #: launched, not yet completed kernels per stream (the pre-launch
        #: window's occupancy)
        self._stream_in_flight: Dict[int, int] = {
            s: 0 for s in self._stream_kernels
        }
        #: per stream, the chain index of the oldest kernel with
        #: undispatched TBs (the producer-priority gate)
        self._stream_undispatched: Dict[int, int] = {
            s: 0 for s in self._stream_kernels
        }
        for stream in self._stream_kernels:
            self._advance_undispatched(stream)
        #: kernel -> the kernels (ascending) with a cross-stream data
        #: dependency on it
        self._cross_stream_dependents: Dict[int, List[int]] = {}
        for kp in plan.kernels:
            for dep in dict.fromkeys(kp.cross_stream_deps):
                self._cross_stream_dependents.setdefault(dep, []).append(
                    kp.kernel_index
                )
        #: enqueued, not yet started non-kernel commands in queue order:
        #: the only commands ``_pump`` can start
        self._waiting_calls: List[int] = []
        #: resident kernels with undispatched TBs, ascending: the TB
        #: scheduler's candidates on every dispatch pass
        self._active: List[int] = []
        self._consumer_first = options.policy.prefers_consumer
        #: a released TB joins its ready queue with nothing to record
        #: and no pending-buffer cap to check
        self._plain_push = options.ready_capacity is None and journal is None

    # ------------------------------------------------------------------
    def _advance_done_prefix(self, stream):
        positions = self._stream_positions[stream]
        cursor = self._stream_done_prefix[stream]
        while cursor < len(positions) and self.call_done[positions[cursor]]:
            cursor += 1
        self._stream_done_prefix[stream] = cursor

    def _advance_undispatched(self, stream):
        chain = self._stream_kernels[stream]
        cursor = self._stream_undispatched[stream]
        while cursor < len(chain):
            ks = self.kernels[chain[cursor]]
            if ks.dispatched < ks.num_tbs:
                break
            cursor += 1
        self._stream_undispatched[stream] = cursor

    def _stream_prefix_done(self, position):
        """All earlier commands of the same stream are complete."""
        stream = self.plan.order[position].stream_id
        return (
            self._stream_done_prefix[stream]
            >= self._position_in_stream[position]
        )

    def _prereqs_done(self, position):
        if self.opts.strict_order:
            # streams are independent queues even in the baseline; each
            # processes strictly in order.  Cross-stream data
            # dependencies (the program's implicit event ordering) must
            # hold in both modes.
            if not self._stream_prefix_done(position):
                return False
            return all(self.call_done[p] for p in self.plan.deps[position])
        for p in self.plan.deps[position]:
            if self.call_done[p]:
                continue
            # BlockMaestro bypasses synchronize/event barriers: the
            # direct data dependencies are tracked separately, so a
            # pending barrier prerequisite does not gate the command.
            if isinstance(self.plan.order[p], _BYPASSED_BARRIERS):
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        if self.journal is not None:
            self.journal.begin(self)
        self._init_fine_grain()
        self.schedule(0.0, self._host_resume)
        makespan = self._run_events()
        self.counters["dispatch_passes"] += self._dispatch_passes
        self.device.finalize(makespan)
        stats = RunStats(
            model=self.opts.name,
            application=self.plan.application,
            makespan_ns=makespan,
            tb_records=self.tb_records,
            kernel_records=self._kernel_records(),
            concurrency_integral=self.device.concurrency_integral,
            busy_ns=self.device.busy_ns,
            kernel_memory_requests=self.plan.total_kernel_requests(),
            dependency_memory_requests=(
                self.plan.total_dependency_requests()
                if self.opts.fine_grain and self.opts.count_dependency_traffic
                else 0.0
            ),
            graph_plain_bytes=self.plan.graph_plain_bytes,
            graph_encoded_bytes=self.plan.graph_encoded_bytes,
            counters=dict(self.counters),
        )
        self._check_all_complete()
        stats.validate_invariants()
        if self.journal is not None:
            self.journal.finalize(self)
        return stats

    def schedule(self, time, callback, *args):
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule event at {} before now {}".format(
                    time, self.now
                )
            )
        heap = self._heap
        heappush(heap, (float(time), next(self._seq), callback, args))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def _run_events(self):
        """Run events until the heap drains; returns the last one's time.

        Raises :class:`RuntimeError` on the event past ``max_events``.
        """
        heap = self._heap
        pop = heappop
        tb_finished = self._tb_finished
        max_events = self.max_events
        count = 0
        try:
            while heap:
                entry = pop(heap)
                count += 1
                if len(entry) == 5:
                    self.now, _seq, ks, tb, sm = entry
                    tb_finished(ks, tb, sm)
                else:
                    self.now, _seq, callback, args = entry
                    callback(*args)
                if count > max_events:
                    raise RuntimeError(
                        "event cap exceeded; simulation livelock?"
                    )
        finally:
            self.events_processed += count
        return self.now

    def _journal_emit(self, kind, **fields):
        """Emit one flight-recorder event at the current engine time.

        Release edges (:data:`~repro.obs.journal.EDGE_KINDS`) are built
        here from the event context, so an unobserved run builds none.
        Observation only: the journal never feeds back into scheduling,
        so simulated signatures are byte-identical with it on or off.
        """
        if self.journal is None:
            return
        if kind in self._edge_kinds:
            fields["edge"] = self._edge_fields(self._ctx)
        self.journal.emit(kind, self.now, **fields)

    def _check_all_complete(self):
        pending_calls = [p for p, done in enumerate(self.call_done) if not done]
        stuck_kernels = [ks for ks in self.kernels if not ks.completed]
        if not pending_calls and not stuck_kernels:
            return
        raise self._drain_error(pending_calls, stuck_kernels)

    def _drain_error(self, pending_calls, stuck_kernels):
        """Structured diagnosis of a drained-but-incomplete run: name
        the stuck thread blocks and their unmet parents."""
        # the queue drained, so every dispatched TB has finished
        finished = {}
        records = self.tb_records
        for ki, tb in zip(records.kernel_index, records.tb_id):
            finished.setdefault(ki, set()).add(tb)
        kernel_rows = []
        for ks in stuck_kernels:
            ki = ks.plan.kernel_index
            done = finished.get(ki, ())
            unreleased = [
                tb for tb in range(ks.plan.num_tbs) if tb not in done
            ]
            prev = ks.plan.chain_prev
            parents_done = finished.get(prev, ()) if prev is not None else None
            stuck_tbs = []
            for tb in unreleased[:8]:
                if ks.pending_counters is not None:
                    unmet = [
                        p for p in ks.graph.parents_of(tb)
                        if parents_done is None or p not in parents_done
                    ]
                    stuck_tbs.append({
                        "tb": tb,
                        "pending_parents": ks.pending_counters[tb],
                        "unmet_parents": unmet[:8],
                    })
                elif not ks.resident:
                    stuck_tbs.append(
                        {"tb": tb, "reason": "kernel never became resident"}
                    )
                else:
                    stuck_tbs.append(
                        {"tb": tb, "reason": "kernel-level gate never opened"}
                    )
            kernel_rows.append({
                "index": ki,
                "name": ks.plan.name,
                "finished": ks.finished,
                "num_tbs": ks.plan.num_tbs,
                "unreleased": len(unreleased),
                "stuck_tbs": stuck_tbs,
            })
        bits = []
        for row in kernel_rows[:4]:
            desc = "k{} {} ({}/{} TBs finished, {} unreleased".format(
                row["index"], row["name"], row["finished"], row["num_tbs"],
                row["unreleased"],
            )
            if row["stuck_tbs"]:
                first = row["stuck_tbs"][0]
                if "unmet_parents" in first:
                    desc += "; tb {} waits on {} parents, e.g. {}".format(
                        first["tb"], first["pending_parents"],
                        first["unmet_parents"],
                    )
                else:
                    desc += "; " + first["reason"]
            bits.append(desc + ")")
        if len(kernel_rows) > 4:
            bits.append("... {} more kernels".format(len(kernel_rows) - 4))
        if pending_calls:
            bits.append("calls {} incomplete".format(pending_calls[:6]))
        details = {"calls": pending_calls, "kernels": kernel_rows}
        if self.journal is not None:
            # the flight recorder's black-box tail: the last events the
            # engine processed before stalling, so the report is
            # self-contained without re-running under a debugger
            tail = self.journal.tail(20)
            details["journal_tail"] = tail
            bits.append("journal tail attached ({} events)".format(len(tail)))
        return EngineDrainError(
            "event queue drained with work still outstanding: "
            + "; ".join(bits),
            details=details,
        )

    def _kernel_records(self):
        records = []
        for ks in self.kernels:
            records.append(
                KernelRecord(
                    index=ks.plan.kernel_index,
                    name=ks.plan.name,
                    num_tbs=ks.plan.num_tbs,
                    queued_ns=ks.enqueued_ns or 0.0,
                    launch_begin_ns=ks.launch_begin_ns or 0.0,
                    resident_ns=ks.resident_ns or 0.0,
                    first_tb_start_ns=ks.first_tb_start_ns or 0.0,
                    all_tbs_done_ns=ks.all_tbs_done_ns or 0.0,
                    completed_ns=ks.completed_ns or 0.0,
                    stream=ks.plan.stream,
                )
            )
        return records

    def _init_fine_grain(self):
        if self.opts.ignore_dependencies:
            return  # what-if replay: no parent counters, no gating
        for ks in self.kernels:
            graph = ks.graph
            if graph is None or graph.is_independent:
                continue
            if graph.is_fully_connected:
                ks.awaits_parent_drain = self.opts.fine_grain
                continue
            # times are non-negative, so a TB without parents keeps its
            # input-ready time
            ks.parents_done_ns = [0.0] * graph.num_children
            plan = ks.plan
            ks.ready_from_stamps = not plan.cross_stream_deps and not (
                plan.grandparent_barrier
                and plan.chain_grandparent is not None
            )
            if self.opts.fine_grain:
                ks.pending_counters = list(graph.parent_counts)

    # ------------------------------------------------------------------
    # host
    # ------------------------------------------------------------------
    def _host_resume(self):
        while self._host_cursor < len(self.plan.order):
            position = self._host_cursor
            call = self.plan.order[position]
            issue_at = max(self._host_time, self.now)
            enqueue_at = issue_at + self.opts.api_call_ns
            self._host_cursor += 1
            self._host_time = enqueue_at
            self._journal_emit(
                "host_issue",
                position=position,
                op=call.trace_name,
                stream=call.stream_id,
                issue_ns=issue_at,
                blocking=self._host_blocks_on(call),
            )
            self.schedule(enqueue_at, self._enqueue, position)
            if self._host_blocks_on(call):
                self.counters["host_blocks"] += 1
                # suspend: resume when this call completes
                self._wait_for_call(position, self._host_unblock)
                return

    def _host_blocks_on(self, call):
        if self.opts.blockmaestro_host:
            return call.blocks_host_blockmaestro
        return call.blocks_host_baseline

    def _host_unblock(self, position):
        self._host_time = max(self._host_time, self.call_done_ns[position])
        self._host_resume()

    def _wait_for_call(self, position, callback):
        if self.call_done[position]:
            callback(position)
            return
        self._call_waiters.setdefault(position, []).append(callback)

    # ------------------------------------------------------------------
    # command queue
    # ------------------------------------------------------------------
    def _enqueue(self, position):
        self._ctx = ("enqueue", position)
        self.call_enqueued[position] = True
        self.call_enqueued_ns[position] = self.now
        call = self.plan.order[position]
        self._journal_emit(
            "call_enqueue",
            position=position,
            op=call.trace_name,
            stream=call.stream_id,
        )
        if isinstance(call, KernelLaunchCall):
            # kernels go through the launch engine
            ki = self.plan.kernel_at_position[position]
            self.kernels[ki].enqueued_ns = self.now
        else:
            insort(self._waiting_calls, position)
        self._pump()

    def _pump(self):
        """Start every startable command; called on all state changes.

        Starting a command only schedules its completion, so it cannot
        make another command startable: one visit of the waiting
        commands, in queue order, starts them all.
        """
        waiting = []
        for position in self._waiting_calls:
            if self._prereqs_done(position):
                self._start_command(position, self.plan.order[position])
            else:
                waiting.append(position)
        self._waiting_calls = waiting
        self._try_launch()
        self._dispatch()

    def _start_command(self, position, call):
        now = self.now
        self._journal_emit(
            "call_start",
            position=position,
            op=call.trace_name,
            stream=call.stream_id,
        )
        if isinstance(call, MallocCall):
            duration = self.timing.malloc_ns
        elif isinstance(call, (MemcpyH2D, MemcpyD2H)):
            duration = self.timing.memcpy_ns(call.bytes)
        else:  # synchronizes, events, waits: bookkeeping only
            duration = 0.0
        self.schedule(
            now + duration, self._scheduled_complete, position
        )

    def _scheduled_complete(self, position):
        self._ctx = ("call", position)
        self._complete_call(position)

    def _complete_call(self, position):
        if self.call_done[position]:
            return
        self.call_done[position] = True
        self.call_done_ns[position] = self.now
        call = self.plan.order[position]
        self._journal_emit(
            "call_complete",
            position=position,
            op=call.trace_name,
            stream=call.stream_id,
        )
        self._advance_done_prefix(self.plan.order[position].stream_id)
        for callback in self._call_waiters.pop(position, ()):  # host resume
            callback(position)
        self._pump()

    # ------------------------------------------------------------------
    # launch engine
    # ------------------------------------------------------------------
    def _try_launch(self):
        """Launch every queued kernel the pre-launch windows allow.

        Launches begin strictly in queue order *within each stream*, but
        multiple launches may be in flight at once: pre-launching the
        next w-1 kernels of a stream is what masks their launch
        overheads behind the current kernel's execution (paper Fig. 2b).
        Streams launch independently.
        """
        for stream, chain in self._stream_kernels.items():
            while True:
                cursor = self._stream_launch_cursor[stream]
                if cursor >= len(chain):
                    break
                ki = chain[cursor]
                ks = self.kernels[ki]
                position = ks.plan.order_position
                if not self.call_enqueued[position]:
                    break
                if not self._prereqs_done_for_kernel(position):
                    break
                if self._stream_in_flight[stream] >= self.opts.window:
                    break
                self._stream_in_flight[stream] += 1
                ks.launch_begin_ns = self.now
                ks.input_ready_ns = self._input_ready_ns(position)
                self._journal_emit(
                    "kernel_launch", kernel=ki, name=ks.plan.name,
                    stream=stream,
                )
                self._stream_launch_cursor[stream] = cursor + 1
                self.schedule(
                    self.now + self.opts.launch_overhead_ns,
                    self._launch_done, ki,
                )

    def _prereqs_done_for_kernel(self, position):
        """Kernel launch gating.

        Strict mode: every earlier command must be complete (the
        serialized baseline).  Relaxed mode: only non-kernel true
        dependencies gate the launch — dependencies on earlier *kernels*
        are resolved by the TB scheduler, which is exactly what makes
        pre-launching legal.
        """
        if self.opts.strict_order:
            if not self._stream_prefix_done(position):
                return False
            return all(self.call_done[p] for p in self.plan.deps[position])
        for p in self.plan.deps[position]:
            if isinstance(
                self.plan.order[p],
                (KernelLaunchCall,) + _BYPASSED_BARRIERS,
            ):
                continue
            if not self.call_done[p]:
                return False
        return True

    def _input_ready_ns(self, position):
        """Completion time of the kernel's non-kernel *data*
        prerequisites (device-side data availability, used for stall
        accounting).  Kernels are handled by the TB-level graph;
        barriers are ordering, not data, so they do not count."""
        ready = 0.0
        for p in self.plan.deps[position]:
            if isinstance(
                self.plan.order[p],
                (KernelLaunchCall,) + _BYPASSED_BARRIERS,
            ):
                continue
            ready = max(ready, self.call_done_ns[p])
        return ready

    def _launch_done(self, ki):
        self._ctx = ("launch", ki)
        ks = self.kernels[ki]
        ks.durations = ks.plan.tb_durations_ns()
        ks.resident = True
        ks.resident_ns = self.now
        if ks.dispatched < ks.num_tbs:
            insort(self._active, ki)
        self._journal_emit("kernel_resident", kernel=ki, name=ks.plan.name)
        self._refresh_ready(ki)
        self._pump()

    # ------------------------------------------------------------------
    # TB readiness
    # ------------------------------------------------------------------
    def _tb_eligible(self, ki):
        """Kernel-level gate before any of its TBs may run."""
        ks = self.kernels[ki]
        if not ks.resident:
            return False
        if self.opts.ignore_dependencies:
            return True
        # cross-stream data dependencies: coarse completion barriers
        for dep in ks.plan.cross_stream_deps:
            if not self.kernels[dep].completed:
                return False
        if self.opts.fine_grain:
            grandparent = ks.plan.chain_grandparent
            if ks.plan.grandparent_barrier and grandparent is not None:
                if not self.kernels[grandparent].completed:
                    return False
            return True
        # coarse: the same-stream predecessor must have finished its TBs
        prev = ks.plan.chain_prev
        if prev is None:
            return True
        return self.kernels[prev].all_tbs_done

    def _refresh_ready(self, ki):
        """(Re)compute which TBs of kernel ``ki`` are ready to dispatch."""
        ks = self.kernels[ki]
        if not self._tb_eligible(ki):
            return
        graph = ks.graph
        if not ks.made_eligible:
            ks.made_eligible = True
            if self.opts.ignore_dependencies:
                self._push_all_tbs(ks)
            elif self.opts.fine_grain and graph is not None:
                if graph.is_fully_connected:
                    # children wait for the whole parent kernel
                    if not self.kernels[ks.plan.chain_prev].all_tbs_done:
                        ks.made_eligible = False
                    else:
                        self._push_all_tbs(ks)
                elif graph.is_independent:
                    self._push_all_tbs(ks)
                else:
                    for tb in range(ks.num_tbs):
                        if ks.pending_counters[tb] == 0:
                            self._push_ready(ks, tb)
            else:
                self._push_all_tbs(ks)
        self._drain_deferred(ks)

    def _push_all_tbs(self, ks):
        for tb in range(ks.num_tbs):
            self._push_ready(ks, tb)

    def _tracked_tasks(self, ks):
        """Tasks holding a dependency-tracking entry: ready to run or
        currently running (Wireframe's pending-update-buffer occupancy)."""
        return len(ks.ready) + (ks.dispatched - ks.finished)

    def _push_ready(self, ks, tb):
        if (
            self.opts.ready_capacity is not None
            and self._tracked_tasks(ks) >= self.opts.ready_capacity
        ):
            ks.deferred_ready.append(tb)
            return
        ks.ready.append(tb)
        if self.journal is not None:
            self._journal_emit("tb_ready", kernel=ks.plan.kernel_index, tb=tb)

    def _drain_deferred(self, ks):
        capacity = self.opts.ready_capacity
        while ks.deferred_ready and (
            capacity is None or self._tracked_tasks(ks) < capacity
        ):
            tb = ks.deferred_ready.popleft()
            ks.ready.append(tb)
            if self.journal is not None:
                self._journal_emit(
                    "tb_ready", kernel=ks.plan.kernel_index, tb=tb
                )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _producer_gate_ok(self, ki):
        """Producer priority: a kernel's TBs may dispatch only once every
        older kernel *of its stream* has scheduled all of its TBs
        (streams contend for slots but do not gate each other).  Streams
        launch in chain order, so those older kernels are all launched."""
        if self._consumer_first:
            return True
        stream = self.kernels[ki].plan.stream
        return self._stream_undispatched[stream] >= self._chain_index[ki]

    def _dispatch(self):
        self._dispatch_passes += 1
        active = self._active
        if not active:
            return
        now = self.now
        records = self.tb_records
        heap = self._heap
        seq = self._seq
        try_place = self.device.try_place
        # a snapshot: kernels leave ``_active`` at their last dispatch
        for ki in active[::-1] if self._consumer_first else active[:]:
            ks = self.kernels[ki]
            ready = ks.ready
            if not ready or not self._producer_gate_ok(ki):
                continue
            threads = ks.threads_per_tb
            durations = ks.durations
            stamps = ks.parents_done_ns if ks.ready_from_stamps else None
            input_ready = ks.input_ready_ns
            while ready:
                sm = try_place(threads, now)
                if sm is None:
                    break  # saturated for this block size; try others
                tb = ready.popleft()
                if self.journal is not None:
                    self._journal_emit("tb_dispatch", kernel=ki, tb=tb, sm=sm)
                if ks.deferred_ready:
                    self._drain_deferred(ks)
                ks.dispatched += 1
                if ks.dispatched == ks.num_tbs:
                    active.remove(ki)
                    self._advance_undispatched(ks.plan.stream)
                if ks.first_tb_start_ns is None:
                    ks.first_tb_start_ns = now
                finish = now + durations[tb]
                if stamps is None:
                    ready_ns = self._tb_ready_time(ks, tb)
                else:
                    ready_ns = stamps[tb]
                    if input_ready > ready_ns:
                        ready_ns = input_ready
                records.kernel_index.append(ki)
                records.tb_id.append(tb)
                records.ready_ns.append(ready_ns)
                records.start_ns.append(now)
                records.finish_ns.append(finish)
                records.sm.append(sm)
                # durations are finite and non-negative (the plan checks
                # them): never in the past
                heappush(heap, (finish, next(seq), ks, tb, sm))
        # only pushes since the pass began: the heap is deepest now
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def _tb_ready_time(self, ks, tb):
        """Data-availability time for stall statistics (model independent:
        when were this block's dependencies actually satisfied?)."""
        ready = ks.input_ready_ns
        if self.opts.ignore_dependencies:
            return ready  # only input data gates blocks in this replay
        plan = ks.plan
        stamps = ks.parents_done_ns
        if stamps is not None:
            if stamps[tb] > ready:
                ready = stamps[tb]
        elif (
            plan.chain_prev is not None
            and ks.graph is not None
            and ks.graph.is_fully_connected
        ):
            parent = self.kernels[plan.chain_prev]
            ready = max(ready, parent.all_tbs_done_ns or ready)
        grandparent = plan.chain_grandparent
        if plan.grandparent_barrier and grandparent is not None:
            older = self.kernels[grandparent]
            if older.completed_ns is not None:
                ready = max(ready, older.completed_ns)
        for dep in plan.cross_stream_deps:
            dep_done = self.kernels[dep].completed_ns
            if dep_done is not None:
                ready = max(ready, dep_done)
        return ready

    # ------------------------------------------------------------------
    def _tb_finished(self, ks, tb, sm):
        now = self.now
        ki = ks.index
        journal = self.journal
        if journal is not None:
            self._ctx = ("tb_finish", ki, tb)
            self._journal_emit("tb_finish", kernel=ki, tb=tb, sm=sm)
        self.device.release(sm, ks.threads_per_tb, now)
        ks.finished += 1
        if ks.deferred_ready:
            self._drain_deferred(ks)  # a tracking entry freed up
        child_ki = ks.plan.chain_next
        if child_ki is not None:
            child = self.kernels[child_ki]
            stamps = child.parents_done_ns
            if stamps is not None:
                # dependency list lookup: stamp each child's ready time
                # and, under fine-grain scheduling, resolve its parent
                # counter
                counters = child.pending_counters
                if counters is None:
                    for c in child.graph.children_of[tb]:
                        stamps[c] = now
                else:
                    for c in child.graph.children_of[tb]:
                        stamps[c] = now
                        counters[c] -= 1
                        if counters[c] == 0 and child.made_eligible:
                            if self._plain_push:
                                child.ready.append(c)
                            else:
                                self._push_ready(child, c)
        if ks.finished == ks.num_tbs:
            ks.all_tbs_done = True
            ks.all_tbs_done_ns = now
            self._journal_emit("kernel_drain", kernel=ki, name=ks.plan.name)
            self._on_all_tbs_done(ki)
            if journal is not None:
                self._ctx = ("tb_finish", ki, tb)  # leaving the cascade
        if child_ki is not None and child.resident:
            # a refresh changes nothing when nothing is deferred and the
            # child is eligible already or waits for this whole kernel;
            # a child not resident yet is not eligible at all
            if child.deferred_ready or not (
                child.made_eligible
                or (child.awaits_parent_drain and not ks.all_tbs_done)
            ):
                self._refresh_ready(child_ki)
        self._dispatch()

    def _on_all_tbs_done(self, ki):
        # in-order completion cascade along the stream's kernel chain
        idx = ki
        while idx is not None:
            ks = self.kernels[idx]
            if ks.completed or not ks.all_tbs_done:
                break
            prev = ks.plan.chain_prev
            if prev is not None and not self.kernels[prev].completed:
                break
            ks.completed = True
            ks.completed_ns = self.now
            self._stream_in_flight[ks.plan.stream] -= 1
            self._ctx = ("completion", idx)
            self._journal_emit(
                "kernel_complete", kernel=idx, name=ks.plan.name
            )
            self._complete_call(ks.plan.order_position)
            # downstream kernels gated on this completion may unblock:
            # same-stream descendants (grandparent barriers, coarse
            # blocking) and cross-stream dependents
            child = ks.plan.chain_next
            hops = 0
            while child is not None and hops < 2:
                self._refresh_ready(child)
                child = self.kernels[child].plan.chain_next
                hops += 1
            for dependent in self._cross_stream_dependents.get(idx, ()):
                self._refresh_ready(dependent)
            idx = ks.plan.chain_next
        self._pump()
