"""Vectorized fast path for the shared discrete-event execution engine.

:class:`repro.models.base.ExecutionEngine` — the scalar reference — runs
every API call, kernel launch, and thread-block lifecycle through one
event heap.  Its bookkeeping is incremental, but every thread block
still costs interpreter work: a placement on the least-loaded SM, a TB
record, a finish event, a release, and a dispatch pass over the
resident kernels.  That is exact, and since the analysis fast path
(:mod:`repro.analysis.fastpath`) removed graph construction from the
critical path, it dominates the wall-clock of
``run``/``bench``/``experiments``/``fuzz``.

This module computes the *same* :class:`~repro.sim.stats.RunStats` more
cheaply for plans it can prove *device-serial* — at most one kernel's
thread blocks resident at any instant — and declines (caller falls back
to the scalar oracle) whenever it cannot.  Under a device-serial plan
the device is exactly a FIFO queue over ``W`` indistinguishable slots:
the scalar per-event heap loop collapses to one numpy pass for the
duration vectors plus an O(N log W) slot sweep whose pops replay the
reference event order (ties broken by dispatch sequence, like the event
queue's ``(time, seq)`` ordering).  Host issue, command start, launch
window, and in-order completion reduce to a forward max/plus scan over
the program order.

The tier replicates the reference bit-for-bit, including the float
accumulation order of the device concurrency integral (one ``dt``
advance per distinct event time), SM placement indices (round-robin
layering; a freed slot's SM is re-won by the next dispatch), and the
``min(ready, start)`` clamp on per-TB ready times.  Differential tests
(``tests/integration/test_differential_engine.py``) and the fuzz
harness hold it to byte-identical simulated signatures against the
oracle, with and without duration jitter.

Device-serial certificate (the engine analogue of a proven Table-I
pattern): single stream, no cross-stream dependencies, no
``ignore_dependencies`` replay, no ``ready_capacity`` cap (Wireframe's
pending buffers refill at event granularity, which only the event loop
models), every kernel has at least one TB and a positive per-device
slot count, and — under fine-grain scheduling — every chained kernel
carries a fully-connected graph (1-to-1, independent, and explicit
graphs pipeline parent and child TBs, which only the event loop
models).  Coarse models gate a kernel's TBs on the predecessor's
drain, so they are device-serial for *any* graph shape.

Tier selection is per-run via ``REPRO_ENGINE`` (see
:func:`resolve_engine_mode`) and reported through ``engine.tier.*``
metrics counters and the BENCH report's ``engine`` section.  Whenever a
journal is attached the dispatch seam in
:meth:`repro.models.base.ExecutionModel.run` keeps the scalar engine,
since the journal hooks per-event injection points the batched tier
skips.
"""

import heapq
import os

try:  # numpy accelerates the duration vectors; optional
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None

from repro.host.api import (
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
)
from repro.models.base import (
    _BYPASSED_BARRIERS,
    emit_engine_trace,
    first_bad_duration,
    record_engine_metrics,
)
from repro.obs import PID_DEVICE
from repro.sim.device import empty_device_slots
from repro.sim.stats import KernelRecord, RunStats, TBRecord

#: Valid engine modes (``resolve_engine_mode`` normalizes aliases).
ENGINE_MODES = ("auto", "vectorized", "reference")

#: Environment override consulted when no explicit mode is configured —
#: this is how bench worker processes flip the fast engine off to
#: capture reference timings.
ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine_mode(value=None):
    """Normalize an engine mode, consulting ``REPRO_ENGINE``.

    ``None`` reads the environment (default ``auto``); ``off``/
    ``scalar``/``oracle`` alias ``reference``; ``on`` aliases ``auto``.
    """
    if value is None:
        value = os.environ.get(ENGINE_ENV) or "auto"
    mode = str(value).strip().lower().replace("-", "_")
    if mode in ("off", "scalar", "oracle"):
        mode = "reference"
    elif mode == "on":
        mode = "auto"
    if mode not in ENGINE_MODES:
        raise ValueError(
            "unknown engine mode %r (expected one of %s)"
            % (value, ", ".join(ENGINE_MODES))
        )
    return mode


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------
def certify_device_serial(plan, config, options):
    """Prove the plan executes device-serially under ``options``.

    Returns ``None`` when the fast tier applies, else a short reason slug
    (reported as an ``engine.fallback.<reason>`` counter).  Any decline
    means the scalar oracle runs instead, so pathological inputs (zero-TB
    kernels, blocks that never fit) keep their reference behavior —
    including :class:`~repro.models.base.EngineDrainError`.
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


def _duration_vector(kp):
    """All TB durations of one kernel, bit-identical to
    ``KernelPlan.tb_duration_ns`` evaluated per block."""
    if (
        np is None
        or not kp._jitter
        or kp._duration_fn is not None
        or kp._duration_scale_fn is not None
    ):
        return kp.tb_durations_ns()
    n = kp.num_tbs
    base = kp._base_duration_ns
    jitter = kp._jitter
    # vectorized jitter_factor: same integer hash, same float op order
    tb = np.arange(n, dtype=np.uint64)
    h = (np.uint64(kp.kernel_index) * np.uint64(0x9E3779B1)
         + tb * np.uint64(0x85EBCA77) + np.uint64(0x165667B1)) \
        & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(0x045D9F3B)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    unit = h.astype(np.float64) / float(1 << 32)
    factor = 1.0 + jitter * (2.0 * unit - 1.0)
    return (base * factor).tolist()


# ----------------------------------------------------------------------
# the fast run
# ----------------------------------------------------------------------
class _TierDecline(Exception):
    """Internal: the tier discovered mid-flight it cannot replicate the
    reference (a NaN, infinite or negative TB duration, which the
    reference reports by kernel and TB)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def run_fast(plan, config, options, tracer, metrics):
    """Run ``plan`` through the vectorized tier.

    Returns the :class:`RunStats` (bit-identical to the scalar oracle)
    or ``None`` when the tier declines — the caller then falls back to
    the reference engine.
    """
    reason = certify_device_serial(plan, config, options)
    if reason is not None:
        metrics.inc("engine.fallback.%s" % reason)
        return None
    try:
        stats, extras = _simulate(plan, config, options, tracer)
    except _TierDecline as decline:
        metrics.inc("engine.fallback.%s" % decline.reason)
        return None
    metrics.inc("engine.tier.vectorized")
    _finalize_device_metrics(metrics, extras)
    emit_engine_trace(
        tracer, plan, extras["call_enqueued_ns"], extras["call_done_ns"],
        stats,
    )
    record_engine_metrics(
        metrics, stats, events_processed=0, peak_pending=0,
        counters=stats.counters,
    )
    return stats


def _finalize_device_metrics(metrics, extras):
    """Mirror ``Device.finalize``'s gauges for the batched run."""
    if not metrics.enabled:
        return
    metrics.set_gauge("device.peak_tb_concurrency", extras["peak"])
    metrics.set_gauge("device.busy_ns", extras["busy_ns"])
    metrics.set_gauge(
        "device.concurrency_integral", extras["concurrency_integral"]
    )
    metrics.inc("device.tb_placements", extras["placements"])


def _build_parents_of(graph):
    inverse = [[] for _ in range(graph.num_children)]
    for p, children in enumerate(graph.children_of):
        for c in children:
            inverse[c].append(p)
    return inverse


def _simulate(plan, config, options, tracer):
    """Forward max/plus scan over the program order.

    Returns ``(stats, extras)`` where ``extras`` carries the call
    timestamp arrays and device gauge values.
    """
    timing = config.timing
    order = plan.order
    api = options.api_call_ns
    strict = options.strict_order
    window = options.window
    num_sms = config.num_sms
    trace_occupancy = tracer.enabled

    num_calls = len(order)
    call_enqueued_ns = [0.0] * num_calls
    call_done_ns = [0.0] * num_calls

    kernels = plan.kernels
    num_kernels = len(kernels)
    launch_begin = [0.0] * num_kernels
    resident = [0.0] * num_kernels
    input_ready = [0.0] * num_kernels
    enqueued = [0.0] * num_kernels
    first_start = [0.0] * num_kernels
    all_done = [0.0] * num_kernels
    completed = [0.0] * num_kernels
    tb_finishes = [None] * num_kernels

    tb_records = []
    host_time = 0.0
    run_max_done = 0.0
    host_blocks = 0
    chain_seen = 0  # kernels processed so far == chain position (1 stream)

    # device accounting (replicates Device._advance's accumulation:
    # one dt per distinct event time, running taken before the events)
    integral = 0.0
    busy = 0.0
    peak = 0
    placements = 0
    occupancy_samples = [] if trace_occupancy else None

    for position, call in enumerate(order):
        enq = host_time + api
        call_enqueued_ns[position] = enq
        host_time = enq
        if isinstance(call, KernelLaunchCall):
            ki = plan.kernel_at_position[position]
            kp = kernels[ki]
            enqueued[ki] = enq
            # launch gating: enqueue, prerequisites, stream launch order,
            # and the pre-launch window (completion of kernel cursor-w)
            gate = enq
            ready_in = 0.0
            if strict:
                if run_max_done > gate:
                    gate = run_max_done
            for q in plan.deps[position]:
                if isinstance(
                    order[q], (KernelLaunchCall,) + _BYPASSED_BARRIERS
                ):
                    continue
                if call_done_ns[q] > ready_in:
                    ready_in = call_done_ns[q]
                if not strict and call_done_ns[q] > gate:
                    gate = call_done_ns[q]
            if chain_seen >= window:
                prior = completed[chain_seen - window]
                if prior > gate:
                    gate = prior
            if chain_seen > 0 and launch_begin[chain_seen - 1] > gate:
                gate = launch_begin[chain_seen - 1]
            launch_begin[ki] = gate
            input_ready[ki] = ready_in
            res = gate + options.launch_overhead_ns
            resident[ki] = res

            # TB-phase gate: device-serial eligibility time
            t0 = res
            prev = kp.chain_prev
            if prev is not None and all_done[prev] > t0:
                t0 = all_done[prev]
            if options.fine_grain:
                gp = kp.chain_grandparent
                if (
                    kp.grandparent_barrier
                    and gp is not None
                    and completed[gp] > t0
                ):
                    t0 = completed[gp]
            first_start[ki] = t0

            n = kp.num_tbs
            width = empty_device_slots(config, kp.threads_per_tb)
            starts, finishes, sms, drained = _slot_sweep(
                t0, n, width, _duration_vector(kp), num_sms
            )
            tb_finishes[ki] = finishes
            all_done[ki] = drained
            done = drained
            if prev is not None and completed[prev] > done:
                done = completed[prev]
            completed[ki] = done
            call_done_ns[position] = done
            chain_seen += 1

            # device accounting: walk the kernel's concurrency steps.
            # Peak is exact wave math: the device never holds more than
            # min(N, W_eff) of this kernel's blocks (release/place pairs
            # replace one-for-one), and it holds exactly that many in
            # the first wave.
            integral, busy = _accumulate_device(
                t0, starts, finishes, integral, busy, occupancy_samples,
            )
            k_peak = n if n < width else width
            if k_peak > peak:
                peak = k_peak
            placements += n

            # per-TB records (dispatch order == TB id under FIFO ready)
            _append_records(
                tb_records, plan, kernels, ki, kp,
                input_ready[ki], all_done, completed,
                starts, finishes, sms, tb_finishes,
            )
        else:
            if strict:
                start = enq if run_max_done < enq else run_max_done
            else:
                start = enq
                for q in plan.deps[position]:
                    if isinstance(order[q], _BYPASSED_BARRIERS):
                        continue
                    if call_done_ns[q] > start:
                        start = call_done_ns[q]
            if isinstance(call, MallocCall):
                duration = timing.malloc_ns
            elif isinstance(call, (MemcpyH2D, MemcpyD2H)):
                duration = timing.memcpy_ns(call.bytes)
            else:  # synchronizes, events, waits: bookkeeping only
                duration = 0.0
            call_done_ns[position] = start + duration
        if call_done_ns[position] > run_max_done:
            run_max_done = call_done_ns[position]
        if (
            call.blocks_host_blockmaestro
            if options.blockmaestro_host
            else call.blocks_host_baseline
        ):
            host_blocks += 1
            if call_done_ns[position] > host_time:
                host_time = call_done_ns[position]

    makespan = run_max_done
    kernel_records = [
        KernelRecord(
            index=kp.kernel_index,
            name=kp.name,
            num_tbs=kp.num_tbs,
            queued_ns=enqueued[ki] or 0.0,
            launch_begin_ns=launch_begin[ki] or 0.0,
            resident_ns=resident[ki] or 0.0,
            first_tb_start_ns=first_start[ki] or 0.0,
            all_tbs_done_ns=all_done[ki] or 0.0,
            completed_ns=completed[ki] or 0.0,
            stream=kp.stream,
        )
        for ki, kp in enumerate(kernels)
    ]
    stats = RunStats(
        model=options.name,
        application=plan.application,
        makespan_ns=makespan,
        tb_records=tb_records,
        kernel_records=kernel_records,
        concurrency_integral=integral,
        busy_ns=busy,
        kernel_memory_requests=plan.total_kernel_requests(),
        dependency_memory_requests=(
            plan.total_dependency_requests()
            if options.fine_grain and options.count_dependency_traffic
            else 0.0
        ),
        graph_plain_bytes=plan.graph_plain_bytes,
        graph_encoded_bytes=plan.graph_encoded_bytes,
        counters={
            "dispatch_passes": 0.0,  # no per-event passes in the fast tier
            "host_blocks": float(host_blocks),
        },
    )
    stats.validate_invariants()
    if trace_occupancy:
        _emit_occupancy(tracer, occupancy_samples)
    extras = {
        "call_enqueued_ns": call_enqueued_ns,
        "call_done_ns": call_done_ns,
        "concurrency_integral": integral,
        "busy_ns": busy,
        "peak": peak,
        "placements": placements,
    }
    return stats, extras


def _slot_sweep(t0, n, width, durations, num_sms):
    """FIFO sweep over ``width`` slots with per-TB durations.

    The heap replays the reference event order: entries are
    ``(finish, dispatch_seq, sm)``, the same ``(time, seq)`` tie-break
    as the engine's event queue, and each pop dispatches the next TB
    onto the freed slot's SM — exactly what least-loaded placement does
    on a saturated device.
    """
    if first_bad_duration(durations) is not None:
        raise _TierDecline("bad_duration")
    m = n if n < width else width
    starts = [t0] * m + [0.0] * (n - m)
    finishes = [0.0] * n
    sms = [0] * n
    heap = []
    for i in range(m):
        sm = i % num_sms
        sms[i] = sm
        finishes[i] = t0 + durations[i]
        heap.append((finishes[i], i, sm))
    heapq.heapify(heap)
    for i in range(m, n):
        t, _seq, sm = heapq.heappop(heap)
        starts[i] = t
        sms[i] = sm
        finishes[i] = t + durations[i]
        heapq.heappush(heap, (finishes[i], i, sm))
    drained = max(entry[0] for entry in heap)
    return starts, finishes, sms, drained


def _accumulate_device(t0, starts, finishes, integral, busy, samples):
    """Replicate ``Device._advance`` over one kernel's TB phase.

    Starts and finishes interleave chronologically; at each distinct
    event time the reference advances once with the running count held
    since the previous event, and placements/releases at equal times net
    out within the event.  Idle gaps (``running == 0``) add ``0.0`` to
    the integral and skip the busy sum — a float no-op, so skipping the
    advance entirely is bit-equivalent.
    """
    fin_sorted = sorted(finishes)
    n = len(starts)
    last = t0
    running = 0
    si = 0
    fi = 0
    if samples is not None:
        samples.append((t0, 0))
    while fi < n:
        if si < n and starts[si] <= fin_sorted[fi]:
            now = starts[si]
        else:
            now = fin_sorted[fi]
        dt = now - last
        if dt > 0:
            if running > 0:
                integral += dt * running
                busy += dt
            last = now
        while si < n and starts[si] == now:
            running += 1
            si += 1
        while fi < n and fin_sorted[fi] == now:
            running -= 1
            fi += 1
        if samples is not None:
            samples.append((now, running))
    return integral, busy


def _emit_occupancy(tracer, samples):
    """Coarse ``running_tbs`` counter track for the batched tier: one
    sample per distinct event time (the reference samples every
    placement and release; the step function is identical)."""
    for now, running in samples:
        tracer.counter(
            "running_tbs",
            {"running": running},
            ts_us=now / 1e3,
            cat="device",
            pid=PID_DEVICE,
        )


def _append_records(
    tb_records, plan, kernels, ki, kp, ready_in,
    all_done, completed, starts, finishes, sms, tb_finishes,
):
    """Build this kernel's :class:`TBRecord` rows (dispatch order)."""
    prev = kp.chain_prev
    graph = kp.graph
    per_tb_parents = None
    base_ready = ready_in
    if graph is not None and prev is not None:
        if graph.is_fully_connected:
            if all_done[prev] > base_ready:
                base_ready = all_done[prev]
        elif not graph.is_independent:
            per_tb_parents = _build_parents_of(graph)
    gp = kp.chain_grandparent
    if kp.grandparent_barrier and gp is not None:
        if completed[gp] > base_ready:
            base_ready = completed[gp]
    parent_fin = tb_finishes[prev] if prev is not None else None
    for tb in range(kp.num_tbs):
        ready = base_ready
        if per_tb_parents is not None:
            for p in per_tb_parents[tb]:
                if parent_fin[p] > ready:
                    ready = parent_fin[p]
        start = starts[tb]
        tb_records.append(TBRecord(
            ki, tb, ready if ready < start else start, start, finishes[tb],
            sms[tb],
        ))
