"""Vectorized tier of the shared discrete-event execution engine.

:class:`repro.models.base.ExecutionEngine` — the scalar reference — runs
every API call, kernel launch, and thread-block lifecycle through one
event heap.  Its bookkeeping is incremental, but every thread block
still costs interpreter work: a placement on the least-loaded SM, a TB
record, a finish event, a release, and a dispatch pass over the
resident kernels.  That is exact, and since the analysis fast path
(:mod:`repro.analysis.fastpath`) removed graph construction from the
critical path, it dominates the wall-clock of
``run``/``experiments``/``fuzz``.

This module computes the *same* :class:`~repro.sim.stats.RunStats` more
cheaply for plans :func:`repro.models.base.certify_device_serial` proves
*device-serial* — at most one kernel's thread blocks resident at any
instant.  :meth:`repro.models.base.ExecutionModel.run` certifies first
and imports this module only for a certified run.  Under a
device-serial plan the device is exactly a FIFO queue over ``W``
indistinguishable slots, so the scalar per-event heap loop collapses to
three steps per kernel:

* **durations** — the plan's own list per kernel
  (``KernelPlan.tb_durations_ns``, computed once per plan kernel and
  read by both tiers);
* **placement** — a kernel that fits in one wave (``n <= W``) starts
  every TB at ``t0`` on SM ``i % num_sms`` and needs no heap; a wider
  one runs an O(N log W) slot sweep whose pops replay the reference
  event order (ties broken by dispatch sequence, like the event queue's
  ``(time, seq)`` ordering);
* **records** — each kernel's TBs extend the six columns of the run's
  :class:`~repro.sim.stats.TBTable` in bulk, explicit-graph ready times
  straight from the graph's ``children_of``.

Host issue, command start, launch window, and in-order completion
reduce to a forward max/plus scan over the program order.

The tier replicates the reference bit-for-bit, including the float
accumulation order of the device concurrency integral (one ``dt``
advance per distinct event time) and SM placement indices (round-robin
layering; a freed slot's SM is re-won by the next dispatch).  Like the
reference, it only simulates; ``ExecutionModel.run`` renders the trace
and the gauges from what it returns.  Differential tests
(``tests/integration/test_differential_engine.py``) and the fuzz
harness hold it to byte-identical simulated signatures against the
oracle, with and without duration jitter.

Tier selection is per-run via ``REPRO_ENGINE``
(:func:`repro.modes.resolve_engine_mode`) and reported through the
``engine.tier.*`` and ``engine.fallback.*`` counters.  Whenever
a journal is attached the dispatch seam keeps the scalar engine, since
the journal hooks per-event injection points the batched tier skips.
"""

import heapq
from itertools import cycle, islice, repeat

from repro.host.api import (
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
)
from repro.models.base import _BYPASSED_BARRIERS
from repro.sim.device import empty_device_slots
from repro.sim.stats import KernelRecord, RunStats, TBTable


# ----------------------------------------------------------------------
# the fast run
# ----------------------------------------------------------------------
def run_fast(plan, config, options):
    """Run a certified device-serial ``plan`` through the vectorized tier.

    A forward max/plus scan over the program order.  Returns ``(stats,
    call_enqueued_ns, call_done_ns)``: the :class:`RunStats`
    (bit-identical to the scalar oracle) and each API call's enqueue
    and done times.
    """
    timing = config.timing
    order = plan.order
    api = options.api_call_ns
    strict = options.strict_order
    window = options.window
    num_sms = config.num_sms

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

    tb_records = TBTable()
    host_time = 0.0
    run_max_done = 0.0
    host_blocks = 0
    chain_seen = 0  # kernels processed so far == chain position (1 stream)

    # device accounting (replicates Device._advance's accumulation:
    # one dt per distinct event time, running taken before the events)
    integral = 0.0
    busy = 0.0

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
            durations = kp.tb_durations_ns()
            width = empty_device_slots(config, kp.threads_per_tb)
            if n <= width:
                # one wave: every TB starts at t0 on SM i % num_sms
                starts = [t0] * n
                finishes = [t0 + d for d in durations]
                sms = islice(cycle(range(num_sms)), n)
            else:
                starts, finishes, sms = _slot_sweep(
                    t0, n, width, durations, num_sms
                )
            fin_sorted = sorted(finishes)
            drained = fin_sorted[-1]
            tb_finishes[ki] = finishes
            all_done[ki] = drained
            done = drained
            if prev is not None and completed[prev] > done:
                done = completed[prev]
            completed[ki] = done
            call_done_ns[position] = done
            chain_seen += 1

            # device accounting: walk the kernel's concurrency steps
            if n <= width:
                integral, busy = _accumulate_wave(
                    t0, fin_sorted, integral, busy,
                )
            else:
                integral, busy = _accumulate_device(
                    t0, starts, fin_sorted, integral, busy,
                )

            # per-TB records (dispatch order == TB id under FIFO ready)
            _extend_records(
                tb_records, ki, kp, input_ready[ki], all_done, completed,
                starts, finishes, sms,
                tb_finishes[prev] if prev is not None else None,
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
    return stats, call_enqueued_ns, call_done_ns


# ----------------------------------------------------------------------
# one kernel's TB phase
# ----------------------------------------------------------------------
def _slot_sweep(t0, n, width, durations, num_sms):
    """FIFO sweep of ``n > width`` TBs over ``width`` slots.

    The heap replays the reference event order: entries are
    ``(finish, dispatch_seq, sm)``, the same ``(time, seq)`` tie-break
    as the engine's event queue, and each pop dispatches the next TB
    onto the freed slot's SM — exactly what least-loaded placement does
    on a saturated device.
    """
    starts = [t0] * width + [0.0] * (n - width)
    finishes = [0.0] * n
    sms = [0] * n
    heap = []
    for i in range(width):
        sm = i % num_sms
        sms[i] = sm
        finishes[i] = t0 + durations[i]
        heap.append((finishes[i], i, sm))
    heapq.heapify(heap)
    for i in range(width, n):
        t, _seq, sm = heapq.heappop(heap)
        starts[i] = t
        sms[i] = sm
        finishes[i] = t + durations[i]
        heapq.heappush(heap, (finishes[i], i, sm))
    return starts, finishes, sms


def _accumulate_wave(t0, fin_sorted, integral, busy):
    """:func:`_accumulate_device` for one wave.

    All TBs start at ``t0`` and each finish drops the running count by
    one, so one left-to-right loop over the sorted finishes suffices:
    the first finish at a time advances ``dt * running`` with the count
    held before it, and the later equal finishes add ``dt == 0.0``, a
    float no-op.
    """
    last = t0
    running = len(fin_sorted)
    for now in fin_sorted:
        dt = now - last
        integral += dt * running
        busy += dt
        last = now
        running -= 1
    return integral, busy


def _accumulate_device(t0, starts, fin_sorted, integral, busy):
    """Replicate ``Device._advance`` over one kernel's TB phase.

    Starts and (sorted) finishes interleave chronologically; at each
    distinct event time the reference advances once with the running
    count held since the previous event, and placements/releases at
    equal times net out within the event.  Idle gaps (``running == 0``)
    add ``0.0`` to the integral and skip the busy sum — a float no-op,
    so skipping the advance entirely is bit-equivalent.
    """
    n = len(starts)
    last = t0
    running = 0
    si = 0
    fi = 0
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
    return integral, busy


def _extend_records(
    tb_records, ki, kp, ready_in, all_done, completed,
    starts, finishes, sms, parent_finishes,
):
    """Append this kernel's TBs to the ``tb_records`` columns, in
    dispatch order.

    A TB's ready time is the latest of its inputs, the barriers and —
    under an explicit graph — its parents' finishes.
    """
    n = len(finishes)
    prev = kp.chain_prev
    graph = kp.graph
    base = ready_in
    explicit = False
    if graph is not None and prev is not None:
        if graph.is_fully_connected:
            if all_done[prev] > base:
                base = all_done[prev]
        elif not graph.is_independent:
            explicit = True
    gp = kp.chain_grandparent
    if kp.grandparent_barrier and gp is not None:
        if completed[gp] > base:
            base = completed[gp]
    if explicit:
        readies = [base] * n
        for finish, children in zip(parent_finishes, graph.children_of):
            if finish > base:
                for c in children:
                    if finish > readies[c]:
                        readies[c] = finish
    else:
        readies = repeat(base, n)
    tb_records.kernel_index.extend(repeat(ki, n))
    tb_records.tb_id.extend(range(n))
    tb_records.ready_ns.extend(readies)
    tb_records.start_ns.extend(starts)
    tb_records.finish_ns.extend(finishes)
    tb_records.sm.extend(sms)
