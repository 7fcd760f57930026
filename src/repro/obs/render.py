"""Render one finished simulation into a tracer and a metrics registry.

Both engine tiers only simulate: each returns its
:class:`~repro.sim.stats.RunStats`, its API calls' enqueue and done
times and its event-loop counts, and
:meth:`repro.models.base.ExecutionModel.run` hands them to
:func:`render_run` once, after the run.  Every trace event and every
``engine.*``/``device.*`` metric is derived from those records, so the
output is identical whichever tier produced them, and observation can
never perturb the simulation.

The device's occupancy is the step function of the TB table: one
step per distinct TB start or finish time, holding the TBs resident
once every start and finish at that time has happened
(:func:`occupancy_steps`).  It gives the ``running_tbs`` counter track
and the opt-in per-SM ``running_tbs[sm=NN]`` tracks, with one sample
per track per rendered timestamp (the trace keeps 1 ns, and TB times
carry sub-ns jitter), and the ``device.peak_tb_concurrency`` gauge,
the maximum over the unrounded steps.
"""

from collections import defaultdict
from itertools import chain, groupby, repeat
from operator import itemgetter

from repro.obs.tracer import PID_DEVICE, PID_HOST, PID_SM, trace_us


def render_run(tracer, metrics, plan, stats, call_enqueued_ns, call_done_ns,
               events_processed, peak_pending):
    """Write the run's trace events and metrics; either may be disabled."""
    steps = None
    if tracer.enabled:
        steps = list(occupancy_steps(stats.tb_records))
        emit_engine_trace(
            tracer, plan, call_enqueued_ns, call_done_ns, stats, steps
        )
    if metrics.enabled:
        if steps is None:
            steps = occupancy_steps(stats.tb_records)
        record_device_metrics(metrics, stats, steps)
        record_engine_metrics(metrics, stats, events_processed, peak_pending)


def occupancy_steps(records):
    """Yield ``(time_ns, running, sms)`` per distinct start or finish time.

    In time order: ``running`` is the number of TBs resident after
    every start and finish at ``time_ns``, and ``sms`` lists
    ``(sm, resident TBs)`` for each SM a start or finish at that time
    touched, by SM index.
    """
    edges = sorted(chain(
        zip(records.start_ns, repeat(1), records.sm),
        zip(records.finish_ns, repeat(-1), records.sm),
    ))
    running = 0
    resident = defaultdict(int)
    for now, group in groupby(edges, key=itemgetter(0)):
        touched = set()
        for _now, delta, sm in group:
            running += delta
            resident[sm] += delta
            touched.add(sm)
        yield now, running, [(sm, resident[sm]) for sm in sorted(touched)]


def emit_engine_trace(tracer, plan, call_enqueued_ns, call_done_ns, stats,
                      steps):
    """Every simulated-clock event of one run: the host queue, the
    kernel phases, the TB spans and then the occupancy counters."""
    # host command queue: one span per API call, enqueue → complete
    for position, call in enumerate(plan.order):
        tracer.name_thread(
            PID_HOST, call.stream_id, "stream {}".format(call.stream_id)
        )
        tracer.sim_span(
            call.trace_name,
            call_enqueued_ns[position],
            call_done_ns[position],
            cat="host.queue",
            pid=PID_HOST,
            tid=call.stream_id,
            args=call.trace_args(),
        )
    # kernel lifecycle phases: one thread row per kernel so phases of
    # concurrently in-flight kernels never collide
    for kr in stats.kernel_records:
        tid = kr.index
        tracer.name_thread(
            PID_DEVICE, tid, "k{:02d} {} (s{})".format(kr.index, kr.name, kr.stream)
        )
        info = {"kernel": kr.name, "index": kr.index, "stream": kr.stream}
        if kr.launch_begin_ns > kr.queued_ns:
            tracer.sim_span(
                "queued", kr.queued_ns, kr.launch_begin_ns,
                cat="kernel.queued", pid=PID_DEVICE, tid=tid, args=info,
            )
        tracer.sim_span(
            "launch", kr.launch_begin_ns, kr.resident_ns,
            cat="kernel.launch", pid=PID_DEVICE, tid=tid, args=info,
        )
        first = kr.first_tb_start_ns or kr.resident_ns
        if first > kr.resident_ns:
            tracer.sim_span(
                "stall", kr.resident_ns, first,
                cat="kernel.stall", pid=PID_DEVICE, tid=tid, args=info,
            )
        tracer.sim_span(
            "exec", first, kr.all_tbs_done_ns,
            cat="kernel.exec", pid=PID_DEVICE, tid=tid,
            args=dict(info, num_tbs=kr.num_tbs),
        )
        tracer.instant(
            "complete", ts_us=kr.completed_ns / 1e3,
            cat="kernel.complete", pid=PID_DEVICE, tid=tid, args=info,
        )
    # per-TB lifecycle on SM rows; async events because blocks of
    # several kernels overlap on one SM
    for tb in stats.tb_records:
        tracer.name_thread(PID_SM, tb.sm, "SM {:02d}".format(tb.sm))
        event_id = "k{}.tb{}".format(tb.kernel_index, tb.tb_id)
        name = "k{}/tb{}".format(tb.kernel_index, tb.tb_id)
        tracer.async_begin(
            name, tb.start_ns / 1e3, event_id,
            cat="tb", pid=PID_SM, tid=tb.sm,
            args={
                "kernel": tb.kernel_index,
                "tb": tb.tb_id,
                "ready_ns": tb.ready_ns,
                "stall_ns": tb.stall_ns,
            },
        )
        tracer.async_end(name, tb.finish_ns / 1e3, event_id, cat="tb",
                         pid=PID_SM, tid=tb.sm)
    emit_occupancy_counters(tracer, steps)


def emit_occupancy_counters(tracer, steps):
    """The ``running_tbs`` track, and per SM on request, from
    :func:`occupancy_steps`: steps that share a rendered timestamp give
    one sample per track, the state after the last of them."""
    per_sm = tracer.per_sm_counters
    for ts_us, group in groupby(
        steps, key=lambda step: trace_us(step[0] / 1e3)
    ):
        resident = {}
        for _now, running, sms in group:
            resident.update(sms)
        tracer.counter(
            "running_tbs", {"running": running}, ts_us=ts_us, cat="device",
            pid=PID_DEVICE,
        )
        if per_sm:
            for sm in sorted(resident):
                tracer.counter(
                    "running_tbs[sm={:02d}]".format(sm),
                    {"running": resident[sm]}, ts_us=ts_us, cat="device.sm",
                    pid=PID_DEVICE,
                )


def record_device_metrics(metrics, stats, steps):
    """The ``device.*`` metrics: peak occupancy, busy time, the
    concurrency integral and the number of TB placements."""
    metrics.set_gauge(
        "device.peak_tb_concurrency",
        max((running for _now, running, _sms in steps), default=0),
    )
    metrics.set_gauge("device.busy_ns", stats.busy_ns)
    metrics.set_gauge("device.concurrency_integral", stats.concurrency_integral)
    metrics.inc("device.tb_placements", len(stats.tb_records))


def record_engine_metrics(metrics, stats, events_processed, peak_pending):
    """The ``engine.*`` gauges and the TB stall and duration histograms."""
    m = metrics
    m.set_gauge("engine.makespan_ns", stats.makespan_ns)
    m.set_gauge("engine.avg_tb_concurrency", stats.avg_tb_concurrency())
    m.set_gauge("engine.events_processed", events_processed)
    m.set_gauge("engine.peak_pending_events", peak_pending)
    for name, value in stats.counters.items():
        m.set_gauge("engine.{}".format(name), value)
    # TBRecord.stall_ns and duration_ns, read from the columns
    records = stats.tb_records
    if not records:
        return
    observe = m.histogram("engine.tb_stall_ns").observe
    for ready, start in zip(records.ready_ns, records.start_ns):
        observe(max(0.0, start - ready))
    observe = m.histogram("engine.tb_duration_ns").observe
    for start, finish in zip(records.start_ns, records.finish_ns):
        observe(finish - start)
