"""Hardware telemetry: time-series sampling + overlap/utilization analysis.

Telemetry is derived from one run's journal
(:class:`~repro.obs.journal.JournalRecorder`, attached with
``model.run(plan, journal=...)``), so it never feeds back into
scheduling: simulated signatures are byte-identical with the journal
on or off (tests and CI machine-check this).

One fold over the journal's events (:func:`sample_journal`) maintains
O(1) incremental counters and appends one sample per simulated
timestamp at which device state changed:

* ``running_tbs`` — thread blocks currently executing (SM occupancy);
* ``busy_sms`` — SMs holding at least one resident block;
* ``ready_queue`` — blocks ready but not yet placed on an SM;
* ``dlb_entries`` / ``pcb_entries`` — Dependency List Buffer / Parent
  Counter Buffer occupancy under the paper's hardware model (a parent
  TB's list entries are live from its dispatch to its finish; a child
  kernel's counters are allocated at residency and retire as blocks
  become ready);
* ``resident_tbs`` — per-kernel running-block counts (the overlap view).

On top of the raw series, :func:`build_report` derives the metrics the
paper's evaluation is about:

* **achieved overlap** per kernel pair — simulated time during which
  both kernels had blocks executing, plus the fraction of the later
  kernel's block dispatches that happened before the earlier kernel
  drained (under a serial launch both are exactly zero, so these are
  the Fig. 1 effect as numbers);
* **idle bubbles** — maximal spans with zero running blocks, each
  blamed by the release-edge kind of the dispatch that ended it (the
  same edge taxonomy critpath classifies); busy spans and bubbles tile
  [0, makespan] by construction;
* **utilization** — time-weighted mean/p95 occupancy, wavefront
  efficiency, busy fractions.

The report is schema-versioned (``repro-telemetry-report``) with a
dependency-free validator, renders as text (:func:`format_telemetry`),
as Perfetto counter tracks merged into ``repro trace`` output
(:func:`emit_telemetry_counters`), and as a Prometheus text exposition
(:func:`write_prometheus`).

Import note: like :mod:`repro.obs.critpath` and
:mod:`repro.obs.journal`, this module is not imported from
``repro.obs.__init__``; the CLI loads it only for the commands that
render telemetry.
"""

import math

TELEMETRY_KIND = "repro-telemetry-report"
TELEMETRY_SCHEMA_VERSION = 1

#: the raw time-series columns, in report order
SERIES_KEYS = (
    "t_ns",
    "running_tbs",
    "busy_sms",
    "ready_queue",
    "dlb_entries",
    "pcb_entries",
)

#: release-edge kind (see repro.obs.journal.edge_fields) -> bubble blame
EDGE_BLAME = {
    "tb_finish": "dependency",
    "launch": "launch",
    "completion": "barrier",
    "call": "copy",
    "enqueue": "host",
    "host": "host",
}

#: every blame category a bubble may carry
BUBBLE_BLAME_KINDS = tuple(sorted(set(EDGE_BLAME.values()))) + ("other",)

#: required numeric keys of the utilization summary
UTILIZATION_KEYS = (
    "mean_occupancy_tbs",
    "p95_occupancy_tbs",
    "peak_occupancy_tbs",
    "mean_busy_sms",
    "p95_busy_sms",
    "wavefront_efficiency",
    "busy_fraction",
    "sm_busy_fraction",
    "partial_idle_ns",
)

#: tolerance for the internal-consistency gates (ns)
_EPS = 1e-3


def _dependency_costs(plan, options):
    """Static DLB/PCB entry costs under the paper's hardware model.

    Returns ``(dlb_cost, pcb_child, pcb_on_resident)``: per parent
    kernel, the list entries each parent block holds while it runs; per
    child kernel, its parent counters and how many it allocates at
    residency.  Empty unless the run resolved fine-grain dependencies.
    """
    from repro.core.hardware import HardwareConfig

    dlb_cost, pcb_child, pcb_on_resident = {}, {}, {}
    if not options.fine_grain or options.ignore_dependencies:
        return dlb_cost, pcb_child, pcb_on_resident
    per_entry = HardwareConfig().children_per_entry
    by_index = {kp.kernel_index: kp for kp in plan.kernels}
    for kp in plan.kernels:
        child = by_index.get(kp.chain_next)
        graph = child.graph if child is not None else None
        if (
            graph is not None
            and not graph.is_fully_connected
            and not graph.is_independent
        ):
            costs = {}
            for tb, children in enumerate(graph.children_of):
                if children:
                    costs[tb] = math.ceil(len(children) / per_entry)
            if costs:
                dlb_cost[kp.kernel_index] = costs
        own = kp.graph
        if (
            own is not None
            and not own.is_fully_connected
            and not own.is_independent
        ):
            counted = sum(1 for c in own.parent_counts if c > 0)
            if counted:
                pcb_on_resident[kp.kernel_index] = counted
                pcb_child[kp.kernel_index] = own.parent_counts
    return dlb_cost, pcb_child, pcb_on_resident


def sample_journal(journal, makespan_ns):
    """Fold a finished run's journal into ``(samples, bubbles)``.

    ``samples`` holds one row per distinct event timestamp at which
    device state changed — ``[t_ns, running, busy_sms, ready, dlb, pcb,
    (per-kernel running...)]``; ``bubbles`` holds the all-idle spans as
    ``(start_ns, end_ns, blame)``.
    """
    dlb_cost, pcb_child, pcb_on_resident = _dependency_costs(
        journal.plan, journal.options
    )
    running = ready = dlb = pcb = busy_sms = 0
    sm_tbs = {}
    per_kernel = [0] * len(journal.plan.kernels)
    idle_start = 0.0
    samples, bubbles = [], []
    for event in journal.events:
        kind, t_ns = event["kind"], event["t_ns"]
        if kind == "tb_ready":
            ready += 1
            counts = pcb_child.get(event["kernel"])
            if counts is not None and counts[event["tb"]] > 0:
                pcb -= 1
        elif kind == "tb_dispatch":
            ready -= 1
            if running == 0 and t_ns > idle_start:
                edge = event.get("edge") or {}
                bubbles.append((
                    idle_start, t_ns,
                    EDGE_BLAME.get(edge.get("kind"), "other"),
                ))
            running += 1
            per_kernel[event["kernel"]] += 1
            held = sm_tbs.get(event["sm"], 0)
            if held == 0:
                busy_sms += 1
            sm_tbs[event["sm"]] = held + 1
            cost = dlb_cost.get(event["kernel"])
            if cost is not None:
                dlb += cost.get(event["tb"], 0)
        elif kind == "tb_finish":
            running -= 1
            per_kernel[event["kernel"]] -= 1
            held = sm_tbs.get(event["sm"], 1) - 1
            sm_tbs[event["sm"]] = held
            if held == 0:
                busy_sms -= 1
            cost = dlb_cost.get(event["kernel"])
            if cost is not None:
                dlb -= cost.get(event["tb"], 0)
            if running == 0:
                idle_start = t_ns
        elif kind == "kernel_resident" and event["kernel"] in pcb_on_resident:
            pcb += pcb_on_resident[event["kernel"]]
        else:
            continue  # host/queue bookkeeping: no device-state change
        row = [t_ns, running, busy_sms, ready, dlb, pcb, tuple(per_kernel)]
        if samples and samples[-1][0] == t_ns:
            samples[-1] = row  # coalesce same-instant transitions
        else:
            samples.append(row)
    if running == 0 and makespan_ns > idle_start:
        # the drain/teardown tail has no dispatch to blame
        bubbles.append((idle_start, makespan_ns, "other"))
    return samples, bubbles


# ----------------------------------------------------------------------
# series math
# ----------------------------------------------------------------------
def _segments(samples, makespan_ns, column):
    """Yield ``(value, dt)`` step segments covering [0, makespan]."""
    out = []
    previous_t, previous_v = 0.0, 0
    for row in samples:
        t = row[0]
        if t > previous_t:
            out.append((previous_v, t - previous_t))
        previous_t, previous_v = t, row[column]
    if makespan_ns > previous_t:
        out.append((previous_v, makespan_ns - previous_t))
    return out


def _weighted_mean(segments):
    total = sum(dt for _, dt in segments)
    if total <= 0:
        return 0.0
    return sum(v * dt for v, dt in segments) / total


def _weighted_percentile(segments, q):
    """Time-weighted percentile of a step series (0 <= q <= 1)."""
    total = sum(dt for _, dt in segments)
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0.0
    for value, dt in sorted(segments):
        cumulative += dt
        if cumulative >= target:
            return float(value)
    return float(segments[-1][0]) if segments else 0.0


def _merge_intervals(intervals):
    """Union of (start, end) intervals as a sorted, disjoint list."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _intersection_ns(a, b):
    """Total overlap of two sorted disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _downsample(samples, max_samples):
    """Evenly thin the series, always keeping the first/last samples."""
    n = len(samples)
    if n <= max_samples or max_samples < 2:
        return list(samples)
    picked = []
    last_index = -1
    for i in range(max_samples):
        index = round(i * (n - 1) / (max_samples - 1))
        if index != last_index:
            picked.append(samples[index])
            last_index = index
    return picked


# ----------------------------------------------------------------------
# derived-metrics report
# ----------------------------------------------------------------------
def _kernel_rows(stats, plan):
    """Per-kernel execution spans from the run's TB records."""
    intervals = {}
    for tb in stats.tb_records:
        intervals.setdefault(tb.kernel_index, []).append(
            (tb.start_ns, tb.finish_ns)
        )
    rows, merged = [], {}
    for kp in plan.kernels:
        union = _merge_intervals(intervals.get(kp.kernel_index, []))
        merged[kp.kernel_index] = union
        rows.append(
            {
                "index": kp.kernel_index,
                "name": kp.name,
                "stream": kp.stream,
                "num_tbs": kp.num_tbs,
                "first_start_ns": union[0][0] if union else 0.0,
                "last_finish_ns": union[-1][1] if union else 0.0,
                "span_ns": sum(end - start for start, end in union),
            }
        )
    return rows, merged


def _overlap_section(stats, kernel_rows, merged):
    """Per-kernel-pair achieved overlap (the paper's Fig. 1 effect)."""
    starts = {}
    for tb in stats.tb_records:
        starts.setdefault(tb.kernel_index, []).append(tb.start_ns)
    by_index = {row["index"]: row for row in kernel_rows}
    indices = sorted(by_index)
    pairs = []
    for pos, a in enumerate(indices):
        for b in indices[pos + 1:]:
            overlap_ns = _intersection_ns(merged[a], merged[b])
            if overlap_ns <= 0.0 and b != a + 1:
                continue  # only adjacent pairs are reported when serial
            span_a = by_index[a]["span_ns"]
            span_b = by_index[b]["span_ns"]
            floor = min(span_a, span_b)
            # fraction of the later kernel's dispatches issued before
            # the earlier kernel drained — zero under a serial launch
            drain_a = by_index[a]["last_finish_ns"]
            b_starts = starts.get(b, [])
            early = sum(1 for s in b_starts if s < drain_a)
            pairs.append(
                {
                    "a": a,
                    "b": b,
                    "a_name": by_index[a]["name"],
                    "b_name": by_index[b]["name"],
                    "overlap_ns": overlap_ns,
                    "overlap_fraction": (
                        overlap_ns / floor if floor > 0 else 0.0
                    ),
                    "tb_overlap_fraction": (
                        early / len(b_starts) if b_starts else 0.0
                    ),
                }
            )
    fractions = [pair["overlap_fraction"] for pair in pairs]
    return {
        "pairs": pairs,
        "total_overlap_ns": sum(pair["overlap_ns"] for pair in pairs),
        "mean_overlap_fraction": (
            sum(fractions) / len(fractions) if fractions else 0.0
        ),
    }


def _bubble_section(bubbles):
    spans = [
        {"start_ns": start, "end_ns": end, "blame": blame}
        for start, end, blame in bubbles
    ]
    blame_ns = {kind: 0.0 for kind in BUBBLE_BLAME_KINDS}
    for span in spans:
        blame_ns[span["blame"]] += span["end_ns"] - span["start_ns"]
    return {
        "spans": spans,
        "count": len(spans),
        "total_ns": sum(s["end_ns"] - s["start_ns"] for s in spans),
        "blame_ns": blame_ns,
    }


def build_report(stats, journal, max_samples=512):
    """Assemble the schema-versioned telemetry report for one run from
    its ``stats`` and its finished journal."""
    if not journal.finalized:
        raise ValueError("journal was not finalized by an engine run")
    makespan = stats.makespan_ns
    num_sms = journal.gpu_config.num_sms
    samples, raw_bubbles = sample_journal(journal, makespan)
    running = _segments(samples, makespan, 1)
    busy_sms = _segments(samples, makespan, 2)
    busy_from_series = sum(dt for v, dt in running if v > 0)
    partial_idle = sum(
        dt
        for (tbs, dt), (sms, _) in zip(running, busy_sms)
        if tbs > 0 and sms < num_sms
    )
    peak = max((row[1] for row in samples), default=0)
    utilization = {
        "mean_occupancy_tbs": _weighted_mean(running),
        "p95_occupancy_tbs": _weighted_percentile(running, 0.95),
        "peak_occupancy_tbs": float(peak),
        "mean_busy_sms": _weighted_mean(busy_sms),
        "p95_busy_sms": _weighted_percentile(busy_sms, 0.95),
        "wavefront_efficiency": (
            stats.concurrency_integral / (stats.busy_ns * peak)
            if stats.busy_ns > 0 and peak > 0
            else 0.0
        ),
        "busy_fraction": busy_from_series / makespan if makespan > 0 else 0.0,
        "sm_busy_fraction": (
            _weighted_mean(busy_sms) / num_sms if num_sms > 0 else 0.0
        ),
        "partial_idle_ns": partial_idle,
    }
    kernel_rows, merged = _kernel_rows(stats, journal.plan)
    bubbles = _bubble_section(raw_bubbles)
    thinned = _downsample(samples, max_samples)
    series = {
        "t_ns": [row[0] for row in thinned],
        "running_tbs": [row[1] for row in thinned],
        "busy_sms": [row[2] for row in thinned],
        "ready_queue": [row[3] for row in thinned],
        "dlb_entries": [row[4] for row in thinned],
        "pcb_entries": [row[5] for row in thinned],
        "resident_tbs": {
            str(kp.kernel_index): [row[6][slot] for row in thinned]
            for slot, kp in enumerate(journal.plan.kernels)
        },
    }
    return {
        "kind": TELEMETRY_KIND,
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "workload": journal.application,
        "model": journal.model,
        "makespan_ns": makespan,
        "busy_ns": stats.busy_ns,
        "num_sms": num_sms,
        "num_raw_samples": len(samples),
        "series": series,
        "kernels": kernel_rows,
        "overlap": _overlap_section(stats, kernel_rows, merged),
        "bubbles": bubbles,
        "utilization": utilization,
        "consistency": {
            "busy_ns_error": abs(busy_from_series - stats.busy_ns),
            "tiling_error_ns": abs(
                bubbles["total_ns"] + busy_from_series - makespan
            ),
        },
    }


def bench_summary(report):
    """Flat numeric summary embedded in BENCH reports' ``telemetry``
    section — ``bench diff`` treats every value as zero-tolerance
    simulated drift."""
    utilization = report["utilization"]
    overlap = report["overlap"]
    return {
        "mean_occupancy_tbs": utilization["mean_occupancy_tbs"],
        "p95_occupancy_tbs": utilization["p95_occupancy_tbs"],
        "wavefront_efficiency": utilization["wavefront_efficiency"],
        "busy_fraction": utilization["busy_fraction"],
        "total_overlap_ns": overlap["total_overlap_ns"],
        "mean_overlap_fraction": overlap["mean_overlap_fraction"],
        "idle_bubble_ns": report["bubbles"]["total_ns"],
        "idle_bubble_count": report["bubbles"]["count"],
        "pair_overlap": {
            "k{}->k{}".format(pair["a"], pair["b"]): pair["overlap_fraction"]
            for pair in overlap["pairs"]
        },
    }


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_telemetry_report(report):
    """Structural + invariant validation; returns problem strings."""
    errors = []
    if not isinstance(report, dict):
        return ["report: expected a JSON object"]
    if report.get("kind") != TELEMETRY_KIND:
        errors.append("kind: expected {!r}".format(TELEMETRY_KIND))
    if report.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        errors.append(
            "schema_version: expected {}".format(TELEMETRY_SCHEMA_VERSION)
        )
    for key in ("workload", "model"):
        if not isinstance(report.get(key), str):
            errors.append("{}: missing or not a string".format(key))
    makespan = report.get("makespan_ns")
    if not _is_number(makespan) or makespan < 0:
        errors.append("makespan_ns: missing or negative")
        makespan = 0.0
    series = report.get("series")
    if not isinstance(series, dict):
        errors.append("series: missing or not an object")
    else:
        lengths = set()
        for key in SERIES_KEYS:
            column = series.get(key)
            if not isinstance(column, list):
                errors.append("series.{}: missing or not a list".format(key))
                continue
            lengths.add(len(column))
            if any(not _is_number(v) for v in column):
                errors.append("series.{}: non-numeric sample".format(key))
        if len(lengths) > 1:
            errors.append("series: columns have unequal lengths")
        t_ns = series.get("t_ns") or []
        if any(b < a for a, b in zip(t_ns, t_ns[1:])):
            errors.append("series.t_ns: not sorted")
        resident = series.get("resident_tbs")
        if not isinstance(resident, dict):
            errors.append("series.resident_tbs: missing or not an object")
        else:
            for key, column in resident.items():
                if not isinstance(column, list) or (
                    lengths and len(column) not in lengths
                ):
                    errors.append(
                        "series.resident_tbs[{}]: wrong length".format(key)
                    )
    kernels = report.get("kernels")
    spans = {}
    if not isinstance(kernels, list):
        errors.append("kernels: missing or not a list")
    else:
        for i, row in enumerate(kernels):
            if not isinstance(row, dict) or not _is_number(
                row.get("span_ns")
            ):
                errors.append("kernels[{}]: missing span_ns".format(i))
            else:
                spans[row.get("index")] = row["span_ns"]
    overlap = report.get("overlap")
    if not isinstance(overlap, dict) or not isinstance(
        overlap.get("pairs"), list
    ):
        errors.append("overlap.pairs: missing or not a list")
    else:
        for i, pair in enumerate(overlap["pairs"]):
            where = "overlap.pairs[{}]".format(i)
            if not isinstance(pair, dict):
                errors.append("{}: not an object".format(where))
                continue
            for key in (
                "overlap_ns", "overlap_fraction", "tb_overlap_fraction"
            ):
                if not _is_number(pair.get(key)):
                    errors.append("{}.{}: missing".format(where, key))
            floor = min(
                spans.get(pair.get("a"), float("inf")),
                spans.get(pair.get("b"), float("inf")),
            )
            if (
                _is_number(pair.get("overlap_ns"))
                and floor != float("inf")
                and pair["overlap_ns"] > floor + _EPS
            ):
                errors.append(
                    "{}: overlap_ns {} exceeds min kernel span {}".format(
                        where, pair["overlap_ns"], floor
                    )
                )
            for key in ("overlap_fraction", "tb_overlap_fraction"):
                value = pair.get(key)
                if _is_number(value) and not -1e-9 <= value <= 1 + 1e-9:
                    errors.append(
                        "{}.{}: {} outside [0, 1]".format(where, key, value)
                    )
    bubbles = report.get("bubbles")
    if not isinstance(bubbles, dict) or not isinstance(
        bubbles.get("spans"), list
    ):
        errors.append("bubbles.spans: missing or not a list")
    else:
        previous_end = -float("inf")
        total = 0.0
        for i, span in enumerate(bubbles["spans"]):
            where = "bubbles.spans[{}]".format(i)
            if not isinstance(span, dict) or not (
                _is_number(span.get("start_ns"))
                and _is_number(span.get("end_ns"))
            ):
                errors.append("{}: malformed".format(where))
                continue
            if span.get("blame") not in BUBBLE_BLAME_KINDS:
                errors.append(
                    "{}: unknown blame {!r}".format(where, span.get("blame"))
                )
            if span["start_ns"] < previous_end - _EPS:
                errors.append("{}: overlaps the previous span".format(where))
            if span["end_ns"] > makespan + _EPS:
                errors.append("{}: extends past the makespan".format(where))
            previous_end = span["end_ns"]
            total += span["end_ns"] - span["start_ns"]
        if _is_number(bubbles.get("total_ns")) and abs(
            bubbles["total_ns"] - total
        ) > _EPS:
            errors.append("bubbles.total_ns: does not match its spans")
    utilization = report.get("utilization")
    if not isinstance(utilization, dict):
        errors.append("utilization: missing or not an object")
    else:
        for key in UTILIZATION_KEYS:
            if not _is_number(utilization.get(key)):
                errors.append("utilization.{}: missing".format(key))
    consistency = report.get("consistency")
    if not isinstance(consistency, dict):
        errors.append("consistency: missing or not an object")
    else:
        for key in ("busy_ns_error", "tiling_error_ns"):
            value = consistency.get(key)
            if not _is_number(value):
                errors.append("consistency.{}: missing".format(key))
            elif value > max(_EPS, 1e-9 * makespan):
                errors.append(
                    "consistency.{}: {} exceeds tolerance".format(key, value)
                )
    return errors


# ----------------------------------------------------------------------
# text / Perfetto / Prometheus renderings
# ----------------------------------------------------------------------
def _bar(fraction, width=24):
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def format_telemetry(report, limit=10):
    """Human-readable rendering of one telemetry report."""
    utilization = report["utilization"]
    lines = [
        "-- telemetry ({}: {}, makespan {:.1f}us) --".format(
            report["model"], report["workload"], report["makespan_ns"] / 1e3
        ),
        "  occupancy: mean {:.2f} TBs, p95 {:.0f}, peak {:.0f}; "
        "wavefront efficiency {:.2f}".format(
            utilization["mean_occupancy_tbs"],
            utilization["p95_occupancy_tbs"],
            utilization["peak_occupancy_tbs"],
            utilization["wavefront_efficiency"],
        ),
        "  device busy {:.1%} of makespan; mean busy SMs {:.2f}/{} "
        "({:.1%})".format(
            utilization["busy_fraction"],
            utilization["mean_busy_sms"],
            report["num_sms"],
            utilization["sm_busy_fraction"],
        ),
    ]
    pairs = sorted(
        report["overlap"]["pairs"],
        key=lambda pair: (-pair["overlap_ns"], pair["a"], pair["b"]),
    )
    lines.append(
        "  achieved overlap ({} pairs, {:.1f}us total):".format(
            len(pairs), report["overlap"]["total_overlap_ns"] / 1e3
        )
    )
    for pair in pairs[:limit]:
        lines.append(
            "    [{}] {:6.1%}  k{:02d} {} || k{:02d} {}  "
            "({:.1f}us, {:.0%} of TBs early)".format(
                _bar(pair["overlap_fraction"]),
                pair["overlap_fraction"],
                pair["a"],
                pair["a_name"],
                pair["b"],
                pair["b_name"],
                pair["overlap_ns"] / 1e3,
                pair["tb_overlap_fraction"],
            )
        )
    if len(pairs) > limit:
        lines.append("    ... {} more pairs".format(len(pairs) - limit))
    bubbles = report["bubbles"]
    lines.append(
        "  idle bubbles: {} spans, {:.1f}us total".format(
            bubbles["count"], bubbles["total_ns"] / 1e3
        )
    )
    for blame in BUBBLE_BLAME_KINDS:
        ns = bubbles["blame_ns"].get(blame, 0.0)
        if ns > 0:
            lines.append(
                "    {:12s} {:10.3f}us".format(blame, ns / 1e3)
            )
    return "\n".join(lines)


def emit_telemetry_counters(tracer, report):
    """Merge the sampled series into a trace as Perfetto counter tracks.

    Three ``ph:"C"`` tracks on the simulated-time device row:
    occupancy (running TBs + busy SMs), scheduler queues (ready queue
    depth), and dependency-hardware occupancy (DLB/PCB entries).
    """
    from repro.obs.tracer import PID_DEVICE

    series = report["series"]
    for i, t_ns in enumerate(series["t_ns"]):
        ts_us = t_ns / 1e3
        tracer.counter(
            "telemetry.occupancy",
            {
                "running_tbs": series["running_tbs"][i],
                "busy_sms": series["busy_sms"][i],
            },
            ts_us=ts_us,
            cat="telemetry",
            pid=PID_DEVICE,
        )
        tracer.counter(
            "telemetry.queues",
            {"ready_queue": series["ready_queue"][i]},
            ts_us=ts_us,
            cat="telemetry",
            pid=PID_DEVICE,
        )
        tracer.counter(
            "telemetry.dependency_hw",
            {
                "dlb_entries": series["dlb_entries"][i],
                "pcb_entries": series["pcb_entries"][i],
            },
            ts_us=ts_us,
            cat="telemetry",
            pid=PID_DEVICE,
        )


def write_prometheus(report):
    """Render the report as a Prometheus text exposition (version 0.0.4).

    This is the machine-readable metrics surface the ``repro serve``
    daemon mounts at ``/metrics``; the line-level writer is the shared
    :class:`repro.obs.prom.PromWriter` (hand-rolled so the repo stays
    dependency-free), and this function's output is byte-identical to
    the pre-extraction telemetry writer.
    """
    from repro.obs.prom import PromWriter, escape_label_value

    base = 'workload="{}",model="{}"'.format(
        escape_label_value(report["workload"]),
        escape_label_value(report["model"]),
    )
    utilization = report["utilization"]
    overlap = report["overlap"]
    bubbles = report["bubbles"]
    writer = PromWriter()

    def emit(name, help_text, value, extra_labels=""):
        labels = base + ("," + extra_labels if extra_labels else "")
        writer.emit(name, help_text, value, labels=labels)

    emit("repro_makespan_ns", "Simulated makespan.", report["makespan_ns"])
    emit(
        "repro_busy_fraction",
        "Fraction of the makespan with at least one running TB.",
        utilization["busy_fraction"],
    )
    emit(
        "repro_mean_occupancy_tbs",
        "Time-weighted mean running thread blocks.",
        utilization["mean_occupancy_tbs"],
    )
    emit(
        "repro_p95_occupancy_tbs",
        "Time-weighted p95 running thread blocks.",
        utilization["p95_occupancy_tbs"],
    )
    emit(
        "repro_wavefront_efficiency",
        "Concurrency integral over busy time x peak concurrency.",
        utilization["wavefront_efficiency"],
    )
    emit(
        "repro_sm_busy_fraction",
        "Mean busy SMs over total SMs.",
        utilization["sm_busy_fraction"],
    )
    emit(
        "repro_overlap_total_ns",
        "Total cross-kernel overlap time.",
        overlap["total_overlap_ns"],
    )
    emit(
        "repro_overlap_mean_fraction",
        "Mean per-pair achieved overlap fraction.",
        overlap["mean_overlap_fraction"],
    )
    for pair in overlap["pairs"]:
        emit(
            "repro_pair_overlap_fraction",
            "Achieved overlap fraction per kernel pair.",
            pair["overlap_fraction"],
            extra_labels='pair="k{}-k{}"'.format(pair["a"], pair["b"]),
        )
    emit(
        "repro_idle_bubble_ns_total",
        "Total all-idle bubble time.",
        bubbles["total_ns"],
    )
    emit(
        "repro_idle_bubble_count",
        "Number of all-idle bubbles.",
        bubbles["count"],
    )
    for blame in BUBBLE_BLAME_KINDS:
        emit(
            "repro_idle_bubble_blame_ns",
            "All-idle bubble time by release-edge blame.",
            bubbles["blame_ns"].get(blame, 0.0),
            extra_labels='blame="{}"'.format(blame),
        )
    return writer.render()
