"""The unified flight report: one self-contained HTML artifact per run.

``repro report <workload>`` performs a *single* journaled engine run,
derives the critical-path and telemetry reports from that one event
stream, and stitches them into one shareable HTML page: telemetry timelines
(occupancy, queues, DLB/PCB) as inline SVG, per-kernel execution spans,
the critpath attribution bar, the achieved-overlap table, the idle-
bubble blame table and the journal digest.

The page is fully self-contained — inline CSS, inline SVG, zero
external assets — so it can be attached to a CI run or an issue and
rendered anywhere.  It is written through the shared
:func:`repro.obs.report.write_text` serializer like every other
``--out`` artifact.

Import note: like the journal, this module must not be imported from
``repro.obs.__init__`` — it imports the engine.
"""

import html
import json

from repro.obs.telemetry import BUBBLE_BLAME_KINDS

def build_flight_data(workload, model="consumer3", build_small=False):
    """Run once with the journal attached; return the stitched data.

    Returns a dict with ``stats``, ``telemetry`` (validated report),
    ``critpath`` (validated report), ``journal_header`` and
    ``blame_rows``.
    """
    # Imported lazily: the engine imports repro.obs at module load.
    from repro.experiments.common import canonical_model_name
    from repro.obs import critpath, telemetry
    from repro.obs.journal import record_run
    from repro.obs.report import kernel_blame_rows
    from repro.workloads import get_workload

    journal, stats = record_run(workload, model, build_small=build_small)
    return {
        "workload": get_workload(workload).name,
        "model": canonical_model_name(model),
        "stats": stats,
        "telemetry": telemetry.checked_report(stats, journal),
        "critpath": critpath.checked_report(stats, journal),
        "journal_header": journal.header(),
        "blame_rows": kernel_blame_rows(stats),
    }


# ----------------------------------------------------------------------
# SVG helpers (inline, no external assets)
# ----------------------------------------------------------------------
_W, _H, _PAD = 720, 120, 30


def _scale(values, span):
    top = max(values) if values else 0
    return (span / top) if top > 0 else 0.0


def _step_polyline(t_ns, values, makespan_ns, color, label):
    """One step-line counter track as an SVG group."""
    if not t_ns or makespan_ns <= 0:
        return ""
    sx = (_W - 2 * _PAD) / makespan_ns
    sy = _scale(values, _H - 2 * _PAD)
    points = ["{:.1f},{:.1f}".format(_PAD, _H - _PAD)]
    previous_y = _H - _PAD
    for t, v in zip(t_ns, values):
        x = _PAD + t * sx
        y = _H - _PAD - v * sy
        points.append("{:.1f},{:.1f}".format(x, previous_y))
        points.append("{:.1f},{:.1f}".format(x, y))
        previous_y = y
    points.append("{:.1f},{:.1f}".format(_W - _PAD, previous_y))
    peak = max(values) if values else 0
    return (
        '<svg viewBox="0 0 {w} {h}" class="track">'
        '<text x="{pad}" y="14" class="tlabel">{label} (peak {peak})</text>'
        '<line x1="{pad}" y1="{base}" x2="{xend}" y2="{base}" class="axis"/>'
        '<polyline points="{points}" fill="none" stroke="{color}" '
        'stroke-width="1.5"/></svg>'
    ).format(
        w=_W, h=_H, pad=_PAD, base=_H - _PAD, xend=_W - _PAD,
        label=html.escape(label), peak=peak,
        points=" ".join(points), color=color,
    )


def _kernel_gantt(telemetry):
    """Per-kernel execution spans as horizontal bars."""
    kernels = telemetry["kernels"]
    makespan = telemetry["makespan_ns"]
    if not kernels or makespan <= 0:
        return ""
    row_h = 18
    height = 24 + row_h * len(kernels)
    sx = (_W - 160 - _PAD) / makespan
    rows = []
    for i, row in enumerate(kernels):
        y = 20 + i * row_h
        x0 = 160 + row["first_start_ns"] * sx
        width = max(
            1.0, (row["last_finish_ns"] - row["first_start_ns"]) * sx
        )
        rows.append(
            '<text x="4" y="{ty}" class="tlabel">k{index:02d} {name} '
            '(s{stream}, {tbs} TBs)</text>'
            '<rect x="{x0:.1f}" y="{ry}" width="{w:.1f}" height="12" '
            'class="kbar"/>'.format(
                ty=y + 10, index=row["index"],
                name=html.escape(str(row["name"]))[:18],
                stream=row["stream"], tbs=row["num_tbs"],
                x0=x0, ry=y, w=width,
            )
        )
    return (
        '<svg viewBox="0 0 {w} {h}" class="track" style="height:{h}px">'
        "{rows}</svg>"
    ).format(w=_W, h=height, rows="".join(rows))


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 780px; color: #1a2330; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em;
     border-bottom: 1px solid #d8dee6; padding-bottom: 4px; }
table { border-collapse: collapse; width: 100%; font-size: 0.85em; }
th, td { text-align: left; padding: 3px 8px;
         border-bottom: 1px solid #edf0f4; }
th { color: #5a6472; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; }
.card { border: 1px solid #d8dee6; border-radius: 6px; padding: 8px 14px; }
.card .v { font-size: 1.25em; font-weight: 600; }
.card .k { font-size: 0.75em; color: #5a6472; }
svg.track { width: 100%; background: #fafbfc; border: 1px solid #edf0f4;
            border-radius: 4px; margin-bottom: 6px; }
.tlabel { font-size: 11px; fill: #5a6472; }
.axis { stroke: #c5ccd6; stroke-width: 1; }
.kbar { fill: #4a90d9; } .attr { height: 18px; display: flex;
  border-radius: 4px; overflow: hidden; margin: 6px 0; }
.attr span { display: block; height: 100%; }
.legend { font-size: 0.8em; color: #5a6472; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border-radius: 2px; }
code { background: #f2f4f7; padding: 1px 5px; border-radius: 3px;
       font-size: 0.85em; }
.ok { color: #1b7f37; } .bad { color: #b42318; }
"""

#: critpath component -> bar color (stable palette)
_COLORS = {
    "exec": "#4a90d9",
    "launch": "#e8a33d",
    "dependency": "#c75146",
    "occupancy": "#8e6cc0",
    "barrier": "#50a773",
    "copy": "#3dbdc8",
    "host": "#98a2b0",
    "other": "#d0d5dd",
}


def _card(label, value):
    return (
        '<div class="card"><div class="v">{}</div>'
        '<div class="k">{}</div></div>'
    ).format(html.escape(str(value)), html.escape(str(label)))


def _attribution_bar(critpath):
    fractions = critpath["attribution_fraction"]
    spans, legend = [], []
    for key, color in _COLORS.items():
        fraction = fractions.get(key, 0.0)
        if fraction <= 0:
            continue
        spans.append(
            '<span style="width:{:.2f}%;background:{}" title="{} {:.1%}">'
            "</span>".format(fraction * 100, color, html.escape(key), fraction)
        )
        legend.append(
            '<i style="background:{}"></i>{} {:.1%}'.format(
                color, html.escape(key), fraction
            )
        )
    return '<div class="attr">{}</div><div class="legend">{}</div>'.format(
        "".join(spans), " &nbsp; ".join(legend)
    )


def _overlap_table(telemetry):
    pairs = sorted(
        telemetry["overlap"]["pairs"],
        key=lambda pair: (-pair["overlap_ns"], pair["a"], pair["b"]),
    )
    if not pairs:
        return "<p>No kernel pairs (single-kernel workload).</p>"
    rows = []
    for pair in pairs:
        rows.append(
            "<tr><td>k{:02d} {}</td><td>k{:02d} {}</td>"
            '<td class="num">{:.3f}us</td><td class="num">{:.1%}</td>'
            '<td class="num">{:.1%}</td></tr>'.format(
                pair["a"], html.escape(str(pair["a_name"])),
                pair["b"], html.escape(str(pair["b_name"])),
                pair["overlap_ns"] / 1e3,
                pair["overlap_fraction"],
                pair["tb_overlap_fraction"],
            )
        )
    return (
        "<table><tr><th>kernel A</th><th>kernel B</th>"
        '<th class="num">overlap</th><th class="num">of min span</th>'
        '<th class="num">TBs dispatched early</th></tr>{}</table>'
    ).format("".join(rows))


def _bubble_table(telemetry):
    bubbles = telemetry["bubbles"]
    rows = []
    for blame in BUBBLE_BLAME_KINDS:
        ns = bubbles["blame_ns"].get(blame, 0.0)
        if ns <= 0:
            continue
        rows.append(
            '<tr><td>{}</td><td class="num">{:.3f}us</td></tr>'.format(
                html.escape(blame), ns / 1e3
            )
        )
    table = (
        "<table><tr><th>blamed release edge</th>"
        '<th class="num">idle time</th></tr>{}</table>'.format("".join(rows))
        if rows
        else "<p>No all-idle bubbles: the device never went idle.</p>"
    )
    return "<p>{} bubble(s), {:.3f}us total.</p>{}".format(
        bubbles["count"], bubbles["total_ns"] / 1e3, table
    )


def render_flight_html(data):
    """Render :func:`build_flight_data` output as one standalone page."""
    telemetry = data["telemetry"]
    critpath = data["critpath"]
    utilization = telemetry["utilization"]
    series = telemetry["series"]
    header = data["journal_header"]
    cards = "".join(
        [
            _card("makespan", "{:.1f}us".format(telemetry["makespan_ns"] / 1e3)),
            _card("device busy", "{:.1%}".format(utilization["busy_fraction"])),
            _card(
                "mean occupancy",
                "{:.1f} TBs".format(utilization["mean_occupancy_tbs"]),
            ),
            _card(
                "wavefront eff.",
                "{:.2f}".format(utilization["wavefront_efficiency"]),
            ),
            _card(
                "overlap",
                "{:.1f}us".format(telemetry["overlap"]["total_overlap_ns"] / 1e3),
            ),
            _card("journal events", header["num_events"]),
        ]
    )
    makespan = telemetry["makespan_ns"]
    tracks = "".join(
        _step_polyline(series["t_ns"], series[key], makespan, color, label)
        for key, color, label in (
            ("running_tbs", "#4a90d9", "running thread blocks"),
            ("busy_sms", "#50a773", "busy SMs"),
            ("ready_queue", "#e8a33d", "ready-queue depth"),
            ("dlb_entries", "#c75146", "DLB entries"),
            ("pcb_entries", "#8e6cc0", "PCB entries"),
        )
    )
    blame_rows = "".join(
        "<tr><td>k{:02d} {}</td>"
        '<td class="num">{:.1f}</td><td class="num">{:.1f}</td>'
        '<td class="num">{:.1f}</td><td class="num">{:.1f}</td>'
        '<td class="num">{:.1f}</td></tr>'.format(
            row["index"], html.escape(str(row["name"])),
            row["queue_ns"] / 1e3, row["launch_ns"] / 1e3,
            row["stall_ns"] / 1e3, row["exec_ns"] / 1e3,
            row["drain_ns"] / 1e3,
        )
        for row in data["blame_rows"]
    )
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro flight report: {} / {}</title>".format(
            html.escape(data["workload"]), html.escape(data["model"])
        ),
        "<style>{}</style></head><body>".format(_CSS),
        "<h1>Flight report — <code>{}</code> under <code>{}</code></h1>".format(
            html.escape(data["workload"]), html.escape(data["model"])
        ),
        '<div class="cards">{}</div>'.format(cards),
        "<h2>Telemetry timelines</h2>",
        "<p>{} raw samples over {:.1f}us (thinned to {} points).</p>".format(
            telemetry["num_raw_samples"], makespan / 1e3,
            len(series["t_ns"]),
        ),
        tracks,
        "<h2>Kernel execution spans</h2>",
        _kernel_gantt(telemetry),
        "<h2>Critical-path attribution</h2>",
        _attribution_bar(critpath),
        "<h2>Achieved cross-kernel overlap</h2>",
        _overlap_table(telemetry),
        "<h2>Idle bubbles</h2>",
        _bubble_table(telemetry),
        "<h2>Per-kernel blame (us)</h2>",
        "<table><tr><th>kernel</th>"
        '<th class="num">queue</th><th class="num">launch</th>'
        '<th class="num">stall</th><th class="num">exec</th>'
        '<th class="num">drain</th></tr>{}</table>'.format(blame_rows),
        "<h2>Journal</h2>",
        "<p>{} events, digest <code>{}</code>, options "
        "<code>{}</code>.</p>".format(
            header["num_events"],
            html.escape(header["digest"]),
            html.escape(json.dumps(header["options"], sort_keys=True)),
        ),
        "</body></html>",
    ]
    return "".join(parts)


def write_flight_report(workload, model="consumer3", out=None,
                        build_small=False):
    """One-call entry: run, stitch, render, write via the shared writer.

    Returns ``(path, data)``; ``out=None`` defaults to
    ``flight-<workload>-<model>.html`` in the working directory.
    """
    from repro.obs.report import write_text

    data = build_flight_data(workload, model=model, build_small=build_small)
    if out is None:
        out = "flight-{}-{}.html".format(data["workload"], data["model"])
    page = render_flight_html(data)
    write_text(page, out)
    return out, data
