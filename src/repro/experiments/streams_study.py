"""Streams study: programmer-managed streams vs. BlockMaestro.

Quantifies the paper's Section III-C / Fig. 11 remark that BlockMaestro
"can gain the benefit of executing independent concurrent kernels
across streams automatically, while also extracting benefits for more
complex dependency patterns":

* the same multi-pipeline computation is written single-stream (legacy
  style) and multi-stream (hand-optimized);
* the serialized baseline only overlaps the multi-stream version;
* BlockMaestro recovers (and exceeds) the multi-stream baseline's
  performance *from the single-stream code*, and still adds pre-launch
  and fine-grain overlap on top of hand-written streams.
"""

from repro.experiments.common import format_table
from repro.workloads.streams import build_pipelines


def run(ctx, pipelines=(2, 3, 4), stages=4):
    """BlockMaestro is consumer priority over a window of 4 kernels."""
    rows = []
    for count in pipelines:
        single = build_pipelines(pipelines=count, stages=stages, use_streams=False)
        multi = build_pipelines(pipelines=count, stages=stages, use_streams=True)
        base_single = ctx.simulate(single, "baseline")
        base_multi = ctx.simulate(multi, "baseline")
        bm_single = ctx.simulate(single, "consumer4")
        bm_multi = ctx.simulate(multi, "consumer4")
        rows.append(
            {
                "pipelines": count,
                "baseline_single": 1.0,
                "baseline_streams": base_single.makespan_ns / base_multi.makespan_ns,
                "bm_single": base_single.makespan_ns / bm_single.makespan_ns,
                "bm_streams": base_single.makespan_ns / bm_multi.makespan_ns,
            }
        )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        [
            "pipelines",
            "baseline_single",
            "baseline_streams",
            "bm_single",
            "bm_streams",
        ],
        title="Streams study: speedup over the single-stream baseline",
    )
