"""Figure 14: comparison with CDP and Wireframe on wavefront workloads.

Six 4K-task wavefront applications run under four execution models:

* **CDP** — device-side per-level launches at 3 us (the normalization
  baseline);
* **BlockMaestro producer priority** (window 2);
* **Wireframe** — zero launch overhead, hardware dependency graph, but
  run-ahead limited by its pending-update buffers;
* **BlockMaestro consumer priority** (window 4) — unconstrained
  run-ahead with dependency state in global memory.

Expected shape (paper): producer-priority BlockMaestro edges out CDP
(~6%), Wireframe is clearly better (~37%), and consumer-priority
BlockMaestro beats Wireframe (~2x over CDP) because its run-ahead is
not buffer-constrained.
"""

from repro.experiments.common import format_table, geomean
from repro.models import CDPModel, WireframeModel
from repro.workloads.wavefront import WAVEFRONT_APPS, build_wavefront

MODELS = ("cdp", "bm-producer", "wireframe", "bm-consumer")


def run(ctx, side=64):
    cfg = ctx.gpu_config
    rows = []
    for name, parents, intensity, factor, fraction in WAVEFRONT_APPS:
        app = build_wavefront(
            name,
            side=side,
            parents=parents,
            intensity=intensity,
            straggler_factor=factor,
            straggler_fraction=fraction,
        )
        stats = {
            "cdp": CDPModel(cfg).run(ctx.plan_for(app, False, 1)),
            "bm-producer": ctx.simulate(app, "producer"),
            "wireframe": WireframeModel(cfg).run(ctx.plan_for(app, True, 3)),
            "bm-consumer": ctx.simulate(app, "consumer4"),
        }
        row = {"benchmark": name}
        for model_name in MODELS:
            row[model_name] = stats[model_name].speedup_over(stats["cdp"])
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for model_name in MODELS:
        summary[model_name] = geomean([r[model_name] for r in rows])
    rows.append(summary)
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["benchmark"] + list(MODELS),
        title="Figure 14: speedup normalized to CDP",
    )
