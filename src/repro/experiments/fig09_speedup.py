"""Figure 9: normalized speedup w.r.t. the serialized baseline.

For every benchmark, runs the whole model roster — kernel pre-launching
only, producer-priority BlockMaestro, consumer-priority BlockMaestro
with 2/3/4 concurrent kernels — plus the zero-launch-overhead ideal
baseline, and reports speedup over the baseline.

Expected shape (paper): every configuration >= 1.0; consumer priority
grows with window and saturates around 3 pre-launched kernels;
GAUSSIAN/GRAMSCHM gain mostly from pre-launching; 3MM/BICG/FDTD gain
mostly from fine-grain dependency resolution; AlexNet gains little.
"""

from repro.experiments.common import format_table, geomean
from repro.workloads import workload_names

MODELS = ("prelaunch", "producer", "consumer2", "consumer3", "consumer4", "ideal")


def run(ctx, benchmarks=None):
    rows = []
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        baseline = ctx.run_model(app, "baseline")
        row = {"benchmark": name}
        for model in MODELS:
            stats = ctx.run_model(app, model)
            row[model] = stats.speedup_over(baseline)
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for model in MODELS:
        summary[model] = geomean([r[model] for r in rows])
    rows.append(summary)
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["benchmark"] + list(MODELS),
        title="Figure 9: speedup over serialized baseline",
    )
