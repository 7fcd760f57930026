"""Figure 10: normalized average thread-block concurrency.

Average number of concurrently executing thread blocks (time integral
of running blocks over device-busy time), normalized to the serialized
baseline.  Fine-grain dependency resolution raises concurrency by
letting dependent kernels' blocks fill freed SM slots.
"""

from repro.experiments.common import format_table, geomean
from repro.workloads import workload_names

MODELS = ("prelaunch", "producer", "consumer2", "consumer3", "consumer4")


def run(ctx, benchmarks=None):
    rows = []
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        base = ctx.run_model(app, "baseline").avg_tb_concurrency()
        row = {"benchmark": name}
        for model in MODELS:
            conc = ctx.run_model(app, model).avg_tb_concurrency()
            row[model] = conc / base if base > 0 else 0.0
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
        title="Figure 10: normalized average TB concurrency",
    )
