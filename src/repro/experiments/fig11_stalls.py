"""Figure 11: dependency-stall distribution per thread block.

A thread block's dependency stall is the time between its data
dependencies being satisfied and it starting execution, normalized to
its own execution time (a value of 2 = it waited twice as long as it
ran).  The paper shows box plots (quartiles + median) for the baseline
vs. BlockMaestro; BICG and MVT collapse to ~0 under BlockMaestro since
their two kernels run concurrently.
"""

from repro.experiments.common import format_table
from repro.workloads import workload_names

MODELS = ("baseline", "consumer3")


def run(ctx, benchmarks=None, models=MODELS):
    rows = []
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        for model in models:
            stats = ctx.run_model(app, model)
            q1, median, q3 = stats.stall_quartiles()
            rows.append(
                {
                    "benchmark": name,
                    "model": model,
                    "q1": q1,
                    "median": median,
                    "q3": q3,
                    "max": max(stats.normalized_stalls(), default=0.0),
                }
            )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["benchmark", "model", "q1", "median", "q3", "max"],
        title="Figure 11: dependency stall distribution (normalized to TB time)",
    )
