"""Figure 13: memory request overhead of dependency resolution.

BlockMaestro keeps dependency lists and parent counters in global
memory and buffers them in the TB scheduler; the extra requests (list
fetches + counter read/writebacks) are reported as a percentage of the
kernels' own global-memory requests.  The paper measures about 1.36%
on average.
"""

from repro.experiments.common import format_table
from repro.workloads import workload_names

MODEL = "producer"


def run(ctx, benchmarks=None):
    rows = []
    total = 0.0
    count = 0
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        stats = ctx.run_model(app, MODEL)
        pct = stats.memory_overhead_fraction() * 100.0
        rows.append(
            {
                "benchmark": name,
                "kernel_requests": stats.kernel_memory_requests,
                "dependency_requests": stats.dependency_memory_requests,
                "overhead_pct": pct,
            }
        )
        total += pct
        count += 1
    rows.append(
        {
            "benchmark": "average",
            "kernel_requests": None,
            "dependency_requests": None,
            "overhead_pct": total / max(count, 1),
        }
    )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["benchmark", "kernel_requests", "dependency_requests", "overhead_pct"],
        title="Figure 13: memory request overhead (%)",
    )
