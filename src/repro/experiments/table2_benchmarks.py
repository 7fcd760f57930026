"""Table II: the benchmark inventory, regenerated from our suite.

For every workload, builds the application, runs the launch-time
analysis, and reports the kernel-launch count and the set of detected
Table I dependency patterns next to the paper's values.
"""

from repro.experiments.common import format_table
from repro.workloads import all_workloads


def run(ctx):
    rows = []
    for spec in all_workloads():
        app = ctx.app(spec.name)
        plan = ctx.plan_for(app, reorder=False, window=1)
        detected = set()
        for kp in plan.kernels:
            if kp.encoded is not None:
                number = kp.encoded.original_pattern.pattern.table1_number
                detected.add(number)
        rows.append(
            {
                "benchmark": spec.name,
                "description": spec.description,
                "suite": spec.suite,
                "kernels": plan.num_kernels,
                "paper_kernels": spec.paper_kernels,
                "patterns": ",".join(str(p) for p in sorted(detected)),
                "paper_patterns": ",".join(str(p) for p in spec.paper_patterns),
            }
        )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        [
            "benchmark",
            "description",
            "suite",
            "kernels",
            "paper_kernels",
            "patterns",
            "paper_patterns",
        ],
        title="Table II: benchmarks, kernel counts and dependency patterns",
    )
