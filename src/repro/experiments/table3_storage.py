"""Table III: total bipartite dependency graph storage, normalized to
plain (unencoded) storage, for the whole run of each application.

Expected shape (paper): applications whose graphs are fully connected
or collapse under the degree threshold (AlexNet, GAUSSIAN, 3MM,
GRAMSCHM) shrink well below 1; pure stencil/butterfly applications
(FDTD, FFT, HS, NW, PATH) stay at exactly 1; BICG and MVT have no
dependencies at all (no storage).
"""

from repro.experiments.common import format_table
from repro.workloads import workload_names


def run(ctx, benchmarks=None):
    rows = []
    ratios = []
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        plan = ctx.plan_for(app, reorder=False, window=1)
        ratio = (
            plan.graph_encoded_bytes / plan.graph_plain_bytes
            if plan.graph_plain_bytes
            else None
        )
        rows.append(
            {
                "benchmark": name,
                "plain_bytes": plan.graph_plain_bytes,
                "encoded_bytes": plan.graph_encoded_bytes,
                "ratio": ratio,
            }
        )
        if ratio is not None:
            ratios.append(ratio)
    rows.append(
        {
            "benchmark": "average",
            "plain_bytes": None,
            "encoded_bytes": None,
            "ratio": sum(ratios) / len(ratios) if ratios else None,
        }
    )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        ["benchmark", "plain_bytes", "encoded_bytes", "ratio"],
        title="Table III: dependency graph storage normalized to plain",
    )
