"""Figure 12: interconnectivity analysis.

Sweeps the dependency degree of a two-kernel VectorAdd microbenchmark
(n-group pattern with groups of ``degree``) for several workload sizes
(thread blocks per kernel), reporting BlockMaestro's speedup over the
serialized baseline, plus the fully-connected reference (pre-launch
only) each curve converges to.

Expected shape (paper): benefits decay as the degree grows and flatten
to the fully-connected level once the degree crosses the encodable
threshold; larger workloads gain less (execution swamps the launch
overhead), with the speedup essentially gone by 2048 blocks per kernel.
"""

from repro.experiments.common import format_table
from repro.workloads.microbench import build_vecadd_pair

SIZES = (128, 256, 512, 1024, 2048)
DEGREES = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def run(ctx, sizes=SIZES, degrees=DEGREES):
    rows = []
    for size in sizes:
        row = {"num_tbs": size}
        for degree in degrees:
            if degree > size:
                row["deg{}".format(degree)] = None
                continue
            app = build_vecadd_pair(num_tbs=size, degree=degree)
            base_stats = ctx.simulate(app, "baseline")
            bm_stats = ctx.simulate(app, "producer")
            row["deg{}".format(degree)] = bm_stats.speedup_over(base_stats)
            if degree == degrees[0]:
                fc_stats = ctx.simulate(app, "prelaunch")
                row["fully_connected"] = fc_stats.speedup_over(base_stats)
        rows.append(row)
    return rows


def format_rows(rows):
    columns = ["num_tbs"] + ["deg{}".format(d) for d in DEGREES] + ["fully_connected"]
    return format_table(
        rows, columns, title="Figure 12: speedup vs dependency degree"
    )
