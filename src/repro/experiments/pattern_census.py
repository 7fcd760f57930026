"""Pattern census: every kernel-pair graph in the suite, classified.

Table II lists each benchmark's pattern *set*; this census counts how
many of its kernel-pair graphs fall into each Table I pattern, how many
collapse under the parent-counter threshold, and the edge volume — the
quantitative backdrop for the storage results of Table III and the
encoding choices of Section III-E.
"""

from collections import Counter

from repro.core.patterns import DependencyPattern
from repro.experiments.common import format_table
from repro.workloads import workload_names

_PATTERN_COLUMNS = [
    ("fc", DependencyPattern.FULLY_CONNECTED),
    ("ngrp", DependencyPattern.N_GROUP),
    ("1to1", DependencyPattern.ONE_TO_ONE),
    ("1ton", DependencyPattern.ONE_TO_N),
    ("nto1", DependencyPattern.N_TO_ONE),
    ("ovlp", DependencyPattern.OVERLAPPED),
    ("ind", DependencyPattern.INDEPENDENT),
    ("arb", DependencyPattern.ARBITRARY),
]


def run(ctx, benchmarks=None):
    rows = []
    for name in benchmarks or workload_names():
        app = ctx.app(name)
        plan = ctx.plan_for(app, reorder=False, window=1)
        counts = Counter()
        collapsed = 0
        edges = 0
        pairs = 0
        for kp in plan.kernels:
            if kp.encoded is None:
                continue
            pairs += 1
            counts[kp.encoded.original_pattern.pattern] += 1
            collapsed += kp.encoded.collapsed
            edges += kp.encoded.original.num_edges
        row = {"benchmark": name, "pairs": pairs}
        for column, pattern in _PATTERN_COLUMNS:
            row[column] = counts.get(pattern, 0)
        row["collapsed"] = collapsed
        row["edges"] = edges
        rows.append(row)
    return rows


def format_rows(rows):
    columns = (
        ["benchmark", "pairs"]
        + [c for c, _ in _PATTERN_COLUMNS]
        + ["collapsed", "edges"]
    )
    return format_table(
        rows, columns, title="Pattern census: kernel-pair graphs by Table I class"
    )
