"""Table I: hardware storage overhead per dependency pattern.

Builds a synthetic bipartite graph for each of the seven patterns,
checks the classifier recovers the pattern, and reports the measured
encoded storage against the paper's asymptotic bound.
"""

from repro.core.dependency_graph import BipartiteGraph
from repro.core.encoding import encode_graph, plain_bytes
from repro.core.patterns import classify_pattern
from repro.experiments.common import format_table


def synthetic_graph(pattern, n=64, m=64, group=8, degree=3):
    """Construct a canonical graph for each Table I pattern."""
    if pattern == "fully_connected":
        return BipartiteGraph.fully_connected(n, m)
    if pattern == "independent":
        return BipartiteGraph.independent(n, m)
    if pattern == "one_to_one":
        return BipartiteGraph.explicit(n, n, [[p] for p in range(n)])
    if pattern == "one_to_n":
        fan = m // n
        return BipartiteGraph.explicit(
            n, m, [list(range(p * fan, (p + 1) * fan)) for p in range(n)]
        )
    if pattern == "n_to_one":
        fan = n // m
        children = [[p // fan] for p in range(n)]
        return BipartiteGraph.explicit(n, m, children)
    if pattern == "n_group":
        children = [
            list(range((p // group) * group, (p // group + 1) * group))
            for p in range(n)
        ]
        return BipartiteGraph.explicit(n, n, children)
    if pattern == "overlapped":
        children = [
            [c for c in range(p - degree + 1, p + 1) if 0 <= c < m]
            for p in range(n)
        ]
        return BipartiteGraph.explicit(n, m, children)
    raise KeyError(pattern)


PATTERNS = (
    ("fully_connected", "O(1) (O(MN) plain)"),
    ("n_group", "O(M+N)"),
    ("one_to_one", "O(N)"),
    ("one_to_n", "O(M+N)"),
    ("n_to_one", "O(N)"),
    ("overlapped", "O(N + M*deg_max)"),
    ("independent", "O(1)"),
)


def run(ctx=None, n=64, m=64):
    """Table I is analytic: it reads nothing from ``ctx``."""
    rows = []
    for pattern_name, bound in PATTERNS:
        # asymmetric sides keep 1-to-n / n-to-1 from degenerating to 1-to-1
        if pattern_name == "one_to_n":
            graph = synthetic_graph(pattern_name, n=n // 4, m=m)
        elif pattern_name == "n_to_one":
            graph = synthetic_graph(pattern_name, n=n, m=m // 4)
        else:
            graph = synthetic_graph(pattern_name, n=n, m=m)
        detected = classify_pattern(graph)
        encoded = encode_graph(graph)
        rows.append(
            {
                "pattern": pattern_name,
                "table1_row": detected.pattern.table1_number,
                "detected": detected.pattern.value,
                "plain_bytes": plain_bytes(graph),
                "encoded_bytes": encoded.encoded_bytes,
                "paper_bound": bound,
            }
        )
    return rows


def format_rows(rows):
    return format_table(
        rows,
        [
            "pattern",
            "table1_row",
            "detected",
            "plain_bytes",
            "encoded_bytes",
            "paper_bound",
        ],
        title="Table I: encoding overhead per dependency pattern (N=M=64)",
    )
