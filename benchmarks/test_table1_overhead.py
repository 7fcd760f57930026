"""Benchmark: regenerate Table I (encoding overhead per pattern)."""

from repro.experiments import table1_overhead

from benchmarks.conftest import run_and_print


def test_table1_overhead(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: table1_overhead.run(ctx, n=256, m=256),
        table1_overhead.format_rows,
    )
    by_pattern = {r["pattern"]: r for r in rows}
    # O(1) rows
    assert by_pattern["fully_connected"]["encoded_bytes"] == 4
    assert by_pattern["independent"]["encoded_bytes"] == 0
    # O(MN) plain for fully connected
    assert by_pattern["fully_connected"]["plain_bytes"] >= 4 * 256 * 256
    # O(M+N) encodings beat plain where the paper says they do
    assert by_pattern["n_group"]["encoded_bytes"] < (
        by_pattern["n_group"]["plain_bytes"]
    )
