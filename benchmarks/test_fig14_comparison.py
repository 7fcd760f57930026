"""Benchmark: regenerate Figure 14 (CDP vs Wireframe vs BlockMaestro)."""

from repro.experiments import fig14_comparison

from benchmarks.conftest import run_and_print


def test_fig14_comparison(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: fig14_comparison.run(ctx),
        fig14_comparison.format_rows,
    )
    geo = rows[-1]
    # the paper's ordering: producer-priority BlockMaestro modestly beats
    # CDP, Wireframe clearly beats both, and consumer-priority
    # BlockMaestro beats Wireframe (~2x over CDP)
    assert 1.0 < geo["bm-producer"] < geo["wireframe"] < geo["bm-consumer"]
    assert geo["bm-consumer"] > 1.7
