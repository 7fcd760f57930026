"""Benchmark: the streams study (paper Section III-C claim)."""

from repro.experiments import streams_study

from benchmarks.conftest import run_and_print


def test_streams_study(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: streams_study.run(ctx),
        streams_study.format_rows,
    )
    for row in rows:
        # hand-written streams beat the single-stream baseline...
        assert row["baseline_streams"] > 1.3
        # ...but BlockMaestro recovers that concurrency from the
        # *single-stream* code automatically
        assert row["bm_single"] >= row["baseline_streams"]
        # and still adds value on top of hand-written streams
        assert row["bm_streams"] >= row["baseline_streams"]
