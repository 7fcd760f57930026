"""Focused unit tests for the per-figure experiment modules."""

import pytest

from repro.experiments import (
    fig09_speedup,
    fig10_concurrency,
    fig11_stalls,
    fig12_interconnectivity,
    fig13_memory_overhead,
    fig14_comparison,
    streams_study,
    table1_overhead,
)
from repro.experiments.common import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


class TestFig09Module:
    def test_model_roster(self):
        assert fig09_speedup.MODELS == (
            "prelaunch",
            "producer",
            "consumer2",
            "consumer3",
            "consumer4",
            "ideal",
        )

    def test_single_benchmark_rows(self, ctx):
        rows = fig09_speedup.run(ctx, benchmarks=["path"])
        assert len(rows) == 2
        assert rows[-1]["benchmark"] == "geomean"
        assert rows[0]["prelaunch"] == rows[-1]["prelaunch"]


class TestFig10Module:
    def test_baseline_normalization(self, ctx):
        rows = fig10_concurrency.run(ctx, benchmarks=["path"])
        # the normalization target is the baseline itself: >= ~1 for all
        for model in fig10_concurrency.MODELS:
            assert rows[0][model] > 0.9


class TestFig11Module:
    def test_custom_model_selection(self, ctx):
        rows = fig11_stalls.run(
            ctx, benchmarks=["path"], models=("baseline",)
        )
        assert len(rows) == 1
        assert rows[0]["model"] == "baseline"
        assert rows[0]["max"] >= rows[0]["q3"]


class TestFig12Module:
    def test_degree_exceeding_size_is_none(self, ctx):
        rows = fig12_interconnectivity.run(ctx, sizes=(128,), degrees=(1, 256))
        assert rows[0]["deg256"] is None

    def test_fc_reference_attached_once(self, ctx):
        rows = fig12_interconnectivity.run(ctx, sizes=(128,), degrees=(1, 2))
        assert "fully_connected" in rows[0]


class TestFig13Module:
    def test_independent_apps_zero_overhead(self, ctx):
        rows = fig13_memory_overhead.run(ctx, benchmarks=["bicg", "mvt"])
        for row in rows[:-1]:
            assert row["overhead_pct"] == 0.0

    def test_average_row_last(self, ctx):
        rows = fig13_memory_overhead.run(ctx, benchmarks=["path"])
        assert rows[-1]["benchmark"] == "average"


class TestFig14Module:
    def test_small_side_runs(self, ctx):
        rows = fig14_comparison.run(ctx, side=8)
        assert len(rows) == 7  # 6 apps + geomean
        for row in rows:
            assert row["cdp"] == 1.0


class TestStreamsStudyModule:
    def test_columns_and_normalization(self, ctx):
        rows = streams_study.run(ctx, pipelines=(2,), stages=2)
        assert rows[0]["baseline_single"] == 1.0
        assert set(rows[0]) == {
            "pipelines",
            "baseline_single",
            "baseline_streams",
            "bm_single",
            "bm_streams",
        }


class TestTable1Module:
    def test_synthetic_graph_shapes(self):
        from repro.core.patterns import classify_pattern, DependencyPattern

        for pattern_name in (
            "fully_connected",
            "n_group",
            "one_to_one",
            "overlapped",
            "independent",
        ):
            graph = table1_overhead.synthetic_graph(pattern_name, n=16, m=16)
            detected = classify_pattern(graph).pattern
            assert detected.value.replace("_fully_connected", "") in (
                pattern_name,
                detected.value,
            )

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            table1_overhead.synthetic_graph("zigzag")

    def test_scales_with_size(self):
        small = table1_overhead.run(n=32, m=32)
        large = table1_overhead.run(n=128, m=128)
        small_fc = next(r for r in small if r["pattern"] == "fully_connected")
        large_fc = next(r for r in large if r["pattern"] == "fully_connected")
        assert large_fc["plain_bytes"] > 10 * small_fc["plain_bytes"]
        assert large_fc["encoded_bytes"] == small_fc["encoded_bytes"] == 4
