"""Integration smoke tests for every experiment module.

Each paper artifact's ``run()`` executes on reduced configurations and
the output rows are checked for the paper's qualitative *shapes* (who
wins, orderings, convergence points) — the full-size rows are checked
by tests/regression/test_artifact_shapes.py.
"""

import pytest

from repro.experiments import ExperimentContext, geomean
from repro.experiments import (
    fig09_speedup,
    fig10_concurrency,
    fig11_stalls,
    fig12_interconnectivity,
    fig13_memory_overhead,
    fig14_comparison,
    table1_overhead,
    table2_benchmarks,
    table3_storage,
)

FAST_BENCHMARKS = ["bicg", "hs", "path"]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


class TestFig09:
    def test_rows_and_shape(self, ctx):
        rows = fig09_speedup.run(ctx, benchmarks=FAST_BENCHMARKS)
        assert [r["benchmark"] for r in rows] == FAST_BENCHMARKS + ["geomean"]
        for row in rows:
            # everything beats (or ties) the baseline
            for model in fig09_speedup.MODELS:
                assert row[model] >= 0.99
            # fine-grain >= coarse pre-launching
            assert row["producer"] >= row["prelaunch"] - 0.01

    def test_formatting(self, ctx):
        rows = fig09_speedup.run(ctx, benchmarks=FAST_BENCHMARKS)
        text = fig09_speedup.format_rows(rows)
        assert "Figure 9" in text
        assert "geomean" in text


class TestFig10:
    def test_concurrency_normalized(self, ctx):
        rows = fig10_concurrency.run(ctx, benchmarks=FAST_BENCHMARKS)
        for row in rows[:-1]:
            for model in fig10_concurrency.MODELS:
                assert row[model] >= 0.95


class TestFig11:
    def test_blockmaestro_reduces_stalls(self, ctx):
        rows = fig11_stalls.run(ctx, benchmarks=FAST_BENCHMARKS)
        by_key = {(r["benchmark"], r["model"]): r for r in rows}
        for name in FAST_BENCHMARKS:
            base = by_key[(name, "baseline")]
            bm = by_key[(name, "consumer3")]
            assert bm["median"] <= base["median"] + 1e-9
            assert base["q1"] <= base["median"] <= base["q3"]


class TestFig12:
    def test_reduced_sweep(self, ctx):
        rows = fig12_interconnectivity.run(
            ctx, sizes=(128, 512), degrees=(1, 8, 64, 128)
        )
        assert len(rows) == 2
        for row in rows:
            degs = [row[f"deg{d}"] for d in (1, 8, 64, 128) if row.get(f"deg{d}")]
            assert all(v > 0.9 for v in degs)
        # larger workloads gain less at low degree
        assert rows[0]["deg1"] >= rows[1]["deg1"] - 0.05

    def test_collapse_matches_fc_reference(self, ctx):
        rows = fig12_interconnectivity.run(ctx, sizes=(256,), degrees=(1, 128))
        row = rows[0]
        assert row["deg128"] == pytest.approx(row["fully_connected"], rel=1e-6)


class TestFig13:
    def test_overhead_small(self, ctx):
        rows = fig13_memory_overhead.run(ctx, benchmarks=FAST_BENCHMARKS)
        avg = rows[-1]
        assert avg["benchmark"] == "average"
        assert 0.0 <= avg["overhead_pct"] < 10.0


class TestFig14:
    def test_ordering(self, ctx):
        rows = fig14_comparison.run(ctx, side=16)
        summary = rows[-1]
        assert summary["benchmark"] == "geomean"
        # the paper's ordering: consumer BM > wireframe > producer BM > CDP
        assert summary["bm-consumer"] > summary["wireframe"]
        assert summary["wireframe"] > summary["bm-producer"]
        assert summary["bm-producer"] > 1.0


class TestTables:
    def test_table1_detects_all_patterns(self):
        rows = table1_overhead.run()
        detected = {r["pattern"]: r for r in rows}
        assert detected["fully_connected"]["encoded_bytes"] == 4
        assert detected["independent"]["encoded_bytes"] == 0
        assert detected["n_group"]["encoded_bytes"] < detected["n_group"]["plain_bytes"]
        for name in ("one_to_one", "one_to_n", "n_to_one", "overlapped"):
            assert detected[name]["detected"] == name

    def test_table2_counts(self, ctx):
        rows = table2_benchmarks.run(ctx)
        assert len(rows) == 12
        for row in rows:
            assert row["kernels"] == row["paper_kernels"]

    def test_table3_shape(self, ctx):
        rows = table3_storage.run(ctx)
        by_name = {r["benchmark"]: r for r in rows}
        # independent-kernel apps have no dependency storage at all
        assert by_name["bicg"]["ratio"] is None
        assert by_name["mvt"]["ratio"] is None
        # stencil apps gain nothing from encoding
        for name in ("hs", "path", "fft", "nw"):
            assert by_name[name]["ratio"] == pytest.approx(1.0)
        # collapse/FC-heavy apps gain a lot
        for name in ("3mm", "alexnet", "gaussian", "gramschm"):
            assert by_name[name]["ratio"] < 0.6
        assert 0.0 < by_name["average"]["ratio"] < 1.0


def test_geomean_helper():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
