"""Integration tests for the ablation studies."""

import pytest

from repro.experiments import ablations
from repro.experiments.common import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext()


class TestWindowSweep:
    def test_monotone_and_saturating(self, ctx):
        rows = ablations.run_window_sweep(
            ctx, benchmarks=("hs", "path"), windows=(1, 2, 3, 4)
        )
        geo = rows[-1]
        assert geo["benchmark"] == "geomean"
        # speedup grows with the window...
        assert geo["w1"] <= geo["w2"] <= geo["w3"] + 0.01
        # ...with diminishing returns
        assert geo["w4"] - geo["w3"] <= geo["w3"] - geo["w2"] + 0.05

    def test_format(self, ctx):
        rows = ablations.run_window_sweep(
            ctx, benchmarks=("path",), windows=(1, 2)
        )
        assert "window depth" in ablations.format_window_sweep(rows)


class TestCounterBits:
    def test_storage_monotone_in_bits(self, ctx):
        rows = ablations.run_counter_bits_sweep(ctx, bits_options=(4, 6, 8))
        ratios = [r["storage_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        collapsed = [r["collapsed_graphs"] for r in rows]
        assert collapsed == sorted(collapsed, reverse=True)

    def test_wide_counters_no_collapse(self, ctx):
        rows = ablations.run_counter_bits_sweep(ctx, bits_options=(8,))
        assert rows[0]["collapsed_graphs"] == 0
        assert rows[0]["storage_ratio"] == pytest.approx(1.0)

    def test_speedup_insensitive(self, ctx):
        """The paper's claim: collapsing high-degree graphs costs almost
        no speedup ('without much loss')."""
        rows = ablations.run_counter_bits_sweep(ctx, bits_options=(3, 8))
        assert rows[0]["speedup"] == pytest.approx(rows[-1]["speedup"], rel=0.05)


class TestReorder:
    def test_host_unblocking_dominates(self, ctx):
        rows = ablations.run_reorder_ablation(ctx, stages=4)
        by_key = {(r["host"], r["reordered"]): r["speedup"] for r in rows}
        # un-blocking the host is worth far more than queue reordering
        assert by_key[("non-blocking", "no")] > by_key[("blocking", "yes")]
        assert by_key[("non-blocking", "no")] > by_key[("blocking", "no")]

    def test_all_beat_baseline(self, ctx):
        rows = ablations.run_reorder_ablation(ctx, stages=4)
        for row in rows:
            assert row["speedup"] > 1.0


class TestJitter:
    def test_fine_grain_gain_grows_with_variance(self, ctx):
        rows = ablations.run_jitter_sweep(
            ctx, jitters=(0.0, 0.3), benchmarks=("hs", "path")
        )
        assert rows[-1]["fine_grain_gain"] >= rows[0]["fine_grain_gain"]

    def test_gain_at_least_neutral(self, ctx):
        rows = ablations.run_jitter_sweep(
            ctx, jitters=(0.0,), benchmarks=("hs",)
        )
        assert rows[0]["fine_grain_gain"] >= 0.99


class TestHazards:
    def test_full_tracking_cost_small(self, ctx):
        """Ping-pong structured workloads: WAR/WAW edges coincide with
        RAW edges, so full hazard tracking is nearly free."""
        rows = ablations.run_hazard_ablation(
            ctx, benchmarks=("hs", "path", "3mm")
        )
        for row in rows:
            assert abs(row["cost_pct"]) < 5.0


class TestStreamingApp:
    def test_structure(self):
        app = ablations.build_streaming_app(stages=3)
        assert app.num_kernel_launches == 3
        # interleaved: a memcpy sits between consecutive kernels
        kinds = [type(c).__name__ for c in app.trace.calls]
        k_positions = [i for i, k in enumerate(kinds) if k == "KernelLaunchCall"]
        between = kinds[k_positions[0] + 1 : k_positions[1]]
        assert "MemcpyH2D" in between


class TestCoalescing:
    def test_contiguous_kernels_unaffected(self, ctx):
        rows = ablations.run_coalescing_ablation(
            ctx, benchmarks=("hs", "path")
        )
        for row in rows:
            assert row["mean_coalescing"] == pytest.approx(1.0)
            assert row["speedup_on"] == pytest.approx(row["speedup_off"])

    def test_strided_kernels_detected(self, ctx):
        rows = ablations.run_coalescing_ablation(ctx, benchmarks=("bicg",))
        assert rows[0]["mean_coalescing"] > 2.0


class TestLaunchOverheadSweep:
    def test_speedup_grows_with_overhead(self, ctx):
        rows = ablations.run_launch_overhead_sweep(
            ctx, overheads_us=(2, 10), benchmarks=("gaussian",)
        )
        assert rows[1]["gaussian"] > rows[0]["gaussian"]

    def test_launch_bound_apps_scale_more(self, ctx):
        rows = ablations.run_launch_overhead_sweep(
            ctx, overheads_us=(2, 20), benchmarks=("gaussian", "hs")
        )
        gaussian_gain = rows[1]["gaussian"] / rows[0]["gaussian"]
        hs_gain = rows[1]["hs"] / rows[0]["hs"]
        assert gaussian_gain > hs_gain
