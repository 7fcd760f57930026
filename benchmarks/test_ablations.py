"""Benchmark: ablation studies for BlockMaestro's design choices."""

from repro.experiments import ablations

from benchmarks.conftest import run_and_print


def test_ablation_window_sweep(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_window_sweep(ctx),
        ablations.format_window_sweep,
    )
    geo = rows[-1]
    assert geo["w3"] >= geo["w2"] >= geo["w1"]
    # diminishing returns past window 3-4
    assert geo["w6"] - geo["w4"] < geo["w3"] - geo["w1"]


def test_ablation_counter_bits(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_counter_bits_sweep(ctx),
        ablations.format_counter_bits,
    )
    # the 6-bit choice of the paper sits on the flat part of the
    # speedup curve while still collapsing most high-degree graphs
    by_bits = {r["counter_bits"]: r for r in rows}
    assert by_bits[6]["speedup"] >= by_bits[8]["speedup"] * 0.97
    assert by_bits[6]["storage_ratio"] < by_bits[8]["storage_ratio"]


def test_ablation_reorder(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_reorder_ablation(ctx),
        ablations.format_reorder,
    )
    by_key = {(r["host"], r["reordered"]): r["speedup"] for r in rows}
    assert by_key[("non-blocking", "no")] > by_key[("blocking", "no")]


def test_ablation_jitter(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_jitter_sweep(ctx),
        ablations.format_jitter,
    )
    assert rows[-1]["fine_grain_gain"] >= rows[0]["fine_grain_gain"] - 0.01


def test_ablation_hazards(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_hazard_ablation(ctx),
        ablations.format_hazards,
    )
    for row in rows:
        assert abs(row["cost_pct"]) < 10.0


def test_ablation_coalescing(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_coalescing_ablation(ctx),
        ablations.format_coalescing,
    )
    for row in rows:
        assert row["mean_coalescing"] >= 1.0
        # contiguous kernels are unaffected by the model
        if row["mean_coalescing"] == 1.0:
            assert row["speedup_on"] == row["speedup_off"]


def test_ablation_launch_overhead(benchmark, ctx):
    rows = run_and_print(
        benchmark,
        lambda: ablations.run_launch_overhead_sweep(ctx),
        ablations.format_launch_overhead,
    )
    # benefit grows with the launch cost and saturates
    first, last = rows[0], rows[-1]
    for name in ("gaussian", "nw", "hs"):
        assert last[name] > first[name]
