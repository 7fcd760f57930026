"""Integration tests: the full pipeline on real workloads.

Every Table II workload flows through build -> reorder -> analysis ->
graph construction -> encoding -> simulation under multiple execution
models, with cross-model invariants checked.  Workloads with large
kernel counts use scaled-down parameters to keep the suite fast; the
full-size runs are the paper artifacts in tests/regression/.
"""

import pytest

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.models import (
    BlockMaestroModel,
    IdealBaseline,
    PrelaunchOnly,
    SerializedBaseline,
)
from repro.workloads import get_workload
from repro.workloads.microbench import build_vecadd_pair
from repro.workloads.wavefront import build_wavefront

#: (name, scaled-down build overrides)
SCALED = [
    ("3mm", {}),
    ("alexnet", {"scale": 16384}),
    ("bicg", {"blocks": 8, "k": 64}),
    ("fdtd-2d", {"iterations": 3}),
    ("fft", {"batches": 1, "stages": 6, "half_elems": 4096}),
    ("gaussian", {"n": 32, "stride": 320}),
    ("gramschm", {"columns": 8}),
    ("hs", {"iterations": 4, "rows_of_blocks": 64}),
    ("lud", {"tiles": 6}),
    ("mvt", {"blocks": 8, "k": 64}),
    ("nw", {"block_diagonals": 12}),
    ("path", {"iterations": 3, "cols_of_blocks": 64}),
]


@pytest.fixture(scope="module")
def runtime():
    return BlockMaestroRuntime()


@pytest.mark.parametrize("name,overrides", SCALED, ids=[s[0] for s in SCALED])
class TestWorkloadEndToEnd:
    def test_full_pipeline(self, runtime, name, overrides):
        app = get_workload(name).build(**overrides)
        strict = runtime.plan(app, reorder=False, window=1)
        relaxed = runtime.plan(app, reorder=True, window=3)

        baseline = SerializedBaseline().run(strict)
        ideal = IdealBaseline().run(strict)
        prelaunch = PrelaunchOnly(window=3).run(relaxed)
        producer = BlockMaestroModel(
            window=3, policy=SchedulingPolicy.PRODUCER_PRIORITY
        ).run(relaxed)
        consumer = BlockMaestroModel(
            window=3, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(relaxed)

        # model-invariant: same total thread blocks everywhere
        counts = {
            len(stats.tb_records)
            for stats in (baseline, ideal, prelaunch, producer, consumer)
        }
        assert len(counts) == 1

        # ideal strictly removes launch overhead
        assert ideal.makespan_ns <= baseline.makespan_ns

        # pre-launching never loses to the serialized baseline
        assert prelaunch.makespan_ns <= baseline.makespan_ns * 1.001

        # fine-grain resolution never loses to coarse pre-launching
        assert producer.makespan_ns <= prelaunch.makespan_ns * 1.01

        # stall distributions shrink (or stay equal) under BlockMaestro
        base_median = baseline.stall_quartiles()[1]
        bm_median = consumer.stall_quartiles()[1]
        assert bm_median <= base_median + 1e-9

    def test_memory_overhead_small(self, runtime, name, overrides):
        app = get_workload(name).build(**overrides)
        relaxed = runtime.plan(app, reorder=True, window=2)
        stats = BlockMaestroModel(window=2).run(relaxed)
        assert stats.memory_overhead_fraction() < 0.25

    def test_storage_ratio_bounded(self, runtime, name, overrides):
        app = get_workload(name).build(**overrides)
        plan = runtime.plan(app, reorder=False, window=1)
        if plan.graph_plain_bytes:
            ratio = plan.graph_encoded_bytes / plan.graph_plain_bytes
            assert 0 < ratio <= 1.0


class TestIndependentKernelWorkloads:
    """BICG and MVT: the paper's concurrent-kernel showcases."""

    @pytest.mark.parametrize("name", ["bicg", "mvt"])
    def test_kernels_run_concurrently(self, runtime, name):
        app = get_workload(name).build(blocks=8, k=64)
        relaxed = runtime.plan(app, reorder=True, window=2)
        stats = BlockMaestroModel(window=2).run(relaxed)
        k1, k2 = stats.kernel_records
        assert k2.first_tb_start_ns < k1.all_tbs_done_ns

    @pytest.mark.parametrize("name", ["bicg", "mvt"])
    def test_stalls_collapse(self, runtime, name):
        app = get_workload(name).build(blocks=8, k=64)
        strict = runtime.plan(app, reorder=False, window=1)
        relaxed = runtime.plan(app, reorder=True, window=2)
        base = SerializedBaseline().run(strict)
        bm = BlockMaestroModel(window=2).run(relaxed)
        assert bm.stall_quartiles()[2] < base.stall_quartiles()[2]


class TestMicrobenchIntegration:
    def test_degree_sweep_monotone_envelope(self, runtime):
        """Fine-grain benefit decays (weakly) with dependency degree."""
        speedups = []
        for degree in (1, 4, 16, 64):
            app = build_vecadd_pair(num_tbs=256, degree=degree)
            rt = BlockMaestroRuntime()
            base = SerializedBaseline().run(rt.plan(app, reorder=False, window=1))
            bm = BlockMaestroModel(window=2).run(rt.plan(app, reorder=True, window=2))
            speedups.append(bm.speedup_over(base))
        assert speedups[0] >= speedups[-1] - 0.02

    def test_collapsed_degree_equals_fully_connected(self, runtime):
        app = build_vecadd_pair(num_tbs=256, degree=128)
        rt = BlockMaestroRuntime()
        plan = rt.plan(app, reorder=True, window=2)
        assert plan.kernels[1].encoded.collapsed
        fc = PrelaunchOnly(window=2).run(plan)
        bm = BlockMaestroModel(window=2).run(plan)
        assert bm.makespan_ns == pytest.approx(fc.makespan_ns, rel=1e-6)


class TestWavefrontIntegration:
    def test_wavefront_pipeline(self, runtime):
        app = build_wavefront(
            "it_wf", side=12, parents=2, intensity=2.0,
            straggler_factor=4.0, straggler_fraction=0.2,
        )
        relaxed = runtime.plan(app, reorder=True, window=4)
        stats = BlockMaestroModel(
            window=4, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(relaxed)
        stats.validate_invariants()
        assert len(stats.kernel_records) == 2 * 12 - 2

    def test_run_ahead_beats_serialized_levels(self, runtime):
        app = build_wavefront(
            "it_wf2", side=12, parents=2, intensity=2.0,
            straggler_factor=4.0, straggler_fraction=0.2,
        )
        strict = runtime.plan(app, reorder=False, window=1)
        relaxed = runtime.plan(app, reorder=True, window=4)
        base = SerializedBaseline().run(strict)
        bm = BlockMaestroModel(
            window=4, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(relaxed)
        assert bm.speedup_over(base) > 1.2
