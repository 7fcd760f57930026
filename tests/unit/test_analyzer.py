"""Unit tests for the launch-time value-range analyzer."""

import pytest

from repro.analysis.analyzer import (
    AnalysisError,
    LaunchConfig,
    analyze_kernel,
)
from repro.analysis.intervals import Interval, IntervalSet
from repro.obs import MetricsRegistry
from repro.ptx.parser import parse_kernel
from repro.workloads import ptxgen


class TestLaunchConfig:
    def test_create_from_ints(self):
        cfg = LaunchConfig.create(grid=4, block=64)
        assert cfg.grid == (4, 1, 1)
        assert cfg.block == (64, 1, 1)

    def test_create_from_tuples(self):
        cfg = LaunchConfig.create(grid=(2, 3), block=(8, 8))
        assert cfg.grid == (2, 3, 1)
        assert cfg.num_tbs == 6
        assert cfg.threads_per_tb == 64

    def test_rejects_zero_dims(self):
        with pytest.raises(AnalysisError):
            LaunchConfig.create(grid=0, block=32)

    def test_args_dict(self):
        cfg = LaunchConfig.create(grid=1, block=1, args={"A": 5})
        assert cfg.args_dict == {"A": 5}

    def test_hashable(self):
        a = LaunchConfig.create(grid=1, block=1, args={"A": 5})
        b = LaunchConfig.create(grid=1, block=1, args={"A": 5})
        assert a == b
        assert hash(a) == hash(b)


class TestStraightLine:
    def test_vecadd_sets(self, vecadd_summary):
        assert vecadd_summary.fallback is None
        # TB 0: 64 threads x 4B from each input
        assert vecadd_summary.tb_reads(0) == IntervalSet(
            [Interval(0, 256), Interval(1 << 16, (1 << 16) + 256)]
        )
        assert vecadd_summary.tb_writes(0) == IntervalSet(
            [Interval(1 << 17, (1 << 17) + 256)]
        )

    def test_per_tb_disjoint_writes(self, vecadd_summary):
        w0 = vecadd_summary.tb_writes(0)
        w1 = vecadd_summary.tb_writes(1)
        assert not w0.overlaps(w1)

    def test_kernel_sets_cover_tb_sets(self, vecadd_summary):
        kr = vecadd_summary.kernel_reads()
        for tb in range(vecadd_summary.num_tbs):
            for iv in vecadd_summary.tb_reads(tb):
                assert kr.overlaps_interval(iv)

    def test_dynamic_mix_counts(self, vecadd_summary):
        mix = vecadd_summary.dynamic_mix
        assert mix["mem_global"] == 3
        assert mix["mem_param"] == 4

    def test_record_count(self, vecadd_summary):
        kinds = sorted(r.kind for r in vecadd_summary.records)
        assert kinds == ["read", "read", "write"]


class TestLoops:
    def test_rowsum_exact(self, rowsum_kernel):
        launch = LaunchConfig.create(
            grid=2, block=32, args={"A": 0, "Y": 1 << 20, "K": 16}
        )
        summary = analyze_kernel(rowsum_kernel, launch)
        assert summary.fallback is None
        # TB0 threads 0..31 each read a 16-element row: rows 0..31
        assert summary.tb_reads(0) == IntervalSet([Interval(0, 32 * 16 * 4)])
        assert summary.tb_reads(1) == IntervalSet(
            [Interval(32 * 16 * 4, 64 * 16 * 4)]
        )

    def test_loop_trip_scales_dynamic_mix(self, rowsum_kernel):
        launch_small = LaunchConfig.create(
            grid=1, block=32, args={"A": 0, "Y": 1 << 20, "K": 4}
        )
        launch_large = LaunchConfig.create(
            grid=1, block=32, args={"A": 0, "Y": 1 << 20, "K": 64}
        )
        small = analyze_kernel(rowsum_kernel, launch_small)
        large = analyze_kernel(rowsum_kernel, launch_large)
        assert large.dynamic_mix["mem_global"] > small.dynamic_mix["mem_global"]

    def test_zero_extent_loop_bound(self, rowsum_kernel):
        # K = 1: the do-while body runs once
        launch = LaunchConfig.create(
            grid=1, block=4, args={"A": 0, "Y": 1 << 20, "K": 1}
        )
        summary = analyze_kernel(rowsum_kernel, launch)
        assert summary.fallback is None
        assert summary.tb_reads(0).total_bytes() == 4 * 4

    def test_nested_loop(self):
        kernel = parse_kernel(
            """
            .visible .entry k (.param .u64 A, .param .u64 Y, .param .u32 M, .param .u32 N)
            {
                ld.param.u64 %rdA, [A];
                ld.param.u64 %rdY, [Y];
                ld.param.u32 %rM, [M];
                ld.param.u32 %rN, [N];
                mov.u32 %i, 0;
            OUTER:
                mov.u32 %j, 0;
            INNER:
                mad.lo.u32 %idx, %i, %rN, %j;
                mul.wide.u32 %rd1, %idx, 4;
                add.u64 %rd2, %rdA, %rd1;
                ld.global.f32 %f1, [%rd2];
                add.u32 %j, %j, 1;
                setp.lt.u32 %p1, %j, %rN;
                @%p1 bra INNER;
                add.u32 %i, %i, 1;
                setp.lt.u32 %p2, %i, %rM;
                @%p2 bra OUTER;
                mov.u32 %t, %tid.x;
                mul.wide.u32 %rd3, %t, 4;
                add.u64 %rd4, %rdY, %rd3;
                st.global.f32 [%rd4], %f1;
                ret;
            }
            """
        )
        launch = LaunchConfig.create(
            grid=1, block=1, args={"A": 0, "Y": 1 << 20, "M": 3, "N": 5}
        )
        metrics = MetricsRegistry()
        summary = analyze_kernel(kernel, launch, metrics=metrics)
        assert summary.fallback is None
        # reads i*5 + j for i in [0,3), j in [0,5): elements 0..14
        assert summary.tb_reads(0) == IntervalSet([Interval(0, 15 * 4)])
        # the outer body holds the inner latch, so the outer loop declines
        # to the simulator; the inner loop is solved in closed form
        counters = metrics.snapshot()["counters"]
        assert counters["analysis.tripcount.simulated"] == 1
        assert counters["analysis.tripcount.closed_form"] >= 1


class TestFallbacks:
    def test_indirect_is_non_static(self, indirect_kernel):
        launch = LaunchConfig.create(
            grid=1, block=32, args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17}
        )
        summary = analyze_kernel(indirect_kernel, launch)
        assert summary.fallback == "non_static"

    def test_fallback_summary_has_no_sets(self, indirect_kernel):
        launch = LaunchConfig.create(
            grid=1, block=32, args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17}
        )
        summary = analyze_kernel(indirect_kernel, launch)
        with pytest.raises(AnalysisError):
            summary.tb_reads(0)

    def test_missing_argument_fallback(self, vecadd_kernel):
        launch = LaunchConfig.create(grid=1, block=32, args={"A": 0})
        summary = analyze_kernel(vecadd_kernel, launch)
        assert summary.fallback in ("missing_arg", "unresolved")

    def test_indirect_gather_generator(self):
        kernel = parse_kernel(ptxgen.indirect_gather("ig"))
        launch = LaunchConfig.create(
            grid=2, block=32, args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17}
        )
        summary = analyze_kernel(kernel, launch)
        assert summary.fallback == "non_static"

    def test_fallback_keeps_static_mix(self, indirect_kernel):
        launch = LaunchConfig.create(
            grid=1, block=32, args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17}
        )
        summary = analyze_kernel(indirect_kernel, launch)
        assert summary.dynamic_mix["mem_global"] > 0


class TestOverApproximation:
    """Guarded tails over-approximate but never under-approximate."""

    def test_guarded_tail_included(self, vecadd_kernel):
        # N smaller than the grid: guarded-off threads still counted
        launch = LaunchConfig.create(
            grid=4,
            block=64,
            args={"A": 0, "B": 1 << 16, "C": 1 << 17, "N": 100},
        )
        summary = analyze_kernel(vecadd_kernel, launch)
        # last TB's accesses still recorded (over-approximation)
        assert not summary.tb_reads(3).empty

    def test_2d_grid_coords(self, produce_kernel):
        launch = LaunchConfig.create(
            grid=(2, 2), block=16, args={"IN0": 0, "OUT": 1 << 16}
        )
        summary = analyze_kernel(produce_kernel, launch)
        # ctaid.y is not used by the kernel: TBs 0 and 2 alias
        assert summary.tb_reads(0) == summary.tb_reads(2)
        assert summary.tb_reads(0) != summary.tb_reads(1)


class TestSpecialRegisters:
    def test_laneid_range(self):
        kernel = parse_kernel(
            """
            .visible .entry k (.param .u64 A)
            {
                ld.param.u64 %rdA, [A];
                mov.u32 %l, %laneid;
                mul.wide.u32 %rd1, %l, 4;
                add.u64 %rd2, %rdA, %rd1;
                st.global.f32 [%rd2], %f0;
                ret;
            }
            """
        )
        launch = LaunchConfig.create(grid=1, block=64, args={"A": 0})
        summary = analyze_kernel(kernel, launch)
        assert summary.fallback is None
        assert summary.tb_writes(0) == IntervalSet([Interval(0, 32 * 4)])
