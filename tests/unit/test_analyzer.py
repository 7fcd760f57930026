"""Unit tests for the launch-time value-range analyzer."""

import dataclasses
import gc
import weakref

import pytest

from repro.analysis import analyzer
from repro.analysis.analyzer import (
    AnalysisError,
    LaunchConfig,
    analyze_kernel,
)
from repro.analysis.intervals import Interval, IntervalSet
from repro.core.runtime import BlockMaestroRuntime
from repro.host import api
from repro.obs import MetricsRegistry
from repro.ptx.parser import parse_kernel
from repro.workloads import get_workload, ptxgen

from tests.conftest import INDIRECT_SRC, OVERLAPPING_LOOPS_SRC
from tests.digests import summary_digest


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

    def test_irreducible_body_is_a_fallback(self):
        # the body is decoded inside the fallback handler: irreducible
        # loops give a summary, not an exception
        kernel = parse_kernel(OVERLAPPING_LOOPS_SRC)
        summary = analyze_kernel(
            kernel, LaunchConfig.create(grid=2, block=32, args={"A": 0})
        )
        assert summary.fallback == "irreducible"
        assert "overlap" in summary.fallback_detail
        assert summary.dynamic_mix["control"] == 3  # two bra, one ret

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


class TestAlgorithm1Memo:
    """Algorithm 1 reads the kernel body alone, so its verdict is kept
    per kernel object and every other launch of that body reuses it."""

    @pytest.fixture
    def slices(self, monkeypatch):
        """The access index of every backward slice the analyzer runs."""
        calls = []
        backward_slice = analyzer.backward_slice

        def counted(kernel, index):
            calls.append(index)
            return backward_slice(kernel, index)

        monkeypatch.setattr(analyzer, "backward_slice", counted)
        return calls

    def test_one_slice_per_access_of_each_body(self, slices):
        app = get_workload("gaussian").build_small()
        bodies = {id(c.kernel): c.kernel for c in app.trace.kernel_calls}
        assert len(bodies) == 2 and app.num_kernel_launches > 2
        plan = BlockMaestroRuntime().plan(app)
        assert all(kp.summary.exact for kp in plan.kernels)
        assert len(slices) == sum(
            len(list(kernel.global_accesses())) for kernel in bodies.values()
        )

    def test_non_static_verdict_reused_across_launches(self, slices):
        kernel = parse_kernel(
            INDIRECT_SRC.replace(".param .u64 OUT)", ".param .u64 OUT, .param .u32 N)")
        )
        first, second = (
            LaunchConfig.create(
                grid=1,
                block=32,
                args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17, "N": n},
            )
            for n in (32, 96)
        )
        a = analyze_kernel(kernel, first)
        sliced = len(slices)
        b = analyze_kernel(kernel, second)
        assert a.fallback == b.fallback == "non_static"
        assert a.fallback_detail == b.fallback_detail
        assert sliced > 0 and len(slices) == sliced

    def test_memo_holds_no_kernel_alive(self):
        kernel = parse_kernel(INDIRECT_SRC)
        launch = LaunchConfig.create(
            grid=1, block=32, args={"DATA": 0, "IDX": 1 << 16, "OUT": 1 << 17}
        )
        analyze_kernel(kernel, launch)
        assert kernel in analyzer._ALGORITHM1
        entries = len(analyzer._ALGORITHM1)
        alive = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert alive() is None
        assert len(analyzer._ALGORITHM1) < entries


#: kernels for the body-memo checks: each names what it exercises, and
#: ``N`` goes unbound in the second launch of the last two
MEMO_KERNELS = {
    "guarded_write": """
        .visible .entry guarded (.param .u64 A, .param .u32 N)
        {
            ld.param.u64 %rd0, [A];
            ld.param.u32 %r1, [N];
            mov.u32 %r2, %tid.x;
            setp.lt.u32 %p1, %r2, %r1;
            mov.u32 %r3, %r2;
            @%p1 add.u32 %r3, %r2, %r1;
            mul.wide.u32 %rd1, %r3, 4;
            add.u64 %rd2, %rd0, %rd1;
            st.global.u32 [%rd2], %r2;
            ret;
        }
    """,
    "loop": """
        .visible .entry rows (.param .u64 A, .param .u64 OUT, .param .u32 N)
        {
            ld.param.u64 %rd0, [A];
            ld.param.u64 %rd9, [OUT];
            ld.param.u32 %r1, [N];
            mov.u32 %r2, %ctaid.x;
            mov.u32 %r3, 0;
        LOOP:
            mad.lo.u32 %r5, %r2, %r1, %r3;
            mul.wide.u32 %rd1, %r5, 4;
            add.u64 %rd2, %rd0, %rd1;
            ld.global.f32 %f1, [%rd2];
            add.u32 %r3, %r3, 1;
            setp.lt.u32 %p1, %r3, %r1;
            @%p1 bra LOOP;
            add.u32 %r6, %r3, %r2;
            mul.wide.u32 %rd3, %r6, 4;
            add.u64 %rd4, %rd9, %rd3;
            st.global.f32 [%rd4], %f1;
            ret;
        }
    """,
    # %r6 advances by %r3, which itself advances: a constant step in the
    # discovery pass, so the symbolic pass fails to verify it, rolls
    # back its records and mix, and retries with %r6 widened
    "loop_retry": """
        .visible .entry retry (.param .u64 A, .param .u32 N)
        {
            ld.param.u64 %rd0, [A];
            ld.param.u32 %r1, [N];
            mov.u32 %r3, 1;
            mov.u32 %r6, 0;
        LOOP:
            add.u32 %r6, %r6, %r3;
            mul.wide.u32 %rd3, %r3, 4;
            add.u64 %rd4, %rd0, %rd3;
            st.global.u32 [%rd4], %r6;
            add.u32 %r3, %r3, 1;
            setp.lt.u32 %p1, %r3, %r1;
            @%p1 bra LOOP;
            mul.wide.u32 %rd5, %r3, 4;
            add.u64 %rd6, %rd0, %rd5;
            st.global.u32 [%rd6], %r6;
            ret;
        }
    """,
    "special_register": """
        .visible .entry special (.param .u64 A)
        {
            ld.param.u64 %rd0, [A];
            mov.u32 %r1, %ctaid.x;
            mov.u32 %r2, %ntid.x;
            mad.lo.u32 %r3, %r1, %r2, %tid.x;
            mov.u32 %r4, %nctaid.x;
            mad.lo.u32 %r5, %r4, %r2, %r3;
            mul.wide.u32 %rd1, %r5, 4;
            add.u64 %rd2, %rd0, %rd1;
            st.global.u32 [%rd2], %r1;
            mov.u32 %r6, %warpid;
            mul.wide.u32 %rd3, %r6, 4;
            add.u64 %rd4, %rd0, %rd3;
            ld.global.u32 %r7, [%rd4];
            ret;
        }
    """,
    # the label operand comes after N's load and before an address
    # loaded from memory, so the error falls between two fallbacks
    "label_operand": """
        .visible .entry label (.param .u64 A, .param .u32 N)
        {
            ld.param.u64 %rd0, [A];
            ld.param.u32 %r1, [N];
            add.u32 %r2, %r1, DONE;
            mul.wide.u32 %rd1, %r1, 4;
            add.u64 %rd2, %rd0, %rd1;
            ld.global.u32 %r3, [%rd2];
            ld.shared.u32 %r4, [%rd0];
            mul.wide.u32 %rd3, %r4, 4;
            add.u64 %rd4, %rd0, %rd3;
            st.global.u32 [%rd4], %r3;
            ret;
        DONE:
        }
    """,
    # instruction 2 becomes the non-ISA opcode ``popc``: after N's load,
    # before an operand with no value
    "unsupported_opcode": """
        .visible .entry unsupported (.param .u64 A, .param .u32 N)
        {
            ld.param.u64 %rd0, [A];
            ld.param.u32 %r1, [N];
            add.u32 %r2, %r1, 1;
            add.u32 %r3, %r1, DONE;
            mul.wide.u32 %rd1, %r1, 4;
            add.u64 %rd2, %rd0, %rd1;
            st.global.u32 [%rd2], %r2;
            ret;
        DONE:
        }
    """,
}


def _memo_kernel(name):
    kernel = parse_kernel(MEMO_KERNELS[name])
    if name == "unsupported_opcode":
        kernel.instructions[2] = dataclasses.replace(
            kernel.instructions[2], opcode="popc"
        )
    return kernel


def _memo_launches(name):
    """Two launches of one kernel that differ in everything a launch sets."""
    first = LaunchConfig.create(
        grid=4, block=64, args={"A": 0, "OUT": 1 << 20, "N": 8}
    )
    second = {"A": 1 << 16, "OUT": 1 << 21, "N": 3}
    if name in ("label_operand", "unsupported_opcode"):
        del second["N"]
    return first, LaunchConfig.create(grid=(2, 3), block=(96, 2), args=second)


def _outcome(kernel, launch):
    """The summary's digest, or the AnalysisError the launch raises."""
    try:
        return summary_digest(analyze_kernel(kernel, launch))
    except AnalysisError as exc:
        return "AnalysisError: {}".format(exc)


class TestBodyMemos:
    """The per-body memos (Algorithm 1's verdict, the decoded body, the
    parameter directions) depend on the body alone and hold no kernel
    alive."""

    @pytest.mark.parametrize("name", sorted(MEMO_KERNELS))
    def test_decoded_body_holds_nothing_launch_specific(self, name):
        kernel = _memo_kernel(name)
        first, second = _memo_launches(name)
        outcomes = [_outcome(kernel, launch) for launch in (first, second, first)]
        fresh = [
            _outcome(_memo_kernel(name), launch) for launch in (first, second, first)
        ]
        assert kernel in analyzer._DECODED
        assert outcomes == fresh
        assert outcomes[0] != outcomes[1]

    @pytest.mark.parametrize(
        "name, first, second",
        [
            (
                "label_operand",
                "AnalysisError: operand Label(name='DONE') has no runtime value",
                "missing_arg",
            ),
            ("unsupported_opcode", "unsupported", "missing_arg"),
        ],
    )
    def test_errors_keep_their_order(self, name, first, second):
        """Each launch stops at the first instruction that raises: N's
        load when N is unbound, else the label operand or the opcode."""
        kernel = _memo_kernel(name)
        launches = _memo_launches(name)
        stops = []
        for launch in launches + launches:
            try:
                summary = analyze_kernel(kernel, launch)
            except AnalysisError as exc:
                stops.append("AnalysisError: {}".format(exc))
            else:
                stops.append(summary.fallback)
        assert stops == [first, second] * 2
        if name == "unsupported_opcode":
            summary = analyze_kernel(kernel, launches[0])
            assert summary.fallback_detail == "opcode popc"

    def test_failed_induction_retry_rolls_back(self, monkeypatch):
        """A failed induction is widened and the body re-run: only the
        verified pass's records and mix remain."""
        failed = []
        verify = analyzer._Interpreter._verify_inductions

        def counted(interp, *args):
            bad = verify(interp, *args)
            failed.append(bad is not None)
            return bad

        monkeypatch.setattr(analyzer._Interpreter, "_verify_inductions", counted)
        first, _ = _memo_launches("loop_retry")
        summary = analyze_kernel(_memo_kernel("loop_retry"), first)
        assert failed == [True, False]
        assert summary.exact
        assert [(r.kind, r.base, r.dims) for r in summary.records] == [
            ("write", 4, ((4, 7),)),
            ("write", 32, ()),
        ]
        assert summary.dynamic_mix["mem_global"] == 8.0
        assert summary.dynamic_mix["total"] == 49.0

    def test_one_decode_per_body(self, monkeypatch):
        decoded = []

        class Counted(analyzer._Body):
            def __init__(self, kernel):
                decoded.append(kernel.name)
                super().__init__(kernel)

        monkeypatch.setattr(analyzer, "_Body", Counted)
        app = get_workload("gaussian").build_small()
        BlockMaestroRuntime().plan(app)
        assert sorted(decoded) == ["gauss_fan1", "gauss_fan2"]
        assert app.num_kernel_launches > 2

    def test_dropped_app_kernels_are_collected(self):
        app = get_workload("mvt").build_small()
        runtime = BlockMaestroRuntime()
        runtime.plan(app)
        kernels = list({id(c.kernel): c.kernel for c in app.trace.kernel_calls}
                       .values())
        for memo in (analyzer._ALGORITHM1, analyzer._DECODED, api._DIRECTIONS):
            assert all(kernel in memo for kernel in kernels)
        alive = [weakref.ref(kernel) for kernel in kernels]
        del app, runtime, kernels
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive)
