"""Engine edge cases: degenerate apps, tiny devices, deadlock freedom."""

import re

import pytest

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, SerializedBaseline
from repro.models.base import ExecutionEngine
from repro.sim.config import GPUConfig
from repro.workloads.base import AppBuilder
from repro.workloads import ptxgen

from tests.conftest import PRODUCE_SRC, make_chain_app


def single_kernel_app(tbs=2, block=8):
    b = AppBuilder("one")
    a = b.alloc("A", tbs * block * 4)
    out = b.alloc("O", tbs * block * 4)
    b.h2d(a)
    b.launch(PRODUCE_SRC, grid=tbs, block=block, args={"IN0": a, "OUT": out})
    b.d2h(out)
    return b.build()


class TestDegenerateApps:
    def test_single_kernel(self):
        app = single_kernel_app()
        rt = BlockMaestroRuntime()
        for reorder, window, model in (
            (False, 1, SerializedBaseline()),
            (True, 4, BlockMaestroModel(window=4)),
        ):
            stats = model.run(rt.plan(app, reorder=reorder, window=window))
            assert len(stats.kernel_records) == 1
            stats.validate_invariants()

    def test_single_tb_kernels(self):
        app = make_chain_app(num_pairs=2, tbs=1, block=1, name="tiny")
        rt = BlockMaestroRuntime()
        stats = BlockMaestroModel(window=3).run(
            rt.plan(app, reorder=True, window=3)
        )
        assert len(stats.tb_records) == 4
        stats.validate_invariants()

    def test_window_larger_than_kernel_count(self):
        app = make_chain_app(num_pairs=1, tbs=2, block=8, name="wide")
        rt = BlockMaestroRuntime()
        stats = BlockMaestroModel(window=16).run(
            rt.plan(app, reorder=True, window=16)
        )
        stats.validate_invariants()

    def test_app_without_copies(self):
        b = AppBuilder("nocopy")
        a = b.alloc("A", 256)
        out = b.alloc("O", 256)
        b.launch(PRODUCE_SRC, grid=1, block=8, args={"IN0": a, "OUT": out})
        app = b.build()
        rt = BlockMaestroRuntime()
        stats = SerializedBaseline().run(rt.plan(app, reorder=False, window=1))
        assert stats.makespan_ns > 0


class TestTinyDevice:
    """A 1-SM, 1-slot device: maximal contention, no deadlock."""

    def _config(self):
        return GPUConfig(num_sms=1, max_tbs_per_sm=1, max_threads_per_sm=64)

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_no_deadlock_under_contention(self, policy):
        config = self._config()
        app = make_chain_app(num_pairs=3, tbs=4, block=64, name="squeeze")
        rt = BlockMaestroRuntime(config)
        plan = rt.plan(app, reorder=True, window=4)
        stats = BlockMaestroModel(config, window=4, policy=policy).run(plan)
        stats.validate_invariants()
        assert len(stats.tb_records) == 6 * 4

    def test_serial_device_serializes_everything(self):
        config = self._config()
        app = make_chain_app(num_pairs=1, tbs=4, block=64, name="serial")
        rt = BlockMaestroRuntime(config)
        stats = BlockMaestroModel(
            config, window=2, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(rt.plan(app, reorder=True, window=2))
        # only one slot: thread blocks never overlap
        intervals = sorted(
            (tb.start_ns, tb.finish_ns) for tb in stats.tb_records
        )
        for (s1, f1), (s2, _f2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-6

    def test_consumer_priority_cannot_starve_producer_forever(self):
        """Paper Section III-D: no permanent deadlock — unready consumer
        blocks cannot hold slots, so producers always make progress."""
        config = self._config()
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="starve")
        rt = BlockMaestroRuntime(config)
        stats = BlockMaestroModel(
            config, window=4, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(rt.plan(app, reorder=True, window=4))
        for kr in stats.kernel_records:
            assert kr.completed_ns > 0


class TestMixedBlockSizes:
    def test_different_block_sizes_share_device(self):
        b = AppBuilder("mixed")
        elems = 16 * 256
        a = b.alloc("A", elems * 4)
        mid = b.alloc("M", elems * 4)
        out = b.alloc("O", elems * 4)
        b.h2d(a)
        k = ptxgen.elementwise("mixed_k", num_inputs=1, alu=1)
        b.launch(k, grid=16, block=256, args={"IN0": a, "OUT": mid})
        b.launch(k, grid=64, block=64, args={"IN0": mid, "OUT": out})
        app = b.build()
        rt = BlockMaestroRuntime()
        plan = rt.plan(app, reorder=True, window=2)
        # 16 parents -> 64 children: 1-to-n style fan-out
        assert plan.kernels[1].graph.max_parent_out_degree() >= 4
        stats = BlockMaestroModel(window=2).run(plan)
        stats.validate_invariants()

    def test_occupancy_limited_blocks(self):
        config = GPUConfig(num_sms=2, max_threads_per_sm=1024)
        app = make_chain_app(num_pairs=1, tbs=8, block=1024, name="occ")
        rt = BlockMaestroRuntime(config)
        stats = SerializedBaseline(config).run(
            rt.plan(app, reorder=False, window=1)
        )
        # 1024-thread blocks: one per SM; 8 blocks run in 4 waves
        assert stats.avg_tb_concurrency() <= 2.01


class TestBadDurations:
    """A NaN, infinite or negative TB duration is an input error named
    by kernel and block, whichever engine tier the run asks for."""

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -50.0],
        ids=["nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize(
        "model", [BlockMaestroModel(window=2), SerializedBaseline()],
        ids=["blockmaestro", "baseline"],
    )
    def test_rejected_naming_kernel_and_tb(self, bad, engine, model):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="bad-dur")
        app.trace.kernel_calls[1].tb_duration_fn = (
            lambda tb: bad if tb == 3 else 1000.0
        )
        fine = isinstance(model, BlockMaestroModel)
        plan = BlockMaestroRuntime(model.gpu_config).plan(
            app, reorder=fine, window=2 if fine else 1
        )
        (kernel,) = [kp for kp in plan.kernels if kp.name == "cons0"]
        message = r"kernel {} \(cons0\) TB 3: duration {} ns".format(
            kernel.kernel_index, re.escape(repr(bad))
        )
        with pytest.raises(ValueError, match=message):
            model.run(plan, engine=engine)


class TestRecordedReadyTimes:
    """The engine records each TB's ready time as computed, so
    ``RunStats.validate_invariants`` judges it: a run that records a TB
    as ready after its start fails."""

    def test_ready_after_start_fails_the_run(self, monkeypatch):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="late")
        model = SerializedBaseline()
        plan = BlockMaestroRuntime(model.gpu_config).plan(
            app, reorder=False, window=1
        )
        assert model.run(plan, engine="reference").tb_records
        # every TB the helper serves turns ready 1 ns after it starts
        monkeypatch.setattr(
            ExecutionEngine, "_tb_ready_time",
            lambda engine, ks, tb: engine.now + 1.0,
        )
        with pytest.raises(
            AssertionError, match="started before its dependencies resolved"
        ):
            model.run(plan, engine="reference")


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"

    def test_quick_tour_compiles(self):
        import repro

        builder = repro.AppBuilder("tour")
        x = builder.alloc("X", 4096)
        y = builder.alloc("Y", 4096)
        builder.h2d(x)
        builder.launch(
            PRODUCE_SRC, grid=4, block=32, args={"IN0": x, "OUT": y}
        )
        app = builder.build()
        runtime = repro.BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=True, window=2)
        assert isinstance(plan, repro.RuntimePlan)
