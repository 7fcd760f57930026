"""Unit tests for the simulator substrate: the engine's event queue,
device, cost, stats."""

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, SerializedBaseline
from repro.models.base import ExecutionEngine
from repro.sim.config import GPUConfig
from repro.sim.cost import CostModel
from repro.sim.device import Device, empty_device_slots
from repro.obs.metrics import percentile
from repro.sim.stats import KernelRecord, RunStats, TBRecord
from repro.workloads.base import AppBuilder

from tests.conftest import make_chain_app


class TestEventQueue:
    """The scalar engine's event heap, driven through
    :meth:`ExecutionEngine.schedule` on an empty plan: besides the
    events a test schedules, a run has only the host's start at 0."""

    @staticmethod
    def _engine():
        plan = BlockMaestroRuntime().plan(AppBuilder("events").build())
        model = SerializedBaseline()
        return ExecutionEngine(plan, model.gpu_config, model.options())

    def test_fires_in_time_order(self):
        q = self._engine()
        log = []
        q.schedule(5.0, lambda: log.append("b"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(9.0, lambda: log.append("c"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        q = self._engine()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(1.0, lambda: log.append(2))
        q.run()
        assert log == [1, 2]

    def test_now_advances(self):
        q = self._engine()
        seen = []
        q.schedule(3.0, lambda: seen.append(q.now))
        stats = q.run()
        assert seen == [3.0]
        assert stats.makespan_ns == 3.0

    def test_schedule_in_past_rejected(self):
        q = self._engine()
        q.schedule(5.0, lambda: q.schedule(1.0, lambda: None))
        with pytest.raises(ValueError, match="before now"):
            q.run()

    def test_schedule_after(self):
        q = self._engine()
        times = []
        q.schedule(2.0, lambda: q.schedule(q.now + 3.0, lambda: times.append(q.now)))
        q.run()
        assert times == [5.0]

    def test_nested_scheduling(self):
        q = self._engine()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                q.schedule(q.now + 1.0, tick)

        q.schedule(0.0, tick)
        stats = q.run()
        assert count[0] == 5
        assert stats.makespan_ns == 4.0

    def test_event_cap(self):
        q = self._engine()
        q.max_events = 100

        def forever():
            q.schedule(q.now + 1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            q.run()

    def test_callback_arguments_arrive(self):
        q = self._engine()
        log = []
        q.schedule(2.0, lambda *args: log.append(args), "b", 2)
        q.schedule(1.0, log.append, "a")
        q.schedule(3.0, lambda *args: log.append(args))
        q.run()
        assert log == ["a", ("b", 2), ()]

    def test_ties_with_arguments_fire_in_schedule_order(self):
        q = self._engine()
        log = []
        for tag in (3, 1, 2):
            q.schedule(1.0, log.append, tag)
        q.schedule(0.5, lambda: q.schedule(1.0, log.append, 0))
        q.run()
        assert log == [3, 1, 2, 0]

    def test_processed_and_peak_pending_are_exact(self):
        q = self._engine()

        def fan_out(depth):
            if depth:
                for _ in range(3):
                    q.schedule(q.now + 1.0, fan_out, depth - 1)

        q.schedule(0.0, fan_out, 2)
        q.schedule(0.0, fan_out, 0)
        stats = q.run()
        # the host's start, 2 roots, 3 children of the first, 9
        # grandchildren
        assert q.events_processed == 1 + 2 + 3 + 9
        # deepest heap: all 9 grandchildren, pending once the last child
        # has run (the roots and children were popped before)
        assert q.peak_pending == 9
        assert stats.makespan_ns == 2.0

    def test_event_cap_with_arguments(self):
        q = self._engine()
        q.max_events = 100

        def forever(step):
            q.schedule(q.now + 1.0, forever, step + 1)

        q.schedule(0.0, forever, 0)
        with pytest.raises(RuntimeError, match="event cap"):
            q.run()
        # the capped run stops after the event past the cap
        assert q.events_processed == 101

    def test_processed_counts_every_event_of_a_run(self):
        """The host's start, one enqueue per call, one completion per
        non-kernel call, one launch per kernel and one finish per TB."""
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="count")
        plan = BlockMaestroRuntime().plan(app, reorder=True, window=2)
        model = BlockMaestroModel(window=2)
        q = ExecutionEngine(plan, model.gpu_config, model.options())
        stats = q.run()
        calls = len(plan.order)
        kernels = len(plan.kernels)
        assert q.events_processed == (
            1 + calls + (calls - kernels) + kernels + len(stats.tb_records)
        )

    def test_event_cap_below_a_runs_events_raises(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="capped")
        plan = BlockMaestroRuntime().plan(app, reorder=True, window=2)
        model = BlockMaestroModel(window=2)
        q = ExecutionEngine(plan, model.gpu_config, model.options())
        q.max_events = 10
        with pytest.raises(RuntimeError, match="event cap"):
            q.run()
        assert q.events_processed == 11


class TestGPUConfig:
    def test_occupancy_thread_limited(self):
        cfg = GPUConfig()
        assert empty_device_slots(cfg, 256) == 28 * 8
        assert empty_device_slots(cfg, 1024) == 28 * 2
        # a block wider than an SM's thread budget fits nowhere
        assert empty_device_slots(cfg, 4096) == 0

    def test_occupancy_slot_limited(self):
        assert empty_device_slots(GPUConfig(), 32) == 28 * 32


class TestDevice:
    def test_place_and_release(self):
        device = Device(GPUConfig())
        sm = device.try_place(256, 0.0)
        assert sm is not None
        assert device.running == 1
        device.release(sm, 256, 10.0)
        assert device.running == 0

    def test_capacity_threads(self):
        cfg = GPUConfig(num_sms=1, max_tbs_per_sm=32, max_threads_per_sm=2048)
        device = Device(cfg)
        placed = 0
        while device.try_place(256, 0.0) is not None:
            placed += 1
        assert placed == 8

    def test_capacity_tb_slots(self):
        cfg = GPUConfig(num_sms=1, max_tbs_per_sm=4, max_threads_per_sm=2048)
        device = Device(cfg)
        placed = 0
        while device.try_place(32, 0.0) is not None:
            placed += 1
        assert placed == 4

    def test_least_loaded_placement(self):
        cfg = GPUConfig(num_sms=2)
        device = Device(cfg)
        assert device.try_place(128, 0.0) == 0
        assert device.try_place(128, 0.0) == 1
        assert device.try_place(128, 0.0) == 0

    def test_free_slots(self):
        cfg = GPUConfig(num_sms=2, max_tbs_per_sm=4, max_threads_per_sm=1024)
        device = Device(cfg)
        assert device.free_slots(256) == 8
        device.try_place(256, 0.0)
        assert device.free_slots(256) == 7

    def test_release_without_place_raises(self):
        device = Device(GPUConfig())
        with pytest.raises(RuntimeError):
            device.release(0, 128, 1.0)

    def test_concurrency_integral(self):
        device = Device(GPUConfig())
        sm = device.try_place(128, 0.0)
        sm2 = device.try_place(128, 0.0)
        device.release(sm, 128, 10.0)
        device.release(sm2, 128, 20.0)
        device.finalize(20.0)
        # 2 TBs for 10ns + 1 TB for 10ns = 30 TB*ns over 20ns busy
        assert device.concurrency_integral == pytest.approx(30.0)
        assert device.busy_ns == pytest.approx(20.0)


class TestCostModel:
    def test_duration_scales_with_work(self):
        model = CostModel(GPUConfig())
        light = model.tb_duration_ns({"alu": 10}, 128)
        heavy = model.tb_duration_ns({"alu": 1000}, 128)
        assert heavy > light

    def test_duration_scales_with_threads(self):
        model = CostModel(GPUConfig())
        narrow = model.tb_duration_ns({"alu": 100, "mem_global": 10}, 32)
        wide = model.tb_duration_ns({"alu": 100, "mem_global": 10}, 512)
        assert wide > narrow

    def test_memory_heavier_than_alu(self):
        model = CostModel(GPUConfig())
        alu = model.tb_duration_ns({"alu": 100}, 128)
        mem = model.tb_duration_ns({"mem_global": 100}, 128)
        assert mem > alu

    def test_intensity_multiplies(self):
        model = CostModel(GPUConfig())
        base = model.tb_duration_ns({"alu": 100}, 128, intensity=1.0)
        assert model.tb_duration_ns({"alu": 100}, 128, intensity=3.0) == (
            pytest.approx(3 * base)
        )

    def test_kernel_memory_requests(self):
        model = CostModel(GPUConfig())
        # 2 global insts x 4 warps x 10 TBs
        assert model.kernel_memory_requests({"mem_global": 2}, 128, 10) == 80

    def test_empty_mix_fixed_cost(self):
        model = CostModel(GPUConfig())
        assert model.tb_duration_ns({}, 32) > 0


class TestRunStats:
    def _stats(self):
        return RunStats(
            model="m",
            application="a",
            makespan_ns=100.0,
            tb_records=[
                TBRecord(0, 0, ready_ns=0.0, start_ns=10.0, finish_ns=20.0),
                TBRecord(0, 1, ready_ns=5.0, start_ns=5.0, finish_ns=15.0),
                TBRecord(1, 0, ready_ns=20.0, start_ns=40.0, finish_ns=50.0),
            ],
            kernel_records=[
                KernelRecord(0, "k0", 2, completed_ns=20.0),
                KernelRecord(1, "k1", 1, completed_ns=50.0),
            ],
            concurrency_integral=200.0,
            busy_ns=50.0,
            kernel_memory_requests=1000.0,
            dependency_memory_requests=15.0,
            graph_plain_bytes=100,
            graph_encoded_bytes=40,
        )

    def test_speedup(self):
        base = self._stats()
        fast = self._stats()
        fast.makespan_ns = 50.0
        assert fast.speedup_over(base) == pytest.approx(2.0)

    def test_avg_concurrency(self):
        assert self._stats().avg_tb_concurrency() == pytest.approx(4.0)

    def test_normalized_stalls(self):
        stalls = self._stats().normalized_stalls()
        assert stalls == [1.0, 0.0, 2.0]

    def test_quartiles_sorted(self):
        q1, med, q3 = self._stats().stall_quartiles()
        assert q1 <= med <= q3

    def test_memory_overhead(self):
        assert self._stats().memory_overhead_fraction() == pytest.approx(0.015)

    def test_storage_ratio(self):
        assert self._stats().storage_ratio() == pytest.approx(0.4)

    def test_storage_ratio_none_without_graphs(self):
        s = self._stats()
        s.graph_plain_bytes = 0
        assert s.storage_ratio() is None

    def test_invariant_violation_detected(self):
        s = self._stats()
        s.tb_records.append(TBRecord(1, 1, ready_ns=10.0, start_ns=5.0, finish_ns=8.0))
        with pytest.raises(AssertionError):
            s.validate_invariants()

    def test_out_of_order_completion_detected(self):
        s = self._stats()
        s.kernel_records[1].completed_ns = 10.0
        with pytest.raises(AssertionError):
            s.validate_invariants()

    def test_quantile_interpolation(self):
        # stall quartiles use the shared repro.obs.metrics.percentile
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == pytest.approx(5.0)
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.9) == 3.0
