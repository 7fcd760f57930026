"""Unit tests for the BlockMaestro launch-time pipeline (RuntimePlan)."""

import re

import pytest

from repro.core.dependency_graph import GraphKind
from repro.core.hardware import HardwareConfig
from repro.core.runtime import BlockMaestroRuntime, jitter_factor
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import GPUConfig

from tests.conftest import PRODUCE_SRC, make_chain_app
from repro.workloads import all_workloads
from repro.workloads.base import AppBuilder


class TestPlanStructure:
    def test_kernels_in_queue_order(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        assert [k.kernel_index for k in plan.kernels] == list(
            range(plan.num_kernels)
        )
        positions = [k.order_position for k in plan.kernels]
        assert positions == sorted(positions)

    def test_kernel_at_position_mapping(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        for kp in plan.kernels:
            assert plan.kernel_at_position[kp.order_position] == kp.kernel_index

    def test_first_kernel_has_no_graph(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        assert plan.kernels[0].graph is None
        assert plan.kernels[0].encoded is None

    def test_chain_graphs_one_to_one(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        for kp in plan.kernels[1:]:
            assert kp.graph.kind is GraphKind.EXPLICIT
            assert kp.graph.num_edges == kp.num_tbs

    def test_deps_match_order(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=True)
        assert len(plan.deps) == len(plan.order)

    def test_storage_totals_accumulate(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        assert plan.graph_plain_bytes == sum(
            kp.encoded.plain_bytes for kp in plan.kernels if kp.encoded
        )
        assert plan.graph_encoded_bytes <= plan.graph_plain_bytes

    def test_requests_totals(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        assert plan.total_kernel_requests() > 0
        assert plan.total_dependency_requests() > 0


class TestDurations:
    def test_base_duration_positive(self, runtime, chain_app):
        plan = runtime.plan(chain_app, reorder=False)
        for kp in plan.kernels:
            for tb in range(min(kp.num_tbs, 4)):
                assert kp.tb_duration_ns(tb) > 0

    def test_intensity_scales_duration(self, runtime):
        fast = runtime.plan(make_chain_app(intensity=1.0, name="f"), reorder=False)
        slow = runtime.plan(make_chain_app(intensity=5.0, name="s"), reorder=False)
        assert (
            slow.kernels[0].tb_duration_ns(0)
            == pytest.approx(5.0 * fast.kernels[0].tb_duration_ns(0))
        )

    def test_duration_override_fn(self, runtime):
        app = make_chain_app(num_pairs=1, name="ov")
        app.trace.kernel_calls[0].tb_duration_fn = lambda tb: 1234.5
        plan = runtime.plan(app, reorder=False)
        assert plan.kernels[0].tb_duration_ns(7) == 1234.5

    def test_duration_scale_fn(self, runtime):
        app = make_chain_app(num_pairs=1, name="sc")
        app.trace.kernel_calls[0].tb_duration_scale_fn = lambda tb: 2.0
        app.trace.kernel_calls[1].tb_duration_scale_fn = None
        plan = runtime.plan(app, reorder=False)
        k0, k1 = plan.kernels
        # same kernel body; scaled one is ~2x (modulo per-TB jitter)
        ratio = k0.tb_duration_ns(0) / k1.tb_duration_ns(0)
        assert 1.5 < ratio < 2.7

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -50.0],
        ids=["nan", "inf", "negative"],
    )
    def test_bad_duration_raises_from_the_plan(self, runtime, bad):
        """The plan kernel checks its durations itself, once, so no
        engine tier needs to."""
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="bad-plan")
        app.trace.kernel_calls[1].tb_duration_fn = (
            lambda tb: bad if tb == 3 else 1000.0
        )
        plan = runtime.plan(app, reorder=False)
        (kernel,) = [kp for kp in plan.kernels if kp.name == "cons0"]
        message = r"kernel {} \(cons0\) TB 3: duration {} ns".format(
            kernel.kernel_index, re.escape(repr(bad))
        )
        with pytest.raises(ValueError, match=message):
            kernel.tb_durations_ns()

    def test_jitter_factor_deterministic_and_bounded(self):
        for kernel_index in range(5):
            for tb in range(50):
                f1 = jitter_factor(kernel_index, tb, 0.15)
                f2 = jitter_factor(kernel_index, tb, 0.15)
                assert f1 == f2
                assert 0.85 <= f1 <= 1.15

    def test_jitter_varies_across_tbs(self):
        values = {jitter_factor(0, tb, 0.15) for tb in range(64)}
        assert len(values) > 32

    def test_zero_jitter_config(self):
        config = GPUConfig(duration_jitter=0.0)
        runtime = BlockMaestroRuntime(config)
        plan = runtime.plan(make_chain_app(name="nj"), reorder=False)
        k = plan.kernels[0]
        assert k.tb_duration_ns(0) == k.tb_duration_ns(31)

    def test_durations_match_jitter_factor_on_the_registry(self):
        """``tb_durations_ns`` unrolls the hash over a kernel's TBs; every
        TB of every full-size registry kernel must get exactly the bits
        of ``base * jitter_factor``."""
        runtime = BlockMaestroRuntime()
        tbs = 0
        for spec in all_workloads():
            plan = runtime.plan(spec.build(), reorder=False)
            for kp in plan.kernels:
                assert kp._jitter == 0.15
                expected = [
                    kp._base_duration_ns
                    * jitter_factor(kp.kernel_index, tb, kp._jitter)
                    for tb in range(kp.num_tbs)
                ]
                assert [d.hex() for d in kp.tb_durations_ns()] == [
                    d.hex() for d in expected
                ], (spec.name, kp.kernel_index)
                tbs += kp.num_tbs
        assert tbs == 63992


class TestGrandparentDetection:
    def _three_kernel_app(self, skip_dep=True):
        """K1 writes A; K2 touches B only; K3 reads A (grandparent)."""
        b = AppBuilder("gp")
        a = b.alloc("A", 32 * 128 * 4)
        bb = b.alloc("B", 32 * 128 * 4)
        c = b.alloc("C", 32 * 128 * 4)
        b.h2d(a)
        b.h2d(bb)
        b.launch(PRODUCE_SRC, grid=32, block=128, args={"IN0": bb, "OUT": a}, tag="k1")
        b.launch(
            PRODUCE_SRC.replace("produce", "mid"),
            grid=32,
            block=128,
            args={"IN0": bb, "OUT": bb},
            tag="k2",
        )
        src = a if skip_dep else bb
        b.launch(
            PRODUCE_SRC.replace("produce", "k3"),
            grid=32,
            block=128,
            args={"IN0": src, "OUT": c},
            tag="k3",
        )
        b.d2h(c)
        return b.build()

    def test_grandparent_flagged_in_window(self, runtime):
        plan = runtime.plan(self._three_kernel_app(), reorder=False, window=3)
        assert plan.kernels[2].grandparent_barrier

    def test_no_flag_outside_window(self, runtime):
        plan = runtime.plan(self._three_kernel_app(), reorder=False, window=2)
        assert not plan.kernels[2].grandparent_barrier

    def test_no_flag_without_dependency(self, runtime):
        plan = runtime.plan(
            self._three_kernel_app(skip_dep=False), reorder=False, window=3
        )
        assert not plan.kernels[2].grandparent_barrier


class TestSummaryCache:
    def test_identical_launches_share_summary(self, runtime):
        app = make_chain_app(num_pairs=2, name="cache")
        plan = runtime.plan(app, reorder=False)
        # prod1 and prod0 have the same body but different input buffer
        # at i=0 (A) vs i=1 (C): only exact repeats share
        prod0, cons0, prod1, cons1 = plan.kernels
        assert cons0.summary is cons1.summary
        assert prod0.summary is not prod1.summary


def _war_app():
    """Two launches of one body: the second overwrites what the first
    reads, so only WAR tracking links them."""
    from repro.workloads import ptxgen

    b = AppBuilder("war")
    kernel = ptxgen.elementwise("ew", num_inputs=1, alu=1)
    a, c, out = (b.alloc(name, 8 * 64 * 4) for name in "ACB")
    b.launch(kernel, grid=8, block=64, args={"IN0": a, "OUT": out})
    b.launch(kernel, grid=8, block=64, args={"IN0": c, "OUT": a})
    return b.build()


def _gaussian_small():
    from repro.workloads import get_workload

    return get_workload("gaussian").build_small()


class TestVariant:
    @pytest.mark.parametrize(
        "build, changes",
        [
            (_gaussian_small, {"hardware": HardwareConfig(counter_bits=1)}),
            (_war_app, {"hazards": ("raw", "war", "waw")}),
        ],
        ids=["counter-bits", "hazards"],
    )
    def test_shared_memos_never_serve_another_configs_graph(
        self, build, changes
    ):
        def graphs(plan):
            return [
                (kp.encoded.collapsed, kp.encoded.encoded_bytes,
                 kp.encoded.original.num_edges)
                for kp in plan.kernels if kp.encoded is not None
            ]

        app = build()
        runtime = BlockMaestroRuntime()
        first = runtime.plan(app)
        variant = runtime.variant(**changes)
        plan = variant.plan(app)
        fresh = BlockMaestroRuntime(**changes).plan(app)
        assert graphs(plan) == graphs(fresh) != graphs(first)
        # summaries depend on neither, so the variant reuses them
        assert all(
            a.summary is b.summary for a, b in zip(plan.kernels, first.kernels)
        )

    def test_new_degree_threshold_reencodes_without_building(self):
        """Only the encoding depends on the counter width: a variant
        with another degree threshold re-encodes the memoized raw
        graphs, builds none and plans like a fresh runtime."""

        def graphs_built(metrics):
            counters = metrics.snapshot()["counters"]
            return sum(
                value for name, value in counters.items()
                if name.startswith("analysis.fastpath.")
            )

        def encodings(plan):
            return [
                (kp.encoded.effective, kp.encoded.pattern,
                 kp.encoded.encoded_bytes, kp.encoded.plain_bytes,
                 kp.encoded.collapsed, kp.traffic, kp.grandparent_barrier)
                for kp in plan.kernels if kp.encoded is not None
            ] + [plan.graph_plain_bytes, plan.graph_encoded_bytes]

        app = _gaussian_small()
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime(metrics=metrics)
        first = runtime.plan(app)
        built = graphs_built(metrics)
        assert built > 0
        hardware = HardwareConfig(counter_bits=1)
        assert hardware.degree_threshold != (
            runtime.hardware_config.degree_threshold
        )
        plan = runtime.variant(hardware=hardware).plan(app)
        assert graphs_built(metrics) == built
        fresh = BlockMaestroRuntime(hardware=hardware).plan(app)
        assert encodings(plan) == encodings(fresh) != encodings(first)
