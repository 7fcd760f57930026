"""Degenerate-input behavior of timelines, percentiles, and the engine.

Empty runs, single samples, and all-equal distributions are exactly the
inputs that show up when a workload is filtered down to nothing or a
kernel has one thread block — none of them may crash or divide by zero.
The engine fast tier (:mod:`repro.models.fastengine`) must treat the
same degenerate plans exactly like the scalar oracle: empty plans and
single-TB kernels simulate identically under every engine mode, and
zero-TB kernels decline to the reference so its behavior (including
errors) is preserved verbatim.
"""

import json

import pytest

from repro.obs.metrics import Histogram, percentile
from repro.sim.stats import KernelRecord, RunStats, TBRecord
from repro.sim.timeline import (
    compare_timelines,
    render_concurrency_profile,
    render_kernel_timeline,
)

ENGINE_MODES = ("reference", "vectorized", "auto")


def _empty_stats():
    return RunStats(model="test", application="empty")


class TestTimelines:
    def test_no_kernels_renders_placeholder(self):
        assert render_kernel_timeline(_empty_stats()) == "(no kernels)"

    def test_no_thread_blocks_renders_placeholder(self):
        assert render_concurrency_profile(_empty_stats()) == "(no thread blocks)"

    def test_zero_makespan_single_kernel(self):
        stats = _empty_stats()
        stats.kernel_records.append(KernelRecord(index=0, name="k", num_tbs=1))
        text = render_kernel_timeline(stats)
        assert "k0 k" in text
        assert "legend" in text

    def test_single_instant_tb(self):
        stats = _empty_stats()
        stats.makespan_ns = 10.0
        stats.tb_records.append(
            TBRecord(kernel_index=0, tb_id=0, ready_ns=0.0,
                     start_ns=5.0, finish_ns=5.0)
        )
        text = render_concurrency_profile(stats)
        assert "peak 1 concurrent thread blocks" in text

    def test_compare_timelines_with_empty_run(self):
        text = compare_timelines([_empty_stats()])
        assert "(no kernels)" in text


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_is_itself(self):
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 0.5) == 42.0
        assert percentile([42.0], 1.0) == 42.0

    def test_all_equal_samples(self):
        values = [7.0] * 9
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert percentile(values, q) == 7.0


class TestHistogram:
    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.5) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["min"] is None
        assert summary["p50"] is None

    def test_single_observation(self):
        hist = Histogram()
        hist.observe(3.5)
        assert hist.min == hist.max == 3.5
        assert hist.mean == 3.5
        for q in (0.5, 0.95, 0.99):
            assert hist.percentile(q) == 3.5

    def test_all_equal_observations(self):
        hist = Histogram()
        for _ in range(100):
            hist.observe(2.0)
        summary = hist.summary()
        assert summary["mean"] == 2.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 2.0

    def test_stall_quartiles_of_empty_run(self):
        stats = _empty_stats()
        assert stats.stall_quartiles() == (0.0, 0.0, 0.0)
        assert stats.avg_tb_concurrency() == 0.0


# ----------------------------------------------------------------------
# engine fast tier on degenerate plans
# ----------------------------------------------------------------------
def _outcome(model, plan, engine):
    """Simulated surface, or the raised exception, per engine tier."""
    try:
        stats = model.run(plan, engine=engine)
    except Exception as exc:  # compared across tiers below
        return ("raised", type(exc).__name__, str(exc))
    return (
        "stats",
        json.dumps(stats.simulated_signature(), sort_keys=True),
        tuple(
            (r.kernel_index, r.tb_id, r.ready_ns, r.start_ns,
             r.finish_ns, r.sm)
            for r in stats.tb_records
        ),
    )


class TestEngineDegeneratePlans:
    @pytest.fixture()
    def baseline(self):
        from repro.core.runtime import BlockMaestroRuntime
        from repro.experiments.common import _make_model

        runtime = BlockMaestroRuntime()
        return runtime, _make_model("baseline", runtime.config)

    def test_plan_without_kernels(self, baseline):
        """Malloc/copy-only plans: every mode agrees with the oracle."""
        from repro.workloads.base import AppBuilder

        runtime, model = baseline
        b = AppBuilder("no-kernels")
        x = b.alloc("X", 4096)
        b.h2d(x)
        b.d2h(x)
        plan = runtime.plan(b.build())
        outcomes = {
            mode: _outcome(model, plan, mode) for mode in ENGINE_MODES
        }
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes["reference"][0] == "stats"

    def test_single_tb_single_wave_kernel(self, baseline):
        """One block, one wave: the slot sweep at its smallest."""
        from repro.workloads import get_workload

        runtime, model = baseline
        app = get_workload("eng-chain").build_small(
            num_kernels=1, num_tbs=1
        )
        plan = runtime.plan(app)
        outcomes = {
            mode: _outcome(model, plan, mode) for mode in ENGINE_MODES
        }
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes["reference"][0] == "stats"

    def test_zero_tb_kernel_keeps_reference_behavior(self, baseline):
        """A zero-block launch declines to the oracle, so whatever the
        reference does (stats or error) is preserved bit-for-bit."""
        from repro.workloads import get_workload

        runtime, model = baseline
        app = get_workload("eng-chain").build_small(
            num_kernels=2, num_tbs=4
        )
        plan = runtime.plan(app)
        plan.kernels[0].call.grid = (0, 1, 1)  # num_tbs derives from grid
        outcomes = {
            mode: _outcome(model, plan, mode) for mode in ENGINE_MODES
        }
        assert len(set(outcomes.values())) == 1, outcomes
