"""Degenerate-input behavior of timelines, percentiles, and the engine.

Empty runs, single samples, and all-equal distributions are exactly the
inputs that show up when a workload is filtered down to nothing or a
kernel has one thread block — none of them may crash or divide by zero.
The engine fast tier (:mod:`repro.models.fastengine`) must treat the
same degenerate plans exactly like the scalar oracle: empty plans and
single-TB kernels simulate identically under every engine mode, and
zero-TB kernels decline to the reference so its behavior (including
errors) is preserved verbatim.  An instruction short of the source
operands its opcode reads is malformed PTX, rejected in one line.
"""

import json

import pytest

from repro.obs.metrics import Histogram, percentile
from repro.ptx.errors import PTXValidationError
from repro.ptx.parser import parse_kernel
from repro.sim.stats import KernelRecord, RunStats, TBRecord
from repro.sim.timeline import (
    compare_timelines,
    render_concurrency_profile,
    render_kernel_timeline,
)

from tests.digests import payload_digest, runstats_payload

ENGINE_MODES = ("reference", "auto")


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


# ----------------------------------------------------------------------
# the edges of the vectorized tier's single-wave shortcut
# ----------------------------------------------------------------------
def _complete_digest(stats):
    """sha256 of the complete RunStats; every number in it must be a
    plain Python int or float."""
    payload = runstats_payload(stats)
    pending = [payload]
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
        else:
            assert type(value) in (int, float, str, bool), repr(value)
    return payload_digest(payload)


class TestSingleWaveEdges:
    """``auto`` against ``reference`` on the complete RunStats around
    the one-wave shortcut: exactly W TBs (no heap) and W + 1 (the
    heap), each with jittered, zero and uniform durations, under the
    two coarse device-serial models and a fully connected fine-grain
    chain, and under the baseline on a 1-to-1 chain, whose explicit
    graph gives each TB its parent's finish as ready time."""

    CASES = [
        ("baseline", "fc"),
        ("prelaunch", "fc"),
        ("consumer3", "fc"),
        ("baseline", "explicit"),
    ]

    @pytest.mark.parametrize("durations", ["jittered", "zero", "uniform"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["W", "W+1"])
    @pytest.mark.parametrize(
        "model_name, graph", CASES, ids=["-".join(c) for c in CASES]
    )
    def test_auto_matches_reference(self, model_name, graph, extra,
                                    durations):
        from repro.core.runtime import BlockMaestroRuntime
        from repro.experiments.common import _make_model, _model_plan_params
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.config import GPUConfig
        from repro.sim.device import empty_device_slots
        from repro.workloads.microbench import (
            build_engine_chain,
            build_engine_fc,
        )

        config = GPUConfig(
            duration_jitter=0.0 if durations == "uniform" else 0.15
        )
        width = empty_device_slots(config, 256)  # the apps' block size
        build = build_engine_fc if graph == "fc" else build_engine_chain
        app = build(num_kernels=3, num_tbs=width + extra)
        if durations == "zero":
            for call in app.trace.kernel_calls:
                call.tb_duration_fn = lambda tb: 0.0
        runtime = BlockMaestroRuntime(config)
        plan = runtime.plan(app, *_model_plan_params(model_name))
        assert {kp.threads_per_tb for kp in plan.kernels} == {256}
        if graph == "explicit":
            assert all(
                not kp.graph.is_fully_connected
                and not kp.graph.is_independent
                for kp in plan.kernels[1:]
            )
        model = _make_model(model_name, config)
        metrics = MetricsRegistry()
        fast = model.run(plan, metrics=metrics, engine="auto")
        counters = metrics.snapshot()["counters"]
        assert counters.get("engine.tier.vectorized") == 1, counters
        oracle = model.run(plan, engine="reference")
        # the one documented difference: no dispatch passes on this tier
        assert fast.counters.pop("dispatch_passes") == 0.0
        oracle.counters.pop("dispatch_passes")
        assert _complete_digest(fast) == _complete_digest(oracle)


# ----------------------------------------------------------------------
# malformed PTX: an instruction short of its source operands
# ----------------------------------------------------------------------
SHORT_ADD_SRC = """
.visible .entry short_add (.param .u64 A)
{
    ld.param.u64 %rd1, [A];
    add.u32 %r1, %r1;
    ret;
}
"""

SHORT_ADD_ERROR = (
    "short_add: add reads 2 source operands, got 1: add.u32 %r1, %r1;"
)


def _short_add_app():
    from repro.workloads.base import AppBuilder

    builder = AppBuilder("short-add")
    data = builder.alloc("A", 4096)
    builder.launch(SHORT_ADD_SRC, grid=1, block=32, args={"A": data})
    return builder.build()


class TestShortSourceOperands:
    """``Kernel.validate`` checks every instruction against the opcode
    arity table the analyzer's decode reads (``SOURCE_ARITY``)."""

    def test_parse_rejects(self):
        with pytest.raises(PTXValidationError) as info:
            parse_kernel(SHORT_ADD_SRC)
        assert str(info.value) == SHORT_ADD_ERROR

    def test_app_builder_launch_rejects(self):
        with pytest.raises(PTXValidationError, match=r"reads 2 source"):
            _short_add_app()

    @pytest.mark.parametrize(
        "line", ["selp.u32 %r1, %r2, %r3;", "setp.lt.u32 %p1, %r2;",
                 "mad.lo.u32 %r1, %r2, %r3;", "mov.u32 %r1;"],
    )
    def test_every_short_opcode_rejected(self, line):
        source = SHORT_ADD_SRC.replace("add.u32 %r1, %r1;", line)
        with pytest.raises(PTXValidationError, match=r"source operand"):
            parse_kernel(source)

    def test_unvalidated_body_fails_the_same_way(self):
        # a body built without Kernel.validate reaches the analyzer's
        # decode, which reads the same arity table
        import dataclasses

        from repro.analysis.analyzer import LaunchConfig, analyze_kernel

        kernel = parse_kernel(
            SHORT_ADD_SRC.replace("%r1, %r1;", "%r1, %r1, 1;")
        )
        add = kernel.instructions[1]
        kernel.instructions[1] = dataclasses.replace(add, srcs=add.srcs[:1])
        launch = LaunchConfig.create(grid=1, block=32, args={"A": 0})
        with pytest.raises(PTXValidationError, match=r"reads 2 source"):
            analyze_kernel(kernel, launch)

    def test_cli_exits_2_with_one_line(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.workloads import registry

        spec = registry.WorkloadSpec(
            "short-add", "malformed PTX", "test", 1, (1,),
            _short_add_app,
        )
        monkeypatch.setitem(registry._extra_specs(), spec.name, spec)
        assert main(["run", "short-add", "--json", "-"]) == 2
        err = capsys.readouterr().err
        assert err == "error: {}\n".format(SHORT_ADD_ERROR)
