"""Unit coverage of the simulation-engine fast path seams.

Mode normalization, the device-serial certificate's decline reasons,
the one duration list per plan kernel both tiers read, and the
observer-fallback rule: with a journal/provenance/telemetry
hook attached, ``auto`` silently keeps the scalar reference engine and
says so through the metrics counters — and the observed run's signature
is byte-identical to the unobserved fast-tier run.
"""

import dataclasses
import json

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import _make_model
from repro.models.base import certify_device_serial
from repro.modes import ENGINE_ENV, resolve_engine_mode
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import GPUConfig
from repro.workloads import all_workloads, get_workload
from repro.workloads.streams import build_pipelines


def _counters(metrics):
    return metrics.snapshot()["counters"]


class TestResolveEngineMode:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine_mode() == "auto"
        assert resolve_engine_mode(None) == "auto"

    def test_env_is_consulted(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine_mode() == "reference"

    def test_explicit_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "reference")
        assert resolve_engine_mode("auto") == "auto"

    def test_empty_env_means_auto(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "")
        assert resolve_engine_mode() == "auto"

    @pytest.mark.parametrize("alias,canonical", [
        ("off", "reference"),
        ("scalar", "reference"),
        ("oracle", "reference"),
        ("on", "auto"),
        ("  AUTO  ", "auto"),
    ])
    def test_aliases_and_normalization(self, alias, canonical):
        assert resolve_engine_mode(alias) == canonical

    @pytest.mark.parametrize(
        "bad", ["fast", "none", "1", "turbo", "closed-form", "Vectorized"]
    )
    def test_unknown_mode_raises(self, bad):
        with pytest.raises(ValueError):
            resolve_engine_mode(bad)


class TestCertificate:
    @pytest.fixture(scope="class")
    def chain(self):
        """A 1-to-1 map chain: coarse-eligible, fine-grain-ineligible."""
        app = get_workload("eng-chain").build_small()
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app)
        return plan, runtime.config

    def test_coarse_model_is_eligible(self, chain):
        plan, config = chain
        options = _make_model("baseline", config).options()
        assert certify_device_serial(plan, config, options) is None

    def test_fine_grain_declines_one_to_one_chains(self, chain):
        plan, config = chain
        options = _make_model("consumer3", config).options()
        assert (
            certify_device_serial(plan, config, options)
            == "fine_grain_graph"
        )

    def test_fine_grain_accepts_fully_connected(self):
        app = get_workload("eng-fc").build_small()
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=True, window=3)
        options = _make_model("consumer3", runtime.config).options()
        assert certify_device_serial(plan, runtime.config, options) is None

    def test_ignore_dependencies_declines(self, chain):
        plan, config = chain
        options = dataclasses.replace(
            _make_model("baseline", config).options(),
            ignore_dependencies=True,
        )
        assert (
            certify_device_serial(plan, config, options)
            == "ignore_dependencies"
        )

    def test_multi_stream_declines(self):
        app = build_pipelines(pipelines=2, stages=2, use_streams=True)
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=False, window=2)
        options = _make_model("baseline", runtime.config).options()
        assert (
            certify_device_serial(plan, runtime.config, options)
            == "multi_stream"
        )

    def test_zero_tb_kernel_declines(self, chain):
        plan, config = chain
        options = _make_model("baseline", config).options()
        call = plan.kernels[0].call
        saved = call.grid
        call.grid = (0, 1, 1)  # num_tbs derives from the launch grid
        try:
            assert (
                certify_device_serial(plan, config, options)
                == "zero_tb_kernel"
            )
        finally:
            call.grid = saved

    def test_block_never_fits_declines(self):
        app = get_workload("eng-chain").build_small()
        config = GPUConfig(max_threads_per_sm=64)  # blocks are 256-wide
        runtime = BlockMaestroRuntime(config)
        plan = runtime.plan(app)
        options = _make_model("baseline", config).options()
        assert (
            certify_device_serial(plan, config, options) == "no_slot_fits"
        )


class TestPlanDurations:
    """A plan kernel computes its TB durations once: its window
    variants and both engine tiers read that one list."""

    @pytest.fixture
    def mixed(self):
        # a duration and a scale function between jittered kernels
        app = get_workload("eng-chain").build_small(
            num_kernels=4, num_tbs=600
        )
        calls = app.trace.kernel_calls
        calls[1].tb_duration_fn = lambda tb: 10.0 + tb
        calls[2].tb_duration_scale_fn = lambda tb: 1.0 + tb % 3
        return app

    @pytest.mark.parametrize("jitter", [0.15, 0.0])
    def test_one_list_per_plan_kernel(self, mixed, jitter):
        runtime = BlockMaestroRuntime(GPUConfig(duration_jitter=jitter))
        plan = runtime.plan(mixed, reorder=True, window=2)
        for kp in plan.kernels:
            durations = kp.tb_durations_ns()
            assert durations == [
                kp.tb_duration_ns(tb) for tb in range(kp.num_tbs)
            ]
            assert kp.tb_durations_ns() is durations
        variant = runtime.plan(mixed, reorder=True, window=3)
        assert variant is not plan
        for kp, copied in zip(plan.kernels, variant.kernels):
            assert copied.tb_durations_ns() is kp.tb_durations_ns()

    def test_both_tiers_compute_once(self, mixed, monkeypatch):
        from repro.core.runtime import KernelPlan

        computed = []
        compute = KernelPlan._compute_durations

        def counting(kp):
            computed.append(kp.kernel_index)
            return compute(kp)

        monkeypatch.setattr(KernelPlan, "_compute_durations", counting)
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(mixed, reorder=False, window=1)
        model = _make_model("baseline", runtime.config)
        metrics = MetricsRegistry()
        fast = model.run(plan, metrics=metrics, engine="auto")
        assert _counters(metrics).get("engine.tier.vectorized") == 1
        reference = model.run(plan, engine="reference")
        assert fast.simulated_signature() == reference.simulated_signature()
        assert sorted(computed) == [kp.kernel_index for kp in plan.kernels]


class TestObserverFallback:
    """Auto tier + observers == silent, counted, reference execution."""

    @pytest.fixture(scope="class")
    def planned(self):
        app = get_workload("eng-wide").build_small()
        runtime = BlockMaestroRuntime()
        return runtime.plan(app), runtime.config

    def _signature(self, stats):
        return json.dumps(stats.simulated_signature(), sort_keys=True)

    def test_journal_forces_reference(self, planned):
        from repro.obs.journal import JournalRecorder

        plan, config = planned
        metrics = MetricsRegistry()
        model = _make_model("baseline", config)
        model.run(plan, metrics=metrics, journal=JournalRecorder(),
                  engine="auto")
        counters = _counters(metrics)
        assert counters.get("engine.fallback.observers") == 1
        assert counters.get("engine.tier.reference") == 1
        assert "engine.tier.vectorized" not in counters

    def test_provenance_forces_reference(self, planned):
        # critpath provenance is derived from one journaled run, so an
        # auto-tier critpath pass is exactly one counted fallback
        from repro.obs.critpath import build_report, validate_critpath_report
        from repro.obs.journal import JournalRecorder

        plan, config = planned
        metrics = MetricsRegistry()
        journal = JournalRecorder()
        stats = _make_model("baseline", config).run(
            plan, metrics=metrics, journal=journal, engine="auto"
        )
        assert validate_critpath_report(build_report(stats, journal)) == []
        counters = _counters(metrics)
        assert counters.get("engine.fallback.observers") == 1
        assert counters.get("engine.tier.reference") == 1

    def test_telemetry_forces_reference(self, planned):
        # likewise telemetry: one journaled run, one counted fallback
        from repro.obs.journal import JournalRecorder
        from repro.obs.telemetry import build_report, validate_telemetry_report

        plan, config = planned
        metrics = MetricsRegistry()
        journal = JournalRecorder()
        stats = _make_model("baseline", config).run(
            plan, metrics=metrics, journal=journal, engine="auto"
        )
        assert validate_telemetry_report(build_report(stats, journal)) == []
        counters = _counters(metrics)
        assert counters.get("engine.fallback.observers") == 1
        assert counters.get("engine.tier.reference") == 1

    def test_observed_signature_matches_fast_tier(self, planned):
        from repro.obs.journal import JournalRecorder

        plan, config = planned
        model = _make_model("baseline", config)
        fast_metrics = MetricsRegistry()
        fast = model.run(plan, metrics=fast_metrics, engine="auto")
        assert _counters(fast_metrics).get("engine.tier.vectorized") == 1
        observed = model.run(plan, journal=JournalRecorder(), engine="auto")
        assert self._signature(observed) == self._signature(fast)

    def test_reference_mode_never_counts_observer_fallback(self, planned):
        plan, config = planned
        metrics = MetricsRegistry()
        model = _make_model("baseline", config)
        model.run(plan, metrics=metrics, engine="reference")
        counters = _counters(metrics)
        assert "engine.fallback.observers" not in counters
        assert counters.get("engine.tier.reference") == 1
