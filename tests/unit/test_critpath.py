"""Unit tests for critical-path profiling (repro.obs.critpath)."""

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.models import (
    BlockMaestroModel,
    EngineDrainError,
    SerializedBaseline,
)
from repro.models.base import ExecutionEngine
from repro.obs.critpath import (
    COMPONENT_KEYS,
    attribution_from_segments,
    build_report,
    derive_provenance,
    extract_critical_path,
    format_critpath,
    validate_critpath_report,
    what_if_bounds,
)
from repro.obs.journal import JournalRecorder
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.config import GPUConfig
from repro.sim.device import Device, UnboundedDevice
from repro.workloads import get_workload

from tests.conftest import make_chain_app


def _observed_run(app, model, reorder=True, window=2):
    """Plan + run one model with a journal attached."""
    runtime = BlockMaestroRuntime(model.gpu_config)
    plan = runtime.plan(app, reorder=reorder, window=window)
    journal = JournalRecorder()
    stats = model.run(plan, journal=journal)
    return plan, stats, journal


def _assert_attribution_sums(stats, journal):
    segments = extract_critical_path(stats, journal)
    attribution = attribution_from_segments(segments, stats.makespan_ns)
    total = sum(attribution.values())
    assert total == pytest.approx(stats.makespan_ns, abs=1e-3)
    # the walk should explain the makespan, not dump it into "other"
    assert attribution["other"] <= 0.01 * stats.makespan_ns + 1.0
    return segments, attribution


class TestProvenanceRecorder:
    """Per-TB start records and launch triggers, derived from the journal."""

    def test_every_tb_has_a_start_record(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-chain")
        model = BlockMaestroModel(window=2)
        _plan, stats, journal = _observed_run(app, model)
        prov = derive_provenance(journal)
        assert set(prov.tb_starts) == {
            (tb.kernel_index, tb.tb_id) for tb in stats.tb_records
        }
        for start in prov.tb_starts.values():
            assert start.start_ns >= start.ready_push_ns
            assert start.release_edge.kind in (
                "dependency", "occupancy", "launch", "barrier", "input",
                "host",
            )

    def test_launch_trigger_recorded_per_kernel(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-trig")
        model = BlockMaestroModel(window=2)
        _plan, stats, journal = _observed_run(app, model)
        assert set(derive_provenance(journal).kernel_launch_trigger) == {
            kr.index for kr in stats.kernel_records
        }

    def test_release_edge_counts_total_tbs(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-edges")
        model = BlockMaestroModel(window=2)
        _plan, stats, journal = _observed_run(app, model)
        counts = derive_provenance(journal).release_edge_counts()
        assert sum(counts.values()) == len(stats.tb_records)


class TestAttribution:
    """Components must tile [0, makespan] on canonical DAG shapes."""

    def test_serial_chain(self):
        app = make_chain_app(num_pairs=3, tbs=8, block=64, name="cp-serial")
        for model in (SerializedBaseline(), BlockMaestroModel(window=2)):
            _plan, stats, journal = _observed_run(app, model)
            segments, attribution = _assert_attribution_sums(stats, journal)
            assert attribution["exec"] > 0
            # chronological, contiguous coverage of [0, makespan]
            assert segments[0]["t0_ns"] == pytest.approx(0.0, abs=1e-3)
            assert segments[-1]["t1_ns"] == pytest.approx(
                stats.makespan_ns, abs=1e-3
            )
            for prev, cur in zip(segments, segments[1:]):
                assert cur["t0_ns"] == pytest.approx(prev["t1_ns"], abs=1e-3)

    def test_independent_kernels(self):
        spec = get_workload("mvt")
        app = spec.build_small()
        for window in (2, 3):
            model = BlockMaestroModel(window=window)
            _plan, stats, journal = _observed_run(app, model, window=window)
            _assert_attribution_sums(stats, journal)

    def test_fan_out_fan_in(self):
        spec = get_workload("lud")
        app = spec.build_small()
        model = BlockMaestroModel(window=3)
        _plan, stats, journal = _observed_run(app, model, window=3)
        _assert_attribution_sums(stats, journal)

    def test_occupancy_bound_chain(self):
        """1 SM x 1 slot: blocks queue for the device, not for parents."""
        config = GPUConfig(num_sms=1, max_tbs_per_sm=1, duration_jitter=0.0)
        app = make_chain_app(num_pairs=1, tbs=6, block=32, name="cp-occ")
        model = BlockMaestroModel(config, window=2)
        _plan, stats, journal = _observed_run(app, model)
        segments, attribution = _assert_attribution_sums(stats, journal)
        counts = derive_provenance(journal).release_edge_counts()
        assert counts.get("occupancy", 0) > 0
        assert attribution["occupancy"] > 0
        occ = [s for s in segments if s["kind"] == "occupancy"]
        assert occ and all("freed_by" in s for s in occ)


class TestSignatureIdentity:
    """Recording must be pure observation: results identical on and off."""

    @pytest.mark.parametrize("workload", ("mvt", "lud"))
    def test_signature_identical_with_recorder(self, workload):
        spec = get_workload(workload)

        def simulate(journal):
            app = spec.build_small()
            runtime = BlockMaestroRuntime()
            plan = runtime.plan(app, reorder=True, window=3)
            return BlockMaestroModel(window=3).run(plan, journal=journal)

        plain = simulate(None)
        recorded = simulate(JournalRecorder())
        assert recorded.simulated_signature() == plain.simulated_signature()


class TestWhatIf:
    def test_bounds_never_exceed_achieved(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-whatif")
        model = BlockMaestroModel(window=2)
        plan, stats, _journal = _observed_run(app, model)
        bounds = what_if_bounds(
            plan, model.gpu_config, model.options(), stats.makespan_ns
        )
        for knob, entry in bounds.items():
            assert entry["bound_makespan_ns"] <= stats.makespan_ns
            assert entry["speedup_bound"] >= 1.0

    def test_zero_launch_strictly_helps_launch_heavy_runs(self):
        app = make_chain_app(num_pairs=3, tbs=4, block=32, name="cp-launchy")
        model = SerializedBaseline()
        plan, stats, _journal = _observed_run(
            app, model, reorder=False, window=1
        )
        assert model.options().launch_overhead_ns > 0
        bounds = what_if_bounds(
            plan, model.gpu_config, model.options(), stats.makespan_ns,
            knobs=("zero_launch",),
        )
        assert bounds["zero_launch"]["speedup_bound"] > 1.0

    def test_ideal_is_at_least_as_fast_as_each_single_knob(self):
        spec = get_workload("mvt")
        app = spec.build_small()
        model = BlockMaestroModel(window=3)
        plan, stats, _journal = _observed_run(app, model, window=3)
        bounds = what_if_bounds(
            plan, model.gpu_config, model.options(), stats.makespan_ns
        )
        for knob in ("zero_launch", "infinite_sms", "no_dependencies"):
            assert (
                bounds["ideal"]["bound_makespan_ns"]
                <= bounds[knob]["bound_makespan_ns"] + 1e-3
            )


class TestUnboundedDevice:
    def test_always_places_on_sm_zero(self):
        config = GPUConfig(num_sms=2, max_tbs_per_sm=1)
        device = UnboundedDevice(config)
        for i in range(100):
            assert device.try_place(256, float(i)) == 0
        assert device.free_slots(256) > 10_000

    def test_bounded_device_refuses_when_full(self):
        config = GPUConfig(num_sms=1, max_tbs_per_sm=1)
        device = Device(config)
        assert device.try_place(32, 0.0) is not None
        assert device.try_place(32, 0.0) is None


class TestReportAndValidation:
    @pytest.fixture(scope="class")
    def report(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-report")
        model = BlockMaestroModel(window=2)
        _plan, stats, journal = _observed_run(app, model)
        return build_report(stats, journal, whatif=True)

    def test_valid_report_passes(self, report):
        assert validate_critpath_report(report) == []

    def test_all_components_present(self, report):
        assert set(report["attribution_ns"]) == set(COMPONENT_KEYS)
        assert set(report["attribution_fraction"]) == set(COMPONENT_KEYS)

    def test_validator_rejects_bad_sum(self, report):
        import copy

        bad = copy.deepcopy(report)
        bad["attribution_ns"]["exec"] += 1.0
        assert any("sum" in e for e in validate_critpath_report(bad))

    def test_validator_rejects_missing_component(self, report):
        import copy

        bad = copy.deepcopy(report)
        del bad["attribution_ns"]["barrier"]
        assert any("barrier" in e for e in validate_critpath_report(bad))

    def test_validator_rejects_whatif_above_makespan(self, report):
        import copy

        bad = copy.deepcopy(report)
        bad["whatif"]["ideal"]["bound_makespan_ns"] = (
            bad["makespan_ns"] * 2.0
        )
        assert any("exceeds" in e for e in validate_critpath_report(bad))

    def test_validator_rejects_negative_duration_segment(self, report):
        import copy

        bad = copy.deepcopy(report)
        bad["critical_path"]["segments"][0] = {
            "kind": "exec", "t0_ns": 10.0, "t1_ns": 5.0, "via": "x",
        }
        assert any("negative" in e for e in validate_critpath_report(bad))

    def test_format_critpath_renders(self, report):
        text = format_critpath(report, limit=5)
        assert "makespan attribution" in text
        assert "exec" in text
        assert "what-if speedup bounds" in text


class TestFlowEvents:
    def test_tracer_flow_phases(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.flow("cp", 1.0, "f1", "begin")
        tracer.flow("cp", 2.0, "f1", "step")
        tracer.flow("cp", 3.0, "f1", "end")
        events = [e for e in tracer.events() if e["ph"] in "stf"]
        assert [e["ph"] for e in events] == ["s", "t", "f"]
        assert all(e["id"] == "f1" for e in events)
        assert events[-1]["bp"] == "e"

    def test_null_tracer_flow_is_inert(self):
        tracer = NullTracer()
        tracer.flow("cp", 1.0, "f1", "begin")
        assert len(tracer) == 0

    def test_emit_critpath_flow_overlays_path(self):
        from repro.obs.critpath import emit_critpath_flow

        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="cp-flow")
        model = BlockMaestroModel(window=2)
        _plan, stats, journal = _observed_run(app, model)
        segments = extract_critical_path(stats, journal)
        tracer = Tracer(clock=lambda: 0.0)
        emitted = emit_critpath_flow(tracer, segments)
        assert emitted > 0
        flows = [e for e in tracer.events() if e["ph"] in "stf"]
        assert len(flows) == emitted
        assert flows[0]["ph"] == "s" and flows[-1]["ph"] == "f"

    def test_emit_critpath_flow_respects_disabled_tracer(self):
        from repro.obs.critpath import emit_critpath_flow

        assert emit_critpath_flow(NullTracer(), [{"kind": "exec"}]) == 0


class TestPerSMCounters:
    def _run_traced(self, per_sm):
        app = make_chain_app(num_pairs=1, tbs=8, block=64, name="cp-sm")
        tracer = Tracer(per_sm_counters=per_sm)
        runtime = BlockMaestroRuntime(tracer=tracer)
        plan = runtime.plan(app, reorder=True, window=2)
        BlockMaestroModel(window=2).run(plan, tracer=tracer)
        return [
            e for e in tracer.events(ph="C")
            if e["name"].startswith("running_tbs[sm=")
        ]

    def test_opt_in_emits_per_sm_samples(self):
        samples = self._run_traced(per_sm=True)
        assert samples
        assert all(e["cat"] == "device.sm" for e in samples)

    def test_default_off(self):
        assert self._run_traced(per_sm=False) == []


class TestDrainDiagnostics:
    def test_stuck_run_names_blocks_and_parents(self):
        app = make_chain_app(num_pairs=2, tbs=4, block=32, name="cp-stuck")
        model = BlockMaestroModel(window=2)
        runtime = BlockMaestroRuntime(model.gpu_config)
        plan = runtime.plan(app, reorder=True, window=2)

        class StuckEngine(ExecutionEngine):
            def _tb_eligible(self, ki):
                return False  # nothing ever dispatches

        engine = StuckEngine(plan, model.gpu_config, model.options())
        with pytest.raises(EngineDrainError) as excinfo:
            engine.run()
        err = excinfo.value
        assert "outstanding" in str(err)
        assert err.details["kernels"]
        row = err.details["kernels"][0]
        assert row["unreleased"] == row["num_tbs"]
        assert row["stuck_tbs"]
        first = row["stuck_tbs"][0]
        assert "tb" in first
        assert "unmet_parents" in first or "reason" in first

    def test_healthy_run_does_not_raise(self):
        app = make_chain_app(num_pairs=1, tbs=4, block=32, name="cp-ok")
        model = BlockMaestroModel(window=2)
        runtime = BlockMaestroRuntime(model.gpu_config)
        plan = runtime.plan(app, reorder=True, window=2)
        engine = ExecutionEngine(plan, model.gpu_config, model.options())
        stats = engine.run()
        assert stats.makespan_ns > 0
