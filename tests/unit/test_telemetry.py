"""Unit tests for journal-derived hardware telemetry (repro.obs.telemetry)."""

import copy

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, SerializedBaseline
from repro.obs.telemetry import (
    BUBBLE_BLAME_KINDS,
    SERIES_KEYS,
    TELEMETRY_KIND,
    TELEMETRY_SCHEMA_VERSION,
    UTILIZATION_KEYS,
    _downsample,
    bench_summary,
    build_report,
    format_telemetry,
    validate_telemetry_report,
    write_prometheus,
)
from repro.obs.journal import JournalRecorder, record_run
from repro.obs.tracer import PID_DEVICE, Tracer
from repro.obs.telemetry import emit_telemetry_counters

from tests.conftest import make_chain_app


def _sampled_run(app, model, reorder=True, window=2):
    runtime = BlockMaestroRuntime(model.gpu_config)
    plan = runtime.plan(app, reorder=reorder, window=window)
    journal = JournalRecorder()
    stats = model.run(plan, journal=journal)
    return plan, stats, journal


class TestReport:
    @pytest.fixture(scope="class")
    def run(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="tm-chain")
        plan, stats, journal = _sampled_run(app, BlockMaestroModel(window=2))
        return stats, journal, build_report(stats, journal)

    def test_validates_clean(self, run):
        _stats, _journal, report = run
        assert validate_telemetry_report(report) == []
        assert report["kind"] == TELEMETRY_KIND
        assert report["schema_version"] == TELEMETRY_SCHEMA_VERSION

    def test_series_columns_align(self, run):
        _stats, _journal, report = run
        series = report["series"]
        n = len(series["t_ns"])
        assert n > 0
        for key in SERIES_KEYS[1:]:
            assert len(series[key]) == n
        for column in series["resident_tbs"].values():
            assert len(column) == n
        assert series["t_ns"] == sorted(series["t_ns"])

    def test_overlap_bounded_by_kernel_spans(self, run):
        _stats, _journal, report = run
        spans = {row["index"]: row["span_ns"] for row in report["kernels"]}
        for pair in report["overlap"]["pairs"]:
            floor = min(spans[pair["a"]], spans[pair["b"]])
            assert pair["overlap_ns"] <= floor + 1e-6
            assert 0.0 <= pair["overlap_fraction"] <= 1.0
            assert 0.0 <= pair["tb_overlap_fraction"] <= 1.0

    def test_bubbles_tile_the_makespan(self, run):
        _stats, _journal, report = run
        # busy time + idle-bubble time must account for the whole run
        total = report["bubbles"]["total_ns"] + report["busy_ns"]
        assert total == pytest.approx(report["makespan_ns"], abs=1e-3)
        for span in report["bubbles"]["spans"]:
            assert 0.0 <= span["start_ns"] <= span["end_ns"]
            assert span["end_ns"] <= report["makespan_ns"] + 1e-6
            assert span["blame"] in BUBBLE_BLAME_KINDS

    def test_consistency_errors_are_zero(self, run):
        _stats, _journal, report = run
        assert report["consistency"]["busy_ns_error"] == pytest.approx(0.0)
        assert report["consistency"]["tiling_error_ns"] == pytest.approx(0.0)

    def test_utilization_keys_complete(self, run):
        _stats, _journal, report = run
        assert set(report["utilization"]) == set(UTILIZATION_KEYS)
        util = report["utilization"]
        assert 0.0 <= util["busy_fraction"] <= 1.0
        assert 0.0 <= util["wavefront_efficiency"] <= 1.0
        assert util["mean_occupancy_tbs"] <= util["peak_occupancy_tbs"]

    def test_chain_produces_overlap(self, run):
        _stats, _journal, report = run
        # the producer/consumer chain under window=2 must overlap
        assert report["overlap"]["total_overlap_ns"] > 0.0

    def test_format_is_human_readable(self, run):
        _stats, _journal, report = run
        text = format_telemetry(report)
        assert "occupancy" in text
        assert "overlap" in text

    def test_validator_catches_corruption(self, run):
        _stats, _journal, report = run
        broken = copy.deepcopy(report)
        broken["series"]["running_tbs"] = broken["series"]["running_tbs"][:-1]
        assert validate_telemetry_report(broken)
        broken = copy.deepcopy(report)
        if broken["overlap"]["pairs"]:
            broken["overlap"]["pairs"][0]["overlap_fraction"] = 2.0
            assert validate_telemetry_report(broken)
        broken = copy.deepcopy(report)
        broken["kind"] = "nope"
        assert validate_telemetry_report(broken)

    def test_bench_summary_is_flat_and_numeric(self, run):
        _stats, _journal, report = run
        summary = bench_summary(report)
        for key, value in summary.items():
            if key == "pair_overlap":
                assert all(
                    isinstance(v, float) for v in value.values()
                )
            else:
                assert isinstance(value, (int, float))

    def test_prometheus_exposition(self, run):
        _stats, _journal, report = run
        text = write_prometheus(report)
        assert text.endswith("\n")
        helps = [l for l in text.splitlines() if l.startswith("# HELP")]
        types = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(helps) == len(types)
        # every HELP'd metric family appears exactly once
        names = [l.split()[2] for l in helps]
        assert len(names) == len(set(names))
        assert 'workload="tm-chain"' in text

    def test_counter_tracks_merge_into_a_trace(self, run):
        _stats, _journal, report = run
        tracer = Tracer()
        emit_telemetry_counters(tracer, report)
        counters = tracer.events(ph="C", pid=PID_DEVICE)
        tracks = {event["name"] for event in counters}
        assert "telemetry.occupancy" in tracks
        assert "telemetry.queues" in tracks
        assert "telemetry.dependency_hw" in tracks


class TestBaselineIsSerial:
    def test_baseline_has_zero_overlap(self):
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="tm-serial")
        _plan, stats, journal = _sampled_run(
            app, SerializedBaseline(), reorder=False, window=1
        )
        report = build_report(stats, journal)
        assert validate_telemetry_report(report) == []
        for pair in report["overlap"]["pairs"]:
            assert pair["overlap_ns"] == 0.0
            assert pair["tb_overlap_fraction"] == 0.0


class TestObservationOnly:
    def test_signature_identical_with_and_without_sampler(self):
        app = make_chain_app(num_pairs=3, tbs=8, block=64, name="tm-sig")
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=True, window=3)
        bare = BlockMaestroModel(window=3).run(plan)
        observed = BlockMaestroModel(window=3).run(
            plan, journal=JournalRecorder()
        )
        assert bare.simulated_signature() == observed.simulated_signature()


class TestDownsample:
    def test_keeps_endpoints(self):
        samples = [[float(i)] + [i] * 6 for i in range(100)]
        thinned = _downsample(samples, 10)
        assert len(thinned) <= 10
        assert thinned[0] is samples[0]
        assert thinned[-1] is samples[-1]

    def test_short_series_untouched(self):
        samples = [[0.0, 1, 1, 0, 0, 0, ()], [5.0, 0, 0, 0, 0, 0, ()]]
        assert _downsample(samples, 512) == samples


class TestRecordTelemetry:
    def test_registry_workload_round_trip(self):
        journal, stats = record_run("mvt")
        report = build_report(stats, journal)
        assert validate_telemetry_report(report) == []
        assert report["workload"] == "mvt"
        assert report["model"] == "consumer3"

    def test_unfinalized_sampler_is_rejected(self):
        with pytest.raises(ValueError):
            build_report(None, JournalRecorder())
