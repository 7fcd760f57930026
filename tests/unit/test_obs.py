"""Unit tests for the observability package (repro.obs)."""

import json

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    NullMetrics,
    NullTracer,
    PID_DEVICE,
    PID_RUNTIME,
    Tracer,
)
from repro.obs.render import emit_occupancy_counters, occupancy_steps
from repro.obs.report import (
    format_blame,
    kernel_blame_rows,
    run_stats_dict,
    write_experiment_report,
)
from repro.obs.tracer import trace_us
from repro.sim.stats import TBRecord, TBTable
from repro.workloads import get_workload

from tests.conftest import make_chain_app


class FakeClock:
    """Deterministic wall clock for tracer tests."""

    def __init__(self):
        self.t = 0.0

    def advance(self, seconds):
        self.t += seconds

    def __call__(self):
        return self.t


class TestTracer:
    def test_span_nesting_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", cat="t"):
            clock.advance(0.010)
            with tracer.span("inner", cat="t"):
                clock.advance(0.005)
            clock.advance(0.010)
        spans = {e["name"]: e for e in tracer.events(ph="X")}
        assert spans["inner"]["dur"] == pytest.approx(5_000, abs=1)
        assert spans["outer"]["dur"] == pytest.approx(25_000, abs=1)
        # the inner span is fully contained in the outer one
        assert spans["outer"]["ts"] <= spans["inner"]["ts"]
        assert (
            spans["inner"]["ts"] + spans["inner"]["dur"]
            <= spans["outer"]["ts"] + spans["outer"]["dur"]
        )

    def test_every_event_is_well_formed(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            clock.advance(0.001)
        tracer.instant("i", cat="c")
        tracer.counter("cnt", {"x": 1}, ts_us=5.0)
        tracer.sim_span("s", 1_000.0, 3_000.0, pid=PID_DEVICE, tid=2)
        tracer.async_begin("ab", 1.0, "id1")
        tracer.async_end("ab", 2.0, "id1")
        for event in tracer.events():
            assert "ph" in event and "ts" in event
            assert "pid" in event and "tid" in event
            assert event["ts"] >= 0

    def test_export_parses_as_chrome_trace_json(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        tracer.sim_span("k", 0.0, 2_000.0)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)
        assert loaded["traceEvents"]
        names = {e["name"] for e in loaded["traceEvents"]}
        assert "k" in names
        # process metadata present for every clock domain
        assert sum(1 for e in loaded["traceEvents"] if e["ph"] == "M") >= 4

    def test_sim_span_converts_ns_to_us(self):
        tracer = Tracer(clock=FakeClock())
        tracer.sim_span("k", 2_000.0, 5_000.0)
        (event,) = tracer.events(ph="X")
        assert event["ts"] == pytest.approx(2.0)
        assert event["dur"] == pytest.approx(3.0)

    def test_wall_phase_totals_aggregates_and_sorts(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for duration in (0.002, 0.003):
            with tracer.span("phase.a"):
                clock.advance(duration)
        with tracer.span("phase.b"):
            clock.advance(0.010)
        rows = tracer.wall_phase_totals()
        assert rows[0][0] == "phase.b"
        by_name = {name: (total, count) for name, total, count in rows}
        assert by_name["phase.a"][1] == 2
        assert by_name["phase.a"][0] == pytest.approx(5_000, abs=1)

    def test_events_filtering(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("x", cat="plan.graph", pid=PID_RUNTIME)
        tracer.sim_span("y", 0, 1, cat="kernel.exec", pid=PID_DEVICE)
        assert len(tracer.events(cat_prefix="plan")) == 1
        assert len(tracer.events(pid=PID_DEVICE, ph="X")) == 1


class TestNullTwins:
    def test_null_tracer_mirrors_api(self):
        real = [n for n in dir(Tracer) if not n.startswith("_")]
        null = [n for n in dir(NullTracer) if not n.startswith("_")]
        assert set(real) <= set(null) | {"to_dict", "to_json", "write"}

    def test_null_tracer_is_inert(self):
        tracer = NULL_TRACER
        with tracer.span("a"):
            pass
        tracer.instant("b")
        tracer.counter("c", {"v": 1})
        assert len(tracer) == 0
        assert tracer.events() == []
        assert not tracer.enabled

    def test_null_metrics_mirrors_api(self):
        registry = NullMetrics()
        registry.counter("a").inc()
        registry.gauge("b").set(3)
        registry.histogram("c").observe(1.5)
        registry.inc("d")
        registry.set_gauge("e", 1)
        registry.observe("f", 2)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_components_default_to_null_observers(self, tmp_path):
        from repro.analysis.cache import AnalysisCache
        from repro.serve.coalescer import Coalescer, ResponseCache

        runtime = BlockMaestroRuntime()
        assert runtime.tracer is NULL_TRACER
        assert runtime.metrics is NULL_METRICS
        assert runtime.hardware.metrics is NULL_METRICS
        assert AnalysisCache(str(tmp_path)).metrics is NULL_METRICS
        assert Coalescer().metrics is NULL_METRICS
        assert ResponseCache().metrics is NULL_METRICS
        # an explicit observer is used as given
        tracer, registry = Tracer(clock=FakeClock()), MetricsRegistry()
        runtime = BlockMaestroRuntime(tracer=tracer, metrics=registry)
        assert runtime.tracer is tracer and runtime.metrics is registry


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.set_gauge("g", 7.5)
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_percentiles_exact_below_reservoir(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(value)
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 100.0

    def test_histogram_percentiles_empty_and_single(self):
        hist = Histogram()
        assert hist.percentile(0.5) is None
        assert hist.summary()["p50"] is None
        hist.observe(7.0)
        assert hist.percentile(0.5) == 7.0
        assert hist.summary()["p95"] == 7.0

    def test_histogram_reservoir_bounded_and_deterministic(self):
        a = Histogram(reservoir_size=256)
        b = Histogram(reservoir_size=256)
        for value in range(20_000):
            a.observe(value)
            b.observe(value)
        assert a.num_samples == 256  # memory stays bounded
        assert a.count == 20_000     # exact stats unaffected
        # fixed seed: identical observation sequences -> identical summaries
        assert a.summary() == b.summary()
        # reservoir median lands near the true median
        assert a.summary()["p50"] == pytest.approx(10_000, rel=0.15)

    def test_percentile_helper_shared_with_stats(self):
        from repro.obs.metrics import percentile
        from repro.sim import stats as sim_stats

        assert sim_stats.percentile is percentile
        assert percentile([], 0.5) == 0.0
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_write_is_valid_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("a.b", 4)
        path = tmp_path / "metrics.json"
        registry.write(str(path))
        assert json.loads(path.read_text())["counters"]["a.b"] == 4



@pytest.fixture(scope="module")
def traced_run():
    app = make_chain_app(num_pairs=2, tbs=8, block=64, intensity=4.0, name="obs")
    tracer = Tracer()
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics)
    plan = runtime.plan(app, reorder=True, window=2)
    stats = BlockMaestroModel(window=2).run(plan, tracer=tracer, metrics=metrics)
    return plan, stats, tracer, metrics


class TestInstrumentedPipeline:
    def test_plan_phase_spans_present(self, traced_run):
        _plan, _stats, tracer, _metrics = traced_run
        names = {e["name"] for e in tracer.events(ph="X")}
        for phase in ("plan.reorder", "plan.analyze", "plan.graphs"):
            assert phase in names

    def test_kernel_and_tb_events_present(self, traced_run):
        _plan, stats, tracer, _metrics = traced_run
        cats = {e.get("cat") for e in tracer.events()}
        assert "kernel.launch" in cats and "kernel.exec" in cats
        assert "host.queue" in cats
        launches = tracer.events(ph="X", cat_prefix="kernel.launch")
        assert len(launches) == len(stats.kernel_records)
        tb_begins = [e for e in tracer.events(ph="b") if e.get("cat") == "tb"]
        assert len(tb_begins) == len(stats.tb_records)

    def test_occupancy_counter_events(self, traced_run):
        _plan, stats, tracer, metrics = traced_run
        samples = [e for e in tracer.events(ph="C") if e["name"] == "running_tbs"]
        # one sample per distinct rendered TB start or finish time, in
        # time order, for the last simulated time rendered there
        records = stats.tb_records
        times = sorted(set(records.start_ns) | set(records.finish_ns))
        last_time = {trace_us(t / 1e3): t for t in times}
        assert [e["ts"] for e in samples] == list(last_time)
        running = [e["args"]["running"] for e in samples]
        assert running[-1] == 0

        # the running count at a time, from the TB table directly
        def resident(t):
            return sum(
                start <= t < finish
                for start, finish in zip(records.start_ns, records.finish_ns)
            )

        for sample, t in zip(running, last_time.values()):
            assert sample == resident(t)
        # the gauge is the peak over every unrounded time
        assert metrics.snapshot()["gauges"]["device.peak_tb_concurrency"] == (
            max(resident(t) for t in times)
        )

    def test_counter_samples_collide_at_one_nanosecond(self):
        """Times 0.4 ns apart render at one ``ts``: each track gets one
        sample there, holding the state after the later time."""
        table = TBTable([
            TBRecord(0, 0, 0.0, 1000.0, 2000.0, 0),
            TBRecord(0, 1, 0.0, 1000.4, 3000.0, 1),
            TBRecord(0, 2, 0.0, 2000.2, 3000.0, 0),
        ])
        steps = list(occupancy_steps(table))
        assert len(steps) == 5
        tracer = Tracer(clock=FakeClock(), per_sm_counters=True)
        emit_occupancy_counters(tracer, steps)
        samples = [
            (e["name"], e["ts"], e["args"]["running"])
            for e in tracer.events(ph="C")
        ]
        assert samples == [
            ("running_tbs", 1.0, 2),
            ("running_tbs[sm=00]", 1.0, 1),
            ("running_tbs[sm=01]", 1.0, 1),
            ("running_tbs", 2.0, 2),
            ("running_tbs[sm=00]", 2.0, 1),
            ("running_tbs", 3.0, 0),
            ("running_tbs[sm=00]", 3.0, 0),
            ("running_tbs[sm=01]", 3.0, 0),
        ]

    def test_metrics_capture_pipeline_counters(self, traced_run):
        _plan, stats, _tracer, metrics = traced_run
        snap = metrics.snapshot()
        assert snap["counters"]["plan.kernels"] == len(stats.kernel_records)
        assert snap["gauges"]["engine.makespan_ns"] == stats.makespan_ns
        assert snap["gauges"]["engine.events_processed"] > 0
        assert snap["histograms"]["engine.tb_stall_ns"]["count"] == len(
            stats.tb_records
        )

    def test_trace_exports_valid_json(self, traced_run, tmp_path):
        _plan, _stats, tracer, _metrics = traced_run
        path = tmp_path / "pipeline-trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        for event in loaded["traceEvents"]:
            assert "ph" in event and "ts" in event
            assert "pid" in event and "tid" in event


class TestDeterminism:
    """Tracing must be pure observation: identical results on and off."""

    WORKLOADS = ("mvt", "bicg", "path")

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_makespan_identical_with_and_without_tracing(self, workload):
        spec = get_workload(workload)

        def simulate(tracer, metrics):
            app = spec.build()
            runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics)
            plan = runtime.plan(app, reorder=True, window=3)
            return BlockMaestroModel(window=3).run(
                plan, tracer=tracer, metrics=metrics
            )

        plain = simulate(None, None)
        traced = simulate(Tracer(), MetricsRegistry())
        assert traced.makespan_ns == plain.makespan_ns
        assert traced.busy_ns == plain.busy_ns
        assert traced.concurrency_integral == plain.concurrency_integral
        assert len(traced.tb_records) == len(plain.tb_records)
        assert [tb.start_ns for tb in traced.tb_records] == [
            tb.start_ns for tb in plain.tb_records
        ]


class TestReport:
    def test_run_stats_dict_round_trips(self, traced_run):
        _plan, stats, _tracer, _metrics = traced_run
        payload = run_stats_dict(stats, include_tb_records=True)
        loaded = json.loads(json.dumps(payload))
        assert loaded["model"] == stats.model
        assert loaded["makespan_ns"] == stats.makespan_ns
        assert len(loaded["kernels"]) == len(stats.kernel_records)
        assert len(loaded["tb_records"]) == len(stats.tb_records)
        assert loaded["stall_quartiles"]["median"] >= 0

    def test_to_dict_delegates_to_shared_serializer(self, traced_run):
        _plan, stats, _tracer, _metrics = traced_run
        assert stats.to_dict() == run_stats_dict(stats)

    def test_blame_rows_partition_lifetime(self, traced_run):
        _plan, stats, _tracer, _metrics = traced_run
        for row in kernel_blame_rows(stats):
            parts = (
                row["queue_ns"]
                + row["launch_ns"]
                + row["stall_ns"]
                + row["exec_ns"]
                + row["drain_ns"]
            )
            assert parts == pytest.approx(row["total_ns"], rel=1e-9)
        totals = [row["total_ns"] for row in kernel_blame_rows(stats)]
        assert totals == sorted(totals, reverse=True)

    def test_format_blame_output(self, traced_run):
        _plan, stats, tracer, _metrics = traced_run
        text = format_blame(stats, tracer=tracer, limit=1)
        assert "simulated time per kernel" in text
        assert "launch" in text and "stall" in text and "exec" in text
        assert "more kernels" in text  # limit elision
        assert "wall clock per pipeline phase" in text

    def test_write_experiment_report(self, tmp_path):
        rows = [{"benchmark": "mvt", "speedup": 1.25}]
        path = write_experiment_report(str(tmp_path / "r"), "fig09", rows, 0.5)
        loaded = json.loads(open(path).read())
        assert loaded["experiment"] == "fig09"
        assert loaded["rows"] == rows
