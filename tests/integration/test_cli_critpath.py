"""Integration tests for the critical-path CLI surfaces.

Covers ``repro critpath`` (text, ``--json``, ``--whatif``), the new
``--json`` flags on ``blame`` and ``trace``, the ``trace --critpath``
flow-event overlay, ``trace --per-sm`` counters, and the bench
``--critpath`` section plus its ``bench diff`` drift detection.
"""

import copy
import glob
import json

import pytest

from repro.cli import main
from repro.obs.critpath import validate_critpath_report


class TestCritpathCommand:
    def test_json_report_is_schema_valid(self, capsys):
        main(["critpath", "backprop", "--model", "consumer3", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert validate_critpath_report(report) == []
        assert report["workload"] == "backprop"
        assert report["model"] == "consumer3"
        total = sum(report["attribution_ns"].values())
        assert total == pytest.approx(report["makespan_ns"], abs=1e-3)

    def test_text_mode_renders_attribution_tree(self, capsys):
        main(["critpath", "mvt"])
        out = capsys.readouterr().out
        assert "critical path: mvt x consumer3" in out
        assert "makespan attribution" in out
        assert "exec" in out and "launch" in out

    def test_negative_limit_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["critpath", "mvt", "--limit", "-1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--limit: must be >= 0" in captured.err
        assert captured.out == ""

    def test_zero_limit_shows_no_segments(self, capsys):
        assert main(["critpath", "mvt", "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "the 0 closest to the makespan:" in out
        assert out.rstrip().endswith("the 0 closest to the makespan:")

    def test_whatif_bounds_reported_and_valid(self, capsys):
        main(["critpath", "mvt", "--whatif", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert validate_critpath_report(report) == []
        assert set(report["whatif"]) == {
            "zero_launch", "infinite_sms", "no_dependencies", "ideal",
        }
        for entry in report["whatif"].values():
            assert entry["bound_makespan_ns"] <= report["makespan_ns"] + 1e-3

    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "cp.json"
        main(["critpath", "path", "--model", "baseline", "--json", str(out)])
        report = json.loads(out.read_text())
        assert validate_critpath_report(report) == []
        assert report["model"] == "baseline"

    @pytest.mark.parametrize("model", ["baseline", "prelaunch", "consumer3"])
    def test_sums_and_signature_identity_across_models(self, model):
        """The acceptance sweep in miniature: schema-valid attribution
        and recording-off signature identity for each model tier."""
        from repro.core.runtime import BlockMaestroRuntime
        from repro.experiments.common import (
            _make_model,
            _model_plan_params,
        )
        from repro.obs.journal import JournalRecorder
        from repro.workloads import get_workload

        spec = get_workload("lud")
        app = spec.build_small()
        reorder, window = _model_plan_params(model)
        plan = BlockMaestroRuntime().plan(app, reorder=reorder, window=window)
        plain = _make_model(model, None)
        stats_plain = plain.run(plan)
        recorded = _make_model(model, None)
        stats_rec = recorded.run(plan, journal=JournalRecorder())
        assert (
            stats_rec.simulated_signature()
            == stats_plain.simulated_signature()
        )


class TestBlameJson:
    def test_blame_json_to_stdout(self, capsys):
        main(["blame", "mvt", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-blame-report"
        assert payload["workload"] == "mvt"
        assert payload["kernels"]
        row = payload["kernels"][0]
        for key in ("queue_ns", "launch_ns", "stall_ns", "exec_ns",
                    "drain_ns", "total_ns"):
            assert key in row
        assert payload["wall_phases"]

    def test_blame_json_respects_limit(self, capsys):
        main(["blame", "fft", "--json", "--limit", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["kernels"]) == 2


class TestTraceJsonAndFlow:
    def test_trace_json_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        main(["trace", "mvt", "-o", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-trace-summary"
        assert payload["num_events"] > 0
        assert payload["trace"] == str(out)

    def test_trace_critpath_emits_flow_events(self, tmp_path):
        out = tmp_path / "flow.json"
        main(["trace", "mvt", "--critpath", "-o", str(out)])
        events = json.loads(out.read_text())["traceEvents"]
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert flows
        assert flows[0]["ph"] == "s"
        assert flows[-1]["ph"] == "f" and flows[-1]["bp"] == "e"
        assert all(e.get("cat") == "critpath" for e in flows)

    def test_trace_per_sm_counters(self, tmp_path):
        out = tmp_path / "sm.json"
        main(["trace", "mvt", "--per-sm", "-o", str(out)])
        events = json.loads(out.read_text())["traceEvents"]
        samples = [
            e for e in events
            if e["ph"] == "C" and e["name"].startswith("running_tbs[sm=")
        ]
        assert samples
        # the plain aggregate counter is still present
        assert any(
            e["ph"] == "C" and e["name"] == "running_tbs" for e in events
        )

    def test_trace_without_per_sm_has_no_sm_counters(self, tmp_path):
        out = tmp_path / "nosm.json"
        main(["trace", "mvt", "-o", str(out)])
        events = json.loads(out.read_text())["traceEvents"]
        assert not [
            e for e in events
            if e["ph"] == "C" and e["name"].startswith("running_tbs[sm=")
        ]


class TestBenchCritpath:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench-cp")
        main([
            "bench", "run", "--quick", "--critpath",
            "--filter", "mvt", "--models", "consumer3",
            "--repeats", "1", "--warmup", "0", "--out", str(out),
        ])
        (path,) = glob.glob(str(out / "BENCH_*.json"))
        return json.loads(open(path).read())

    def test_report_carries_schema_valid_critpath_section(self, report):
        from repro.bench.schema import validate_report

        assert validate_report(report) == []
        assert report["config"]["critpath"] is True
        entry = report["workloads"]["mvt"]["models"]["consumer3"]["critpath"]
        makespan = (
            report["workloads"]["mvt"]["models"]["consumer3"]["simulated"]
            ["makespan_ns"]
        )
        assert sum(entry["attribution_ns"].values()) == pytest.approx(
            makespan, abs=1e-3
        )
        assert sum(entry["attribution_fraction"].values()) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_diff_flags_attribution_shift_as_drift(self, report):
        from repro.bench.diff import diff_reports

        clean = diff_reports(report, copy.deepcopy(report))
        assert not clean.drift and not clean.failed()

        shifted = copy.deepcopy(report)
        cp = shifted["workloads"]["mvt"]["models"]["consumer3"]["critpath"]
        cp["attribution_ns"]["launch"] += 5.0
        result = diff_reports(report, shifted)
        assert result.failed()
        assert any(
            d.metric == "critpath.attribution_ns.launch" for d in result.drift
        )

    def test_diff_ignores_missing_section(self, report):
        from repro.bench.diff import diff_reports

        stripped = copy.deepcopy(report)
        del stripped["workloads"]["mvt"]["models"]["consumer3"]["critpath"]
        assert not diff_reports(report, stripped).failed()
        assert not diff_reports(stripped, report).failed()
