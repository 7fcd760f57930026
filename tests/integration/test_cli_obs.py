"""Integration tests for the observability CLI surfaces.

Covers ``repro trace``, ``repro blame``, the ``--json`` flags on ``run``
and ``compare``, and the experiment runner's ``--out`` report directory.
"""

import json

import pytest

from repro.cli import main


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "mvt.json"
        main(["trace", "mvt", "--model", "blockmaestro", "-o", str(out)])
        captured = capsys.readouterr().out
        assert str(out) in captured

        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert "ph" in event and "ts" in event
            assert "pid" in event and "tid" in event

        names = {e["name"] for e in events}
        cats = {e.get("cat", "") for e in events}
        # plan-phase spans
        assert any(n.startswith("plan.") for n in names)
        # kernel-launch spans
        assert "kernel.launch" in cats
        # per-TB lifecycle events
        assert "tb" in cats

    def test_trace_accepts_uppercase_workload(self, tmp_path):
        out = tmp_path / "t.json"
        main(["trace", "MVT", "--model", "blockmaestro", "-o", str(out)])
        assert json.loads(out.read_text())["traceEvents"]

    def test_trace_writes_metrics_sidecar(self, tmp_path):
        out = tmp_path / "mvt.json"
        main(["trace", "mvt", "-o", str(out)])
        sidecar = tmp_path / "mvt.metrics.json"
        snapshot = json.loads(sidecar.read_text())
        assert snapshot["counters"]["plan.kernels"] >= 1
        assert snapshot["gauges"]["engine.makespan_ns"] > 0


class TestBlameCommand:
    @pytest.mark.parametrize("workload", ["mvt", "bicg", "path"])
    def test_blame_reports_kernel_phases(self, workload, capsys):
        main(["blame", workload])
        out = capsys.readouterr().out
        assert "simulated time per kernel" in out
        for phase in ("queue", "launch", "stall", "exec"):
            assert phase in out
        assert "wall clock per pipeline phase" in out

    def test_blame_limit(self, capsys):
        main(["blame", "fft", "--limit", "2"])
        out = capsys.readouterr().out
        assert "more kernels" in out

    def test_blame_negative_limit_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blame", "mvt", "--limit", "-1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--limit: must be >= 0" in captured.err
        assert captured.out == ""


class TestJsonFlags:
    def test_run_json_to_stdout(self, capsys):
        main(["run", "path", "--model", "blockmaestro", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "consumer3"
        assert payload["makespan_ns"] > 0
        assert payload["kernels"]

    def test_run_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main(["run", "path", "--json", str(out)])
        assert json.loads(out.read_text())["makespan_ns"] > 0
        # human-readable summary still printed when writing to a file
        assert "makespan" in capsys.readouterr().out

    def test_compare_json(self, capsys):
        main(["compare", "mvt", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "mvt"
        names = [run["model"] for run in payload["runs"]]
        assert "baseline" in names
        baseline = next(r for r in payload["runs"] if r["model"] == "baseline")
        assert baseline["speedup"] == pytest.approx(1.0)


class TestRunnerReports:
    def test_out_dir_writes_per_experiment_json(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["experiments", "tab3", "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "tab3.json").read_text())
        assert report["experiment"] == "tab3"
        assert report["rows"]
        assert report["elapsed_s"] >= 0
