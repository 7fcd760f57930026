"""Integration tests for the telemetry CLI surfaces.

Covers ``repro telemetry`` (text, ``--json`` schema validation,
``--prom``), ``repro report`` (the self-contained HTML flight report),
``repro trace --telemetry`` (merged counter tracks), the sized
``repro list --json`` listing, ``bench run --telemetry``, and the
create-parent-directories behavior every ``--out``-style flag shares
through the atomic writer.
"""

import json
import re

import pytest

from repro.bench.schema import load_report
from repro.cli import main
from repro.obs.telemetry import validate_telemetry_report


class TestTelemetryCommand:
    def test_text_mode(self, capsys):
        assert main(["telemetry", "mvt"]) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out
        assert "overlap" in out

    def test_json_is_schema_valid(self, capsys):
        assert main(["telemetry", "mvt", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert validate_telemetry_report(report) == []
        assert report["workload"] == "mvt"
        assert report["model"] == "consumer3"

    def test_prometheus_snapshot(self, tmp_path, capsys):
        prom = tmp_path / "mvt.prom"
        assert main(["telemetry", "mvt", "--prom", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_makespan_ns gauge" in text
        assert 'workload="mvt"' in text

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["telemetry", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_limit_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["telemetry", "mvt", "--limit", "-2"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--limit: must be >= 0" in captured.err
        assert captured.out == ""


class TestReportCommand:
    @pytest.fixture(scope="class")
    def report_html(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("flight") / "flight.html"
        assert main(["report", "backprop", "--out", str(path)]) == 0
        return path.read_text()

    def test_contains_every_section(self, report_html):
        for heading in (
            "Telemetry timelines",
            "Kernel execution spans",
            "Critical-path attribution",
            "Achieved cross-kernel overlap",
            "Idle bubbles",
            "Journal",
        ):
            assert heading in report_html

    def test_is_self_contained(self, report_html):
        # no external assets: everything inline, viewable offline
        assert not re.search(r'src\s*=\s*"http', report_html)
        assert not re.search(r'href\s*=\s*"http', report_html)
        assert "<script src" not in report_html
        assert '<link rel="stylesheet"' not in report_html

    def test_stdout_summary(self, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "mvt", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "self-contained HTML" in text
        assert "overlap" in text


class TestTraceTelemetry:
    def test_counter_tracks_merged(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "mvt", "--telemetry", "-o", str(out),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert "telemetry.occupancy" in tracks
        assert "telemetry.queues" in tracks
        assert "telemetry.dependency_hw" in tracks


class TestListSizes:
    def test_json_carries_kernel_and_tb_counts(self, capsys):
        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries
        for entry in entries:
            assert entry["num_kernels"] >= 1
            assert entry["total_tbs"] >= entry["num_kernels"]
        by_name = {e["name"]: e for e in entries}
        assert by_name["mvt"]["num_kernels"] == 2


class TestBenchTelemetry:
    def test_run_embeds_validated_section(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert main([
            "bench", "run", "--filter", "mvt", "--models", "consumer3",
            "--repeats", "1", "--warmup", "0", "--telemetry",
            "-o", str(path),
        ]) == 0
        payload = load_report(str(path))  # raises if schema-invalid
        assert payload["schema_version"] == 2
        entry = payload["workloads"]["mvt"]["models"]["consumer3"]
        assert "pair_overlap" in entry["telemetry"]
        # self-diff must be clean: the summary is deterministic
        assert main(["bench", "diff", str(path), str(path)]) == 0


class TestOutCreatesParentDirs:
    """Every artifact writer shares the atomic helper, so a nested,
    not-yet-existing output directory must work for all of them."""

    def test_trace_output(self, tmp_path):
        out = tmp_path / "a" / "b" / "trace.json"
        assert main([
            "trace", "mvt", "-o", str(out),
            "--metrics-out", str(tmp_path / "c" / "m.json"),
        ]) == 0
        assert out.exists()
        assert (tmp_path / "c" / "m.json").exists()

    def test_blame_out(self, tmp_path):
        out = tmp_path / "deep" / "blame.txt"
        assert main(["blame", "mvt", "--out", str(out)]) == 0
        assert "simulated time per kernel" in out.read_text()

    def test_journal_out(self, tmp_path):
        out = tmp_path / "j" / "mvt.journal.jsonl"
        assert main(["journal", "mvt", "--out", str(out)]) == 0
        assert out.exists()

    def test_critpath_json(self, tmp_path):
        out = tmp_path / "cp" / "report.json"
        assert main(["critpath", "mvt", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "repro-critpath-report"

    def test_telemetry_json_and_prom(self, tmp_path):
        out = tmp_path / "tm" / "report.json"
        prom = tmp_path / "prom" / "report.prom"
        assert main([
            "telemetry", "mvt", "--json", str(out), "--prom", str(prom),
        ]) == 0
        assert validate_telemetry_report(json.loads(out.read_text())) == []
        assert prom.exists()

    def test_flight_report_out(self, tmp_path):
        out = tmp_path / "fr" / "flight.html"
        assert main(["report", "mvt", "--out", str(out)]) == 0
        assert "<html" in out.read_text()
