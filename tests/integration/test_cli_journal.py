"""Integration tests for the flight-recorder CLI surfaces.

Covers ``repro journal`` (recording, digests, default naming),
``repro jdiff`` (identical exit 0, divergence exit 1, ``--json``,
``--window``), the ``--out`` flags on ``trace``/``blame``, and the
global ``--log-json`` / ``--status-file`` observability plumbing.
"""

import json

import pytest

from repro.cli import main
from repro.obs import log as obslog
from repro.obs.jdiff import validate_jdiff_report
from repro.obs.journal import load_journal, validate_journal


@pytest.fixture(autouse=True)
def clean_log_state():
    obslog.reset()
    yield
    obslog.reset()


def _record(tmp_path, name, workload="mvt", model="consumer3"):
    path = tmp_path / name
    assert main([
        "journal", workload, "--model", model, "--out", str(path),
    ]) == 0
    return path


class TestJournalCommand:
    def test_records_a_valid_journal(self, tmp_path, capsys):
        path = _record(tmp_path, "mvt.journal.jsonl")
        out = capsys.readouterr().out
        assert "journal events" in out
        assert "digest   : sha256:" in out
        header, events = load_journal(str(path))
        assert validate_journal(header, events) == []
        assert header["workload"] == "mvt"
        assert header["model"] == "consumer3"

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["journal", "mvt"]) == 0
        assert (tmp_path / "mvt-consumer3.journal.jsonl").exists()

    def test_blockmaestro_alias_resolves(self, tmp_path, capsys):
        path = _record(
            tmp_path, "alias.journal.jsonl", model="blockmaestro"
        )
        header, _events = load_journal(str(path))
        assert header["model"] == "consumer3"

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["journal", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestJdiffCommand:
    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        a = _record(tmp_path, "a.journal.jsonl")
        b = _record(tmp_path, "b.journal.jsonl")
        assert main(["jdiff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergence_exits_one_with_blame(self, tmp_path, capsys):
        a = _record(tmp_path, "a.journal.jsonl")
        b = _record(tmp_path, "b.journal.jsonl", model="baseline")
        # different models: headers mismatch and streams diverge
        assert main(["jdiff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out or "header mismatch" in out

    def test_json_report_is_schema_valid(self, tmp_path, capsys):
        a = _record(tmp_path, "a.journal.jsonl")
        b = _record(tmp_path, "b.journal.jsonl")
        capsys.readouterr()
        assert main(["jdiff", str(a), str(b), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert validate_jdiff_report(report) == []
        assert report["identical"] is True

    def test_invalid_report_is_never_written(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.obs import jdiff

        a = _record(tmp_path, "a.journal.jsonl")
        diff = jdiff.diff_journals
        # a generator bug: a field of the wrong type
        monkeypatch.setattr(
            jdiff, "diff_journals",
            lambda *args, **kwargs: dict(diff(*args, **kwargs), identical=1),
        )
        out = tmp_path / "report.json"
        with pytest.raises(AssertionError, match="jdiff report is invalid"):
            main(["jdiff", str(a), str(a), "--json", str(out)])
        assert not out.exists()

    def test_corrupt_journal_exits_two(self, tmp_path, capsys):
        a = _record(tmp_path, "a.journal.jsonl")
        bad = tmp_path / "bad.journal.jsonl"
        lines = a.read_text().splitlines()
        bad.write_text("\n".join(lines[:-2]) + "\n")
        assert main(["jdiff", str(a), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = _record(tmp_path, "a.journal.jsonl")
        assert main(["jdiff", str(a), str(tmp_path / "absent")]) == 2


class TestOutFlags:
    def test_blame_out_writes_the_text_report(self, tmp_path, capsys):
        out = tmp_path / "blame.txt"
        main(["blame", "mvt", "--out", str(out)])
        assert "wrote" in capsys.readouterr().out
        assert "simulated time per kernel" in out.read_text()

    def test_trace_out_writes_the_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "trace-summary.txt"
        main(["trace", "mvt", "--out", str(out)])
        text = out.read_text()
        assert "makespan" in text
        assert "trace events" in text


class TestObservabilityPlumbing:
    def test_log_json_emits_records(self, tmp_path, capsys):
        main([
            "--log-json", "fuzz", "--count", "1", "--out", str(tmp_path),
        ])
        err_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        assert err_lines
        record = json.loads(err_lines[0])
        assert record["subsystem"] == "fuzz"
        assert record["msg"].startswith("fuzz: 1 cases (seeds 0..0)")

    def test_status_file_tracks_the_run(self, tmp_path, capsys, monkeypatch):
        status = tmp_path / "status.json"
        monkeypatch.setenv(obslog.STATUS_FILE_ENV, str(status))
        main(["experiments", "tab1"])
        payload = json.loads(status.read_text())
        assert payload["kind"] == "repro-status"
        assert payload["done"] is True
        assert payload["completed"] == payload["total"]

    def test_experiments_status_file(self, tmp_path, capsys):
        status = tmp_path / "exp-status.json"
        main([
            "experiments", "census", "--status-file", str(status),
        ])
        payload = json.loads(status.read_text())
        assert payload["phase"] == "experiments"
        assert payload["done"] is True
