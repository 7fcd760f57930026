"""Unit tests for structured logging + heartbeats (repro.obs.log)."""

import io
import json

import pytest

from repro.obs import log as obslog
from repro.obs.log import Heartbeat, get_logger, parse_level


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(obslog.LOG_ENV, raising=False)
    monkeypatch.delenv(obslog.LOG_JSON_ENV, raising=False)
    monkeypatch.delenv(obslog.STATUS_FILE_ENV, raising=False)
    obslog.reset()
    yield
    obslog.reset()


class TestParseSpec:
    def test_defaults_to_info(self):
        assert parse_level("") == obslog.LEVELS["info"]
        assert parse_level(None) == obslog.LEVELS["info"]

    def test_level_only(self):
        assert parse_level("debug") == obslog.LEVELS["debug"]
        assert parse_level(" OFF ") == obslog.LEVELS["off"]

    def test_unknown_level_raises(self):
        # a subsystem list is not a level either
        for name in ("chatty", "debug:fuzz,serve"):
            with pytest.raises(ValueError, match="unknown log level"):
                parse_level(name)


class TestLogger:
    def test_text_mode_is_the_bare_message(self):
        stream = io.StringIO()
        obslog.configure(stream=stream)
        get_logger("bench").info("bench: mvt x baseline")
        assert stream.getvalue() == "bench: mvt x baseline\n"

    def test_debug_suppressed_at_default_level(self):
        stream = io.StringIO()
        obslog.configure(stream=stream)
        get_logger("bench").debug("noise")
        assert stream.getvalue() == ""

    def test_env_enables_debug(self, monkeypatch):
        monkeypatch.setenv(obslog.LOG_ENV, "debug")
        stream = io.StringIO()
        obslog.configure(stream=stream)
        get_logger("bench").debug("detail")
        assert stream.getvalue() == "detail\n"

    def test_off_silences_everything(self):
        stream = io.StringIO()
        obslog.configure(level="off", stream=stream)
        get_logger("bench").error("even errors")
        assert stream.getvalue() == ""

    def test_json_mode_emits_records(self):
        stream = io.StringIO()
        obslog.configure(json_lines=True, stream=stream)
        get_logger("bench").info("hello", cell="mvt x baseline")
        record = json.loads(stream.getvalue())
        assert record["msg"] == "hello"
        assert record["level"] == "info"
        assert record["subsystem"] == "bench"
        assert record["cell"] == "mvt x baseline"
        assert isinstance(record["ts"], float)

    def test_cli_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(obslog.LOG_ENV, "debug")
        stream = io.StringIO()
        obslog.configure(level="error", stream=stream)
        get_logger("bench").info("suppressed")
        get_logger("bench").error("kept")
        assert stream.getvalue() == "kept\n"


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestHeartbeat:
    def test_status_file_written_atomically(self, tmp_path):
        path = tmp_path / "status.json"
        now = {"t": 0.0}
        hb = Heartbeat(
            4, phase="bench", status_path=str(path),
            stream=io.StringIO(), clock=lambda: now["t"],
        )
        now["t"] = 10.0
        hb.advance(current="mvt x baseline")
        payload = json.loads(path.read_text())
        assert payload["kind"] == obslog.STATUS_KIND
        assert payload["completed"] == 1
        assert payload["total"] == 4
        assert payload["current"] == "mvt x baseline"
        assert payload["done"] is False
        # 10s for 1 of 4 cells -> 30s remaining
        assert payload["eta_s"] == pytest.approx(30.0)
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_finish_marks_done(self, tmp_path):
        path = tmp_path / "status.json"
        hb = Heartbeat(2, status_path=str(path), stream=io.StringIO())
        hb.advance(current="a")
        hb.finish()
        payload = json.loads(path.read_text())
        assert payload["done"] is True
        assert payload["completed"] == 2
        assert payload["current"] is None

    def test_no_eta_before_first_completion(self):
        hb = Heartbeat(4, stream=io.StringIO())
        assert hb.eta_s() is None

    def test_tty_draws_and_clears_live_line(self):
        stream = FakeTTY()
        now = {"t": 0.0}
        hb = Heartbeat(2, phase="bench", stream=stream,
                       clock=lambda: now["t"])
        now["t"] = 5.0
        hb.advance(current="mvt x baseline")
        out = stream.getvalue()
        assert "bench: 1/2" in out
        assert "mvt x baseline" in out
        assert "eta" in out
        hb.finish()
        assert stream.getvalue().endswith("\r\x1b[K")

    def test_non_tty_stays_silent(self):
        stream = io.StringIO()
        hb = Heartbeat(2, stream=stream)
        hb.advance(current="a")
        hb.finish()
        assert stream.getvalue() == ""

    def test_env_var_names_the_status_file(self, tmp_path, monkeypatch):
        path = tmp_path / "env-status.json"
        monkeypatch.setenv(obslog.STATUS_FILE_ENV, str(path))
        hb = Heartbeat(1, stream=io.StringIO())
        hb.advance(current="only")
        assert json.loads(path.read_text())["completed"] == 1
