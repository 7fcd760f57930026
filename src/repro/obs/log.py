"""Structured logging + live progress heartbeats for long runs.

Every subsystem that used to ``print(..., file=sys.stderr)`` now goes
through a :class:`Logger` from :func:`get_logger`.  In the default
configuration the output is byte-identical to the old ad-hoc prints
(the bare message on stderr at info level), so nothing downstream —
tests, shell pipelines, CI greps — notices the switch.  Two knobs
change that:

* ``REPRO_LOG`` (or the CLI's ``--log``) — the threshold level:
  ``debug`` < ``info`` (default) < ``warning`` < ``error`` < ``off``.
  Any other name raises :class:`ValueError` (the CLI exits 2).
* ``REPRO_LOG_JSON=1`` (or the CLI's ``--log-json``) — each record
  becomes one JSON object per line (``ts``/``level``/``subsystem``/
  ``msg`` + the record's fields), machine-parseable for CI and
  ``repro serve``.

:class:`Heartbeat` is the live-progress half: long ``repro
experiments`` invocations tick it once per completed experiment.
On a TTY it redraws a single status line (current cell, ETA); on a
non-TTY it stays silent so logs remain clean.  Either way
every tick atomically rewrites a machine-readable JSON status file
(``REPRO_STATUS_FILE`` or ``--status-file``) that an external watcher —
eventually ``repro serve`` — can poll.
"""

import json
import os
import sys
import time

from repro import schema
from repro.version import STATUS_SCHEMA_VERSION

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 100}

LOG_ENV = "REPRO_LOG"
LOG_JSON_ENV = "REPRO_LOG_JSON"
STATUS_FILE_ENV = "REPRO_STATUS_FILE"

#: module state; one process-wide configuration (workers fork it)
_state = {
    "level": None,          # numeric threshold, resolved lazily
    "json": None,           # bool, resolved lazily
    "stream": None,         # defaults to sys.stderr at emit time
}


def parse_level(name):
    """A level name -> its numeric threshold; empty or ``None`` is
    ``info``, and an unknown name raises :class:`ValueError`."""
    key = (name or "info").strip().lower()
    if key not in LEVELS:
        raise ValueError(
            "unknown log level {!r} (expected one of {})".format(
                name, ", ".join(LEVELS)
            )
        )
    return LEVELS[key]


def configure(level=None, json_lines=None, stream=None):
    """Pin the process-wide config (CLI flags beat environment)."""
    if level is not None:
        _state["level"] = parse_level(level)
    if json_lines is not None:
        _state["json"] = bool(json_lines)
    if stream is not None:
        _state["stream"] = stream


def reset():
    """Drop all configuration (tests call this)."""
    _state.update(level=None, json=None, stream=None)


def _resolved_level():
    if _state["level"] is None:
        _state["level"] = parse_level(os.environ.get(LOG_ENV))
    return _state["level"]


def _resolved_json():
    if _state["json"] is None:
        _state["json"] = os.environ.get(LOG_JSON_ENV, "") not in ("", "0")
    return _state["json"]


def _stream():
    return _state["stream"] if _state["stream"] is not None else sys.stderr


class Logger:
    """Leveled record emitter for one subsystem (see module docstring)."""

    def __init__(self, subsystem):
        self.subsystem = subsystem

    def enabled(self, level_name):
        return LEVELS[level_name] >= _resolved_level()

    def log(self, level_name, msg, **fields):
        if not self.enabled(level_name):
            return
        stream = _stream()
        if _resolved_json():
            record = {
                "ts": round(time.time(), 3),
                "level": level_name,
                "subsystem": self.subsystem,
                "msg": msg,
            }
            record.update(fields)
            stream.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        else:
            # bare message: byte-identical to the historical stderr print
            stream.write(msg + "\n")
        stream.flush()

    def debug(self, msg, **fields):
        self.log("debug", msg, **fields)

    def info(self, msg, **fields):
        self.log("info", msg, **fields)

    def warning(self, msg, **fields):
        self.log("warning", msg, **fields)

    def error(self, msg, **fields):
        self.log("error", msg, **fields)


def get_logger(subsystem):
    return Logger(subsystem)


# ----------------------------------------------------------------------
# heartbeat / status file
# ----------------------------------------------------------------------
STATUS_KIND = "repro-status"


def write_status_snapshot(payload, path):
    """Atomically rewrite a status snapshot at ``path``.

    Written through :func:`repro.obs.report.atomic_write_text`: a
    concurrent poller either sees the previous complete snapshot or the
    new one, never a partial file, and each writer has its own tmp
    file.  This is the exact contract the serve daemon's ``/statusz``
    endpoint and the ``--status-file`` flags share (and tests gate
    under concurrency).
    """
    from repro.obs.report import atomic_write_text

    return atomic_write_text(json.dumps(payload, sort_keys=True) + "\n", path)


_COUNT = schema.Check(int, lambda value: value >= 0, "a non-negative integer")

_SNAPSHOT = {
    "kind": STATUS_KIND,
    "schema_version": STATUS_SCHEMA_VERSION,
    "phase": str,
    "completed": _COUNT,
    "total": _COUNT,
    "current": schema.Optional(str),
    "elapsed_s": schema.NON_NEGATIVE,
    "eta_s": schema.Optional(schema.NON_NEGATIVE),
    "done": bool,
    "pid": schema.Check(int, lambda value: value > 0, "a positive integer"),
}


def validate_status_snapshot(payload):
    """Schema-check a ``repro-status`` snapshot; returns error strings."""
    return schema.check(payload, _SNAPSHOT)


class Heartbeat:
    """Live progress for a multi-cell run: TTY line + JSON status file.

    ``total`` is the number of cells; :meth:`tick` is called once per
    completed cell with a human label for the *next* work (or the one
    just finished).  ETA is linear extrapolation
    from elapsed/completed — crude but monotone, and honest about being
    absent until the first cell lands.
    """

    def __init__(self, total, phase="experiments", status_path=None,
                 stream=None, clock=time.monotonic):
        self.total = int(total)
        self.phase = phase
        self.status_path = (
            status_path
            if status_path is not None
            else (os.environ.get(STATUS_FILE_ENV) or None)
        )
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self.completed = 0
        self.current = None
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._live = False  # a live line is currently on screen

    # -- progress ------------------------------------------------------
    def tick(self, current=None, completed=None):
        if completed is not None:
            self.completed = int(completed)
        if current is not None:
            self.current = current
        self._write_status()
        self._draw()

    def advance(self, current=None):
        self.tick(current=current, completed=self.completed + 1)

    def finish(self):
        """Clear the live line and write the terminal status snapshot."""
        self.completed = self.total
        self.current = None
        self._write_status(done=True)
        if self._live:
            self._stream.write("\r\x1b[K")
            self._stream.flush()
            self._live = False

    # -- internals -----------------------------------------------------
    def elapsed_s(self):
        return self._clock() - self._start

    def eta_s(self):
        if self.completed <= 0 or self.completed >= self.total:
            return None
        per_cell = self.elapsed_s() / self.completed
        return per_cell * (self.total - self.completed)

    def snapshot(self, done=False):
        return {
            "kind": STATUS_KIND,
            "schema_version": STATUS_SCHEMA_VERSION,
            "phase": self.phase,
            "completed": self.completed,
            "total": self.total,
            "current": self.current,
            "elapsed_s": round(self.elapsed_s(), 3),
            "eta_s": (
                round(self.eta_s(), 3) if self.eta_s() is not None else None
            ),
            "done": bool(done or self.completed >= self.total),
            "pid": os.getpid(),
        }

    def _write_status(self, done=False):
        if not self.status_path:
            return
        # atomic replace: a poller never sees a half-written file
        write_status_snapshot(self.snapshot(done=done), self.status_path)

    def _draw(self):
        if not self._tty:
            return
        bits = ["{}: {}/{}".format(self.phase, self.completed, self.total)]
        if self.current:
            bits.append(str(self.current))
        eta = self.eta_s()
        if eta is not None:
            bits.append("eta {:.0f}s".format(eta))
        self._stream.write("\r\x1b[K" + "  ".join(bits))
        self._stream.flush()
        self._live = True
