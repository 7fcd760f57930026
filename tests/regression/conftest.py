"""One run of each artifact command, shared by the regression gates.

``repro experiments`` and ``repro ablations`` each run once per test
session.  Their stdout feeds the table digests
(``test_artifact_tables.py``), and the rows each table was formatted
from feed the paper-shape checks (``test_artifact_shapes.py``), so
every artifact is generated once.
"""

import contextlib
import io
from typing import Dict, NamedTuple

import pytest

from repro.cli import main
from repro.experiments.ablations import ABLATIONS
from repro.experiments.runner import EXPERIMENTS


class ArtifactRun(NamedTuple):
    """A command's stdout and, per artifact name, the rows it printed."""

    stdout: str
    rows: Dict[str, list]


def _recording(rows, name, format_fn):
    def format_and_record(artifact_rows):
        rows[name] = artifact_rows
        return format_fn(artifact_rows)

    return format_and_record


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="session")
def experiments_run():
    """``repro experiments``, every experiment in registry order."""
    rows = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, module in EXPERIMENTS.items():
            patch.setattr(
                module, "format_rows",
                _recording(rows, name, module.format_rows),
            )
        stdout = _run(["experiments"])
    return ArtifactRun(stdout, rows)


@pytest.fixture(scope="session")
def ablations_run():
    """``repro ablations``, every sweep in :data:`ABLATIONS` order."""
    rows = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, (run_fn, format_fn) in ABLATIONS.items():
            patch.setitem(
                ABLATIONS, name, (run_fn, _recording(rows, name, format_fn))
            )
        stdout = _run(["ablations"])
    return ArtifactRun(stdout, rows)
