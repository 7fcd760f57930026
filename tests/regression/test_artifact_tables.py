"""Golden gate: the table of every paper artifact, byte for byte.

``artifact_tables.json`` holds the sha256 of each table that ``repro
experiments`` (the 11 experiments) and ``repro ablations`` (the 7
sweeps) print, with the ``[... finished in Ns]`` footers cut off.  It is
the only test that pins the numbers of Fig. 12, Fig. 14, the streams
study and the ablations, so a refactor of how the artifacts are planned
and simulated must leave every digest unchanged.  Replace an entry only
for an intentional change of that one artifact; a failing run prints
the new digests.  Both commands run once per session
(``conftest.py``); ``test_artifact_shapes.py`` checks the same runs'
rows against the paper's shapes.
"""

import hashlib
import json
import os
import re

import pytest

from repro.experiments.ablations import ABLATIONS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "artifact_tables.json")
FOOTER = re.compile(r"\n\[(\S+) finished in [0-9.]+s\]\n\n")


def _digest(table):
    return "sha256:" + hashlib.sha256(table.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_experiment_tables_match_golden(golden, experiments_run):
    parts = FOOTER.split(experiments_run.stdout)
    assert parts[-1] == ""
    tables = {
        name: _digest(table) for table, name in zip(parts[0::2], parts[1::2])
    }
    assert tables == golden["experiments"]


def test_ablation_tables_match_golden(golden, ablations_run):
    parts = ablations_run.stdout.split("\n\n")
    assert parts[-1] == ""
    tables = {name: _digest(table) for name, table in zip(ABLATIONS, parts)}
    assert len(parts) - 1 == len(ABLATIONS)
    assert tables == golden["ablations"]
