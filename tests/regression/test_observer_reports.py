"""Golden gate: the engine journal and the reports derived from it.

``observer_reports.json`` holds the sha256 of every cell's canonical
critpath report (with what-if bounds) and telemetry report, recorded
when each analysis still had its own engine recorder.  Deriving both
from the one journal stream must reproduce them byte for byte: the 12
registry workloads (small variants) and ``fuzz-0``..``fuzz-49``, each
under the 7 roster models.

Its ``journal`` map holds each cell's journal digest.  The reports do
not read every detail of the stream — moving an emission within one
engine step can leave them unchanged — so the digest pins the event
order the engine emits.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.common import STANDARD_MODELS
from repro.obs import critpath as cp
from repro.obs import telemetry as tm
from repro.obs.journal import record_run
from repro.workloads import all_workloads

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "observer_reports.json")
MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
WORKLOADS = [spec.name for spec in all_workloads()] + [
    "fuzz-{}".format(seed) for seed in range(50)
]


def _digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_cell(golden):
    cells = {
        "{}/{}".format(w, m) for w in WORKLOADS for m in MODEL_NAMES
    }
    assert set(golden["critpath"]) == cells
    assert set(golden["telemetry"]) == cells
    assert set(golden["journal"]) == cells


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_match_golden(golden, workload):
    for model in MODEL_NAMES:
        journal, stats = record_run(workload, model, build_small=True)
        cell = "{}/{}".format(workload, model)
        assert journal.digest() == golden["journal"][cell], cell
        critpath = cp.build_report(stats, journal, whatif=True)
        assert _digest(critpath) == golden["critpath"][cell], cell
        telemetry = tm.build_report(stats, journal)
        assert _digest(telemetry) == golden["telemetry"][cell], cell
