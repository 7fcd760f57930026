"""Golden gate: the per-TB JSON of ``repro run --tb-records``.

``tb_records_json.json`` holds, per cell, the sha256 of the canonical
JSON (sort_keys, compact separators) of the ``ops.run(W, M,
tb_records=True)`` payload: the ``repro run W --model M --json
--tb-records`` output and the daemon's ``/v1/run`` result, with every
TB's ``tb_record_dict`` row.  Cells: every registry workload at full
size under ``baseline`` (the vectorized engine tier) and ``consumer3``
(the scalar engine, or the vectorized tier for the fully connected
graphs of gaussian and gramschm), on the default engine tier.  The
payload's ``counters`` carry ``dispatch_passes``, which the vectorized
tier reports as 0.0, so ``REPRO_ENGINE=reference`` gives other digests.

Regenerate only for an intentional change of that output:
``PYTHONPATH=src python -m tests.regression.test_tb_records_json``.
"""

import hashlib
import json
import os

import pytest

from repro import ops
from repro.experiments.common import ExperimentContext
from repro.workloads import all_workloads

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "tb_records_json.json")
MODELS = ("baseline", "consumer3")
WORKLOADS = [spec.name for spec in all_workloads()]


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell_digest(context, workload, model):
    payload, _stats = ops.run(
        workload, model, tb_records=True, context=context
    )
    return _digest(payload)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["records"]


def test_golden_covers_every_cell(golden):
    assert set(golden) == {
        "{}/{}".format(w, m) for w in WORKLOADS for m in MODELS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tb_records_json_matches_golden(golden, context, workload):
    for model in MODELS:
        cell = "{}/{}".format(workload, model)
        assert _cell_digest(context, workload, model) == golden[cell], cell


if __name__ == "__main__":
    shared = ExperimentContext()
    records = {
        "{}/{}".format(w, m): _cell_digest(shared, w, m)
        for w in WORKLOADS for m in MODELS
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {
                "about": (
                    "sha256 of the canonical JSON (sort_keys, compact "
                    "separators) of ops.run(W, M, tb_records=True)'s "
                    "payload per full-size registry cell; tests/"
                    "regression/test_tb_records_json.py recomputes them."
                ),
                "records": records,
            },
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    print("{} cells -> {}".format(len(records), GOLDEN_PATH))
