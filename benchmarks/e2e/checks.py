"""Golden outputs: the sha256 of every registry cell's simulated signature.

``golden.json`` maps ``"<workload>/<model>"`` to the sha256 of
``RunStats.simulated_signature()`` serialized as sorted-key JSON, for
the 12 registry workloads x 7 roster models.  ``run.py --write-golden``
produces it under ``REPRO_ENGINE=reference REPRO_FASTPATH=reference``,
so the scalar oracles, not the fast tiers, define the expected values.
"""

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_KIND = "repro-e2e-golden"


def digest(signature):
    """sha256 of one simulated signature (a flat dict of numbers)."""
    text = json.dumps(signature, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def signature_from_run_json(payload):
    """The simulated signature rebuilt from ``repro run --json`` output."""
    quartiles = payload["stall_quartiles"]
    return {
        "makespan_ns": payload["makespan_ns"],
        "busy_ns": payload["busy_ns"],
        "concurrency_integral": payload["concurrency_integral"],
        "avg_tb_concurrency": payload["avg_tb_concurrency"],
        "num_tbs": payload["num_tbs"],
        "num_kernels": len(payload["kernels"]),
        "stall_q1": quartiles["q1"],
        "stall_median": quartiles["median"],
        "stall_q3": quartiles["q3"],
        "kernel_memory_requests": payload["kernel_memory_requests"],
        "dependency_memory_requests": payload["dependency_memory_requests"],
        "memory_overhead_fraction": payload["memory_overhead_fraction"],
        "graph_plain_bytes": payload["graph_plain_bytes"],
        "graph_encoded_bytes": payload["graph_encoded_bytes"],
    }


def cell(workload, model):
    return "{}/{}".format(workload, model)


def load_golden(path=GOLDEN_PATH):
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != GOLDEN_KIND:
        raise ValueError("{}: not a {} file".format(path, GOLDEN_KIND))
    return payload["cells"]


def write_golden(path=GOLDEN_PATH):
    """Simulate all registry cells on the scalar oracles; write digests."""
    os.environ["REPRO_ENGINE"] = "reference"
    os.environ["REPRO_FASTPATH"] = "reference"
    from repro.experiments.common import STANDARD_MODELS, ExperimentContext
    from repro.workloads import workload_names

    ctx = ExperimentContext()
    cells = {}
    for name in workload_names():
        app = ctx.app(name)
        for model, *_ in STANDARD_MODELS:
            stats = ctx.run_model(app, model)
            cells[cell(name, model)] = digest(stats.simulated_signature())
    payload = {
        "kind": GOLDEN_KIND,
        "engine": "reference",
        "fastpath": "reference",
        "cells": cells,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return cells
