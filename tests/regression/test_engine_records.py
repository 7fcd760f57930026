"""Golden gate: the complete output of the scalar reference engine.

``engine_records.json`` holds, per cell, the sha256 of the canonical
JSON of one unobserved :class:`~repro.sim.stats.RunStats` produced with
``engine="reference"``: every field, including the ordered TB records
with their SM placement, the kernel records and ``counters``, plus
``simulated_signature()``.  The fast engine tier is differential-gated
*against* this engine, so only this file catches a change to the engine
itself — TB order, SM placement, float accumulation order or the number
of dispatch passes.

Cells:

* the 12 registry workloads (small variants) under the 7 roster
  models, Wireframe (``ready_capacity``) and CDP;
* ``fuzz-0``..``fuzz-49`` under the 7 roster models;
* two multi-stream apps (independent per-stream pipelines, and
  event-ordered cross-stream chains) under the 7 roster models;
* all of the above again on a 2-SM device (``/2sm`` cells), where the
  small apps contend for slots and scheduling order matters;
* a 1-SM, 1-slot device and a 3-SM device running mixed block sizes,
  under the serialized baseline and both BlockMaestro policies;
* the critpath what-if replays (zero launch overhead, unbounded device,
  dependencies dropped, all three) of every registry roster cell.

Regenerate only for an intentional change of simulated behaviour:
``PYTHONPATH=src python -m tests.regression.test_engine_records``.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    STANDARD_MODELS,
    _make_model,
    _model_plan_params,
)
from repro.models import (
    BlockMaestroModel,
    CDPModel,
    SerializedBaseline,
    WireframeModel,
)
from repro.obs.critpath import WHATIF_KNOBS, whatif_engine
from repro.sim.config import GPUConfig
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import AppBuilder
from repro.workloads.streams import build_pipelines

from tests.conftest import PRODUCE_SRC, make_chain_app

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "engine_records.json")
MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
#: Fig. 14 comparison models: (factory, reorder, window)
EXTRA_MODELS = {
    "wireframe": (WireframeModel, True, 3),
    "cdp": (CDPModel, False, 1),
}
REGISTRY = [spec.name for spec in all_workloads()]
FUZZ = ["fuzz-{}".format(seed) for seed in range(50)]
STREAM_APPS = ("pipelines", "events")
DEVICE_APPS = ("tiny", "mixed")
GROUPS = REGISTRY + FUZZ + list(STREAM_APPS) + list(DEVICE_APPS)
#: 2 SMs: 256-thread blocks fill an SM's thread budget at 3, smaller ones
#: its block cap at 4, so even the small apps contend for slots and the
#: TB scheduler's order decides who runs
CONTENDED = GPUConfig(num_sms=2, max_tbs_per_sm=4, max_threads_per_sm=768)


def _digest(stats):
    payload = dataclasses.asdict(stats)
    payload["simulated_signature"] = stats.simulated_signature()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _event_app():
    """Two streams, two kernels each; stream 2's chain waits on an event
    recorded after stream 1's chain (cross-stream completion gates)."""
    tbs, block = 8, 64
    b = AppBuilder("events")
    size = tbs * block * 4
    a = b.alloc("A", size)
    mid = b.alloc("MID", size)
    src = b.alloc("SRC", size)
    tmp = b.alloc("TMP", size)
    out = b.alloc("OUTB", size)
    b.h2d(a, stream=1)
    b.launch(PRODUCE_SRC, grid=tbs, block=block,
             args={"IN0": a, "OUT": mid}, stream=1, tag="produce0")
    b.launch(PRODUCE_SRC, grid=tbs, block=block,
             args={"IN0": mid, "OUT": src}, stream=1, tag="produce1")
    b.event_record(event=7, stream=1)
    b.stream_wait_event(event=7, stream=2)
    consume = PRODUCE_SRC.replace("produce", "consume")
    b.launch(consume, grid=tbs, block=block,
             args={"IN0": src, "OUT": tmp}, stream=2, tag="consume0")
    b.launch(consume, grid=tbs, block=block,
             args={"IN0": tmp, "OUT": out}, stream=2, tag="consume1")
    b.d2h(out, stream=2)
    return b.build()


def _mixed_block_app():
    """A chain whose kernels use 256-, 64- and 128-thread blocks, so SMs
    fill by both their block cap and their thread budget."""
    b = AppBuilder("mixed")
    elems = 16 * 256
    bufs = [b.alloc("B{}".format(i), elems * 4) for i in range(4)]
    b.h2d(bufs[0])
    for i, block in enumerate((256, 64, 128)):
        b.launch(PRODUCE_SRC, grid=elems // block, block=block,
                 args={"IN0": bufs[i], "OUT": bufs[i + 1]},
                 tag="k{}".format(i))
    b.d2h(bufs[3])
    return b.build()


class _Plans:
    """One planning pass per (reorder, window) of an app."""

    def __init__(self, app, config=None):
        self.app = app
        self.runtime = BlockMaestroRuntime(config)
        self._plans = {}

    def get(self, reorder, window):
        key = (reorder, window)
        if key not in self._plans:
            self._plans[key] = self.runtime.plan(
                self.app, reorder=reorder, window=window
            )
        return self._plans[key]

    def roster(self, label):
        for model_name in MODEL_NAMES:
            plan = self.get(*_model_plan_params(model_name))
            model = _make_model(model_name, self.runtime.config)
            yield "{}/{}".format(label, model_name), plan, model


def _app(group):
    if group == "pipelines":
        return build_pipelines(use_streams=True)
    if group == "events":
        return _event_app()
    return get_workload(group).build_small()


def group_cells(group):
    """Yield ``(cell, stats)`` for every cell of one group."""
    if group in DEVICE_APPS:
        yield from _device_cells(group)
        return
    app = _app(group)
    for config, suffix in ((None, ""), (CONTENDED, "/2sm")):
        plans = _Plans(app, config)
        for cell, plan, model in plans.roster(group + suffix):
            yield cell, model.run(plan, engine="reference")
            if group in REGISTRY and config is None:
                for knob in WHATIF_KNOBS:
                    engine = whatif_engine(
                        plan, model.gpu_config, model.options(), knob
                    )
                    yield "{}/whatif:{}".format(cell, knob), engine.run()
        if group in REGISTRY:
            for name, (factory, reorder, window) in EXTRA_MODELS.items():
                model = factory(plans.runtime.config)
                yield (
                    "{}{}/{}".format(group, suffix, name),
                    model.run(plans.get(reorder, window), engine="reference"),
                )


def _device_cells(group):
    if group == "tiny":
        config = GPUConfig(num_sms=1, max_tbs_per_sm=1, max_threads_per_sm=64)
        app = make_chain_app(num_pairs=3, tbs=4, block=64, name="squeeze")
    else:
        # two 256-thread blocks leave room for 64-thread ones only, so
        # the producer-priority gate decides whether those run
        config = GPUConfig(num_sms=3, max_tbs_per_sm=4, max_threads_per_sm=640)
        app = _mixed_block_app()
    plans = _Plans(app, config)
    yield (
        "{}/baseline".format(group),
        SerializedBaseline(config).run(plans.get(False, 1), engine="reference"),
    )
    for policy in SchedulingPolicy:
        model = BlockMaestroModel(config, window=4, policy=policy)
        yield (
            "{}/{}".format(group, policy.value),
            model.run(plans.get(True, 4), engine="reference"),
        )


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["records"]


def test_golden_covers_every_group(golden):
    prefixes = {cell.split("/", 1)[0] for cell in golden}
    assert prefixes == set(GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_records_match_golden(golden, group):
    expected = {
        cell: digest for cell, digest in golden.items()
        if cell.split("/", 1)[0] == group
    }
    actual = {cell: _digest(stats) for cell, stats in group_cells(group)}
    assert set(actual) == set(expected)
    for cell in sorted(actual):
        assert actual[cell] == expected[cell], cell


if __name__ == "__main__":
    records = {
        cell: _digest(stats)
        for group in GROUPS
        for cell, stats in group_cells(group)
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {
                "about": (
                    "sha256 of the canonical JSON (sort_keys, compact "
                    "separators) of dataclasses.asdict(RunStats) plus "
                    "simulated_signature(), per cell, from the scalar "
                    "reference engine; tests/regression/"
                    "test_engine_records.py lists the cells and "
                    "recomputes them."
                ),
                "records": records,
            },
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    print("{} cells -> {}".format(len(records), GOLDEN_PATH))
