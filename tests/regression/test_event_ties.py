"""Golden gate: the scalar engine's order of events at equal times.

Every other golden runs with the default ``duration_jitter`` of 0.15,
where a thread-block finish almost never lands on the same simulated
instant as another event, so the engine's ``(time, seq)`` tie-break goes
unchecked there.  These cells run jitter-free (``duration_jitter=0.0``)
with every TB lasting exactly the model's launch overhead: a TB
dispatched when a launch begins finishes when that launch completes,
the TBs of a wave finish together, and the synchronize after each
producer completes on the instant its kernel drains.  A cell that does
not contain all three kinds of tie fails, so the pin cannot go vacuous.

``event_ties.json`` holds per cell the complete-RunStats digest
(:mod:`tests.digests`) and the engine's ``events_processed`` and
``peak_pending_events`` gauges.  Cells: BlockMaestro under producer and
consumer priority at windows 2 and 3, and Wireframe (``ready_capacity``),
on the default device and on a 2-SM device where TBs contend for slots;
plus a journaled run.

Regenerate only for an intentional change of simulated behaviour:
``PYTHONPATH=src python -m tests.regression.test_event_ties``.
"""

import collections
import json
import os

import pytest

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.host.api import KernelLaunchCall
from repro.models import BlockMaestroModel, WireframeModel
from repro.obs.journal import JournalRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import GPUConfig

from tests.conftest import make_chain_app
from tests.digests import runstats_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "event_ties.json")
DEVICES = {
    "": GPUConfig(duration_jitter=0.0),
    "2sm/": GPUConfig(
        num_sms=2, max_tbs_per_sm=4, max_threads_per_sm=768,
        duration_jitter=0.0,
    ),
}
#: model name -> (factory(config), plan window)
MODELS = {
    "{}{}".format(policy.value, window): (
        lambda config, w=window, p=policy: BlockMaestroModel(
            config, window=w, policy=p
        ),
        window,
    )
    for policy in SchedulingPolicy
    for window in (2, 3)
}
MODELS["wireframe"] = (WireframeModel, 3)
#: cell -> (device, model name, journaled)
CELLS = {
    prefix + name: (config, name, False)
    for prefix, config in DEVICES.items()
    for name in MODELS
}
CELLS["journal/consumer2"] = (DEVICES[""], "consumer2", True)
GAUGES = ("engine.events_processed", "engine.peak_pending_events")
TIE_KINDS = {"tb-tb", "tb-launch", "tb-call"}


def _app(tb_ns):
    """Three producer/consumer pairs of 40 256-thread TBs, each producer
    followed by a synchronize; every TB lasts ``tb_ns``."""
    app = make_chain_app(
        num_pairs=3, tbs=40, block=256, with_sync=True, name="ties"
    )
    for call in app.trace.kernel_calls:
        call.tb_duration_fn = lambda tb: tb_ns
    return app


def _run(cell, journal=None):
    """``(plan, stats, gauges)`` of one cell."""
    config, name, journaled = CELLS[cell]
    if journaled and journal is None:
        journal = JournalRecorder()
    factory, window = MODELS[name]
    model = factory(config)
    app = _app(model.options().launch_overhead_ns)
    plan = BlockMaestroRuntime(config).plan(app, reorder=True, window=window)
    metrics = MetricsRegistry()
    if journal is None:
        stats = model.run(plan, metrics=metrics, engine="reference")
    else:
        stats = model.run(plan, metrics=metrics, journal=journal)
    gauges = metrics.snapshot()["gauges"]
    return plan, stats, {key: gauges[key] for key in GAUGES}


def _record(cell):
    _plan, stats, gauges = _run(cell)
    return dict(gauges, digest=runstats_digest(stats))


def _ties(cell):
    """The kinds of same-time event pairs a cell's run contains, read
    from its journal: TB finishes with each other, with a launch
    completing (``kernel_resident``) and with a non-kernel call
    completing."""
    journal = JournalRecorder()
    plan, _stats, _gauges = _run(cell, journal=journal)
    finishes = collections.Counter()
    others = collections.defaultdict(set)
    for event in journal.events:
        kind, t_ns = event["kind"], event["t_ns"]
        if kind == "tb_finish":
            finishes[t_ns] += 1
        elif kind == "kernel_resident":
            others["tb-launch"].add(t_ns)
        elif kind == "call_complete" and not isinstance(
            plan.order[event["position"]], KernelLaunchCall
        ):
            others["tb-call"].add(t_ns)
    found = {kind for kind, times in others.items() if times & set(finishes)}
    if any(count > 1 for count in finishes.values()):
        found.add("tb-tb")
    return found


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["records"]


def test_golden_covers_every_cell(golden):
    assert set(golden) == set(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_cell_contains_every_tie(cell):
    assert _ties(cell) == TIE_KINDS


@pytest.mark.parametrize("cell", CELLS)
def test_ties_match_golden(golden, cell):
    assert _record(cell) == golden[cell]


if __name__ == "__main__":
    records = {cell: _record(cell) for cell in CELLS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {
                "about": (
                    "per cell: the tests/digests.py digest of the complete "
                    "RunStats of a jitter-free run whose TBs last the "
                    "launch overhead, and the engine's event gauges; "
                    "tests/regression/test_event_ties.py lists the cells "
                    "and recomputes them."
                ),
                "records": records,
            },
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    print("{} cells -> {}".format(len(records), GOLDEN_PATH))
