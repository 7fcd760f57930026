"""Differential gate: the engine fast path must change nothing.

The :mod:`repro.models.fastengine` tier is a pure wall-clock
optimization over the scalar event-queue engine — by construction it
may not perturb a single simulated value.  For every registry workload
(small variants) and every roster model, each requested engine mode
must produce a byte-identical :meth:`RunStats.simulated_signature`
*and* identical ordered per-thread-block records against
``REPRO_ENGINE=reference``, with duration jitter on (the default) and
off; ``auto`` additionally has to pick the fast tier on the eligible
(workload, model) pairs.
"""

import json

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    STANDARD_MODELS,
    _make_model,
    _model_plan_params,
)
from repro.obs import PID_DEVICE, PID_HOST, PID_SM, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import trace_us
from repro.sim.config import GPUConfig
from repro.workloads import all_workloads, get_workload

from tests.digests import runstats_digest

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
ENGINE_TIERS = ("auto",)


def _run(app, model_name, engine, config=None, metrics=None):
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime(config) if config is not None \
        else BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=reorder, window=window)
    model = _make_model(model_name, runtime.config)
    return model.run(plan, metrics=metrics, engine=engine)


def _surface(stats):
    """Signature + full ordered TB lifecycle, as one comparable blob."""
    return (
        json.dumps(stats.simulated_signature(), sort_keys=True),
        tuple(
            (r.kernel_index, r.tb_id, r.ready_ns, r.start_ns,
             r.finish_ns, r.sm)
            for r in stats.tb_records
        ),
    )


@pytest.mark.parametrize("wname", [s.name for s in all_workloads()])
def test_every_tier_matches_reference(wname):
    """12 registry workloads x 7 roster models x 2 modes vs the oracle."""
    app = get_workload(wname).build_small()
    for model_name in MODEL_NAMES:
        oracle = _surface(_run(app, model_name, "reference"))
        for tier in ENGINE_TIERS:
            candidate = _surface(_run(app, model_name, tier))
            assert candidate == oracle, (wname, model_name, tier)


@pytest.mark.parametrize("wname", ["eng-chain", "eng-wide", "eng-fc"])
def test_engine_microbenches_match_reference(wname):
    app = get_workload(wname).build_small()
    for model_name in ("baseline", "consumer3"):
        oracle = _surface(_run(app, model_name, "reference"))
        for tier in ENGINE_TIERS:
            assert _surface(_run(app, model_name, tier)) == oracle, (
                wname, model_name, tier,
            )


def test_auto_uses_vectorized_tier_on_coarse_models():
    """A coarse model is device-serial, so auto takes the fast tier."""
    app = get_workload("eng-wide").build_small()
    metrics = MetricsRegistry()
    _run(app, "baseline", "auto", metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get("engine.tier.vectorized") == 1


@pytest.mark.parametrize(
    "wname",
    [s.name for s in all_workloads()] + ["eng-chain", "eng-wide", "eng-fc"],
)
def test_jitter_free_auto_matches_reference(wname):
    """Uniform durations (jitter off): every TB of a wave finishes at the
    same instant, so the slot sweep's ``(finish, seq)`` tie-break alone
    decides SM placement and dispatch order — and must match."""
    config = GPUConfig(duration_jitter=0.0)
    app = get_workload(wname).build_small()
    for model_name in ("baseline", "ideal", "prelaunch"):
        metrics = MetricsRegistry()
        fast = _run(app, model_name, "auto", config=config, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters.get("engine.tier.vectorized") == 1, model_name
        oracle = _run(app, model_name, "reference", config=config)
        assert _surface(fast) == _surface(oracle), model_name


def test_fine_grain_fc_chain_is_eligible():
    """consumer3 runs fast on a fully-connected chain — and matches."""
    app = get_workload("eng-fc").build_small()
    metrics = MetricsRegistry()
    fast = _run(app, "consumer3", "auto", metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get("engine.tier.vectorized") == 1
    oracle = _run(app, "consumer3", "reference")
    assert _surface(fast) == _surface(oracle)


def test_wireframe_capacity_model_declines_to_reference():
    """ready_capacity (Wireframe's pending-buffer cap) is event-level —
    the buffer refills within one timestamp, so occupancy is not simply
    ``min(width, capacity)``.  The certificate must decline (counted)
    and every tier must therefore equal the oracle exactly."""
    from repro.models import WireframeModel

    app = get_workload("eng-fc").build_small()
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=3)
    model = WireframeModel(runtime.config)
    oracle = _surface(model.run(plan, engine="reference"))
    for tier in ENGINE_TIERS:
        metrics = MetricsRegistry()
        stats = model.run(plan, metrics=metrics, engine=tier)
        assert _surface(stats) == oracle, tier
        counters = metrics.snapshot()["counters"]
        assert counters.get("engine.fallback.ready_capacity") == 1, tier
        assert counters.get("engine.tier.reference") == 1, tier


def test_env_variable_selects_tier(monkeypatch):
    """REPRO_ENGINE drives the dispatch seam when no argument is given."""
    app = get_workload("eng-wide").build_small()
    surfaces = {}
    for mode in ("reference", "auto"):
        monkeypatch.setenv("REPRO_ENGINE", mode)
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=False, window=1)
        model = _make_model("baseline", runtime.config)
        surfaces[mode] = _surface(model.run(plan, metrics=metrics))
        expected = (
            "engine.tier.reference" if mode == "reference"
            else "engine.tier.vectorized"
        )
        assert metrics.snapshot()["counters"].get(expected) == 1
    assert surfaces["auto"] == surfaces["reference"]


def _observed(app, model_name, engine):
    """One traced run (per-SM counters, a metrics registry) and one
    bare run of the same plan, whose RunStats must agree: returns the
    simulated-clock trace events, the ``device.*`` metrics, the
    counters and the traced run's RunStats."""
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=reorder, window=window)
    model = _make_model(model_name, runtime.config)
    tracer, metrics = Tracer(per_sm_counters=True), MetricsRegistry()
    traced = model.run(plan, tracer=tracer, metrics=metrics, engine=engine)
    bare = model.run(plan, engine=engine)
    assert runstats_digest(traced) == runstats_digest(bare), engine
    snapshot = metrics.snapshot()
    device = {
        name: value
        for kind in ("counters", "gauges")
        for name, value in snapshot[kind].items()
        if name.startswith("device.")
    }
    events = [
        e for e in tracer.events() if e["pid"] in (PID_HOST, PID_DEVICE, PID_SM)
    ]
    return events, device, snapshot["counters"], traced


def test_traced_device_serial_cell_renders_alike_on_both_tiers():
    """Both tiers only simulate; the trace and the device metrics are
    rendered from their records, so a traced device-serial cell writes
    the same simulated-clock events (counter tracks included) and the
    same ``device.*`` metrics on either tier."""
    app = get_workload("nw").build_small()
    events, device, counters, stats = _observed(app, "baseline", "auto")
    ref_events, ref_device, ref_counters, _ = _observed(
        app, "baseline", "reference"
    )
    assert counters.get("engine.tier.vectorized") == 1
    assert ref_counters.get("engine.tier.reference") == 1
    assert events == ref_events
    assert device == ref_device
    records = stats.tb_records
    times = set(records.start_ns) | set(records.finish_ns)
    running = [e for e in events if e["name"] == "running_tbs"]
    # one sample per distinct rendered start or finish time
    assert len(running) == len({trace_us(t / 1e3) for t in times})
    counters = [(e["name"], e["ts"]) for e in events if e["ph"] == "C"]
    assert len(counters) == len(set(counters))
    sms = {e["name"] for e in events if e["name"].startswith("running_tbs[sm=")}
    assert len(sms) == len(set(records.sm)) > 1
    assert device["device.tb_placements"] == len(records)
    assert 0 < device["device.peak_tb_concurrency"] <= len(records)
