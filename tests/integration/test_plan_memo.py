"""The runtime's plan and pair-graph memos must change nothing.

One :class:`BlockMaestroRuntime` plans each application under the four
distinct ``(reorder, window)`` configurations of the roster, the way an
:class:`ExperimentContext` does for a sweep.  The first window of each
reorder flag is planned in full and the others copy it, deciding only
the grandparent barriers.  Identical launches share one summary object,
so the plans share kernel-pair summary pairs, and the runtime builds
each distinct pair's encoded graph once.  Checked on the 12 registry
workloads (``build_small``) and on ``fuzz-0..49``:

* **graphs** — every pair's ``encoded`` equals a fresh
  ``encode_graph(build_graph_fast(...))`` built outside the memo;
* **plans** — every plan, requested in ascending or descending window
  order, equals the one a fresh runtime builds for its configuration;
* **simulation** — every roster model's simulated signature equals the
  one planned on a fresh runtime;
* **counters** — graphs are constructed once per distinct summary pair,
  and ``sum(analysis.fastpath.*) + plan.graph_cache_hits ==
  plan.graphs_built``.
"""

import json

import pytest

from repro.analysis.fastpath import build_graph_fast
from repro.core.encoding import encode_graph
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import STANDARD_MODELS, _make_model
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import all_workloads, get_workload

#: the four distinct (reorder, window) plans of the roster
CONFIGS = sorted({(reorder, window) for _, reorder, window in STANDARD_MODELS})
APPS = [spec.name for spec in all_workloads()] + [
    "fuzz-{}".format(seed) for seed in range(50)
]


def _plan_all(runtime, app):
    return {
        config: runtime.plan(app, reorder=config[0], window=config[1])
        for config in CONFIGS
    }


def _pairs(plan):
    for kp in plan.kernels:
        if kp.chain_prev is not None:
            yield plan.kernels[kp.chain_prev], kp


def _constructed(counters):
    """Pair graphs the fast path built."""
    return sum(
        counters.get("analysis.fastpath." + tier, 0)
        for tier in ("closed_form", "reference")
    )


def _fields(encoded):
    return (
        encoded.original,
        encoded.effective,
        encoded.original_pattern,
        encoded.pattern,
        encoded.encoded_bytes,
        encoded.plain_bytes,
        encoded.collapsed,
    )


def _signature(model, plan, gpu_config):
    stats = _make_model(model, gpu_config).run(plan)
    return json.dumps(stats.simulated_signature(), sort_keys=True)


@pytest.mark.parametrize("name", APPS)
def test_shared_graphs_match_fresh_builds(name):
    app = get_workload(name).build_small()
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(metrics=metrics)
    plans = _plan_all(runtime, app)

    distinct = set()
    for plan in plans.values():
        for parent, child in _pairs(plan):
            distinct.add((id(parent.summary), id(child.summary)))
            graph, _ = build_graph_fast(
                parent.summary,
                child.summary,
                hazards=runtime.hazards,
                mode=runtime.fastpath,
            )
            fresh = encode_graph(
                graph, degree_threshold=runtime.hardware_config.degree_threshold
            )
            assert _fields(child.encoded) == _fields(fresh), (name, child.name)

    counters = metrics.snapshot()["counters"]
    built = _constructed(counters)
    hits = counters.get("plan.graph_cache_hits", 0)
    assert built == len(distinct)
    assert built + hits == counters.get("plan.graphs_built", 0)

    for model, reorder, window in STANDARD_MODELS:
        fresh_plan = BlockMaestroRuntime(metrics=MetricsRegistry()).plan(
            app, reorder=reorder, window=window
        )
        assert _signature(
            model, plans[reorder, window], runtime.config
        ) == _signature(model, fresh_plan, runtime.config), (name, model)


def _kernel_fields(kp):
    return (
        kp.kernel_index,
        kp.order_position,
        id(kp.call),
        kp.stream,
        kp.chain_prev,
        kp.chain_next,
        kp.chain_grandparent,
        kp.encoded and _fields(kp.encoded),
        kp.traffic,
        kp.grandparent_barrier,
        kp.cross_stream_deps,
        kp.tb_durations_ns(),
        kp.kernel_memory_requests,
    )


def _assert_same_plan(plan, fresh):
    assert plan.deps == fresh.deps
    assert plan.kernel_at_position == fresh.kernel_at_position
    assert (plan.graph_plain_bytes, plan.graph_encoded_bytes) == (
        fresh.graph_plain_bytes,
        fresh.graph_encoded_bytes,
    )
    assert len(plan.order) == len(fresh.order)
    assert all(a is b for a, b in zip(plan.order, fresh.order))
    assert plan.reordered == fresh.reordered
    assert len(plan.kernels) == len(fresh.kernels)
    for kp, fresh_kp in zip(plan.kernels, fresh.kernels):
        assert _kernel_fields(kp) == _kernel_fields(fresh_kp), kp.name


@pytest.mark.parametrize("name", APPS)
def test_window_variants_match_fresh_plans(name):
    app = get_workload(name).build_small()
    config = BlockMaestroRuntime().config
    fresh = {
        (reorder, window): BlockMaestroRuntime().plan(
            app, reorder=reorder, window=window
        )
        for reorder, window in CONFIGS
    }
    expected = {
        model: _signature(model, fresh[reorder, window], config)
        for model, reorder, window in STANDARD_MODELS
    }
    for configs in (CONFIGS, CONFIGS[::-1]):
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime(metrics=metrics)
        plans = {
            (reorder, window): runtime.plan(app, reorder=reorder, window=window)
            for reorder, window in configs
        }
        for key, plan in plans.items():
            _assert_same_plan(plan, fresh[key])
            assert runtime.plan(app, *key) is plan
        # one reordered plan is built in full; the other two windows copy it
        assert metrics.snapshot()["counters"]["plan.window_variants"] == 2
        for model, reorder, window in STANDARD_MODELS:
            assert _signature(model, plans[reorder, window], config) == (
                expected[model]
            ), (name, model, configs[0])


def test_variants_share_no_plan():
    """A variant keeps the summary and pair-graph memos, not the plans."""
    app = get_workload("gaussian").build_small()
    runtime = BlockMaestroRuntime()
    plans = _plan_all(runtime, app)
    variant = runtime.variant()
    for (reorder, window), plan in plans.items():
        other = variant.plan(app, reorder=reorder, window=window)
        assert other is not plan
        assert runtime.plan(app, reorder=reorder, window=window) is plan
        for a, b in zip(plan.kernels, other.kernels):
            assert a is not b
            assert a.summary is b.summary
            assert a.encoded is b.encoded


def test_window_variant_is_one_span():
    """A copied plan is traced as one ``plan:<app>`` span, and a repeated
    request as nothing."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics)
    app = get_workload("fft").build_small()
    runtime.plan(app, reorder=True, window=2)
    before = len(tracer.events())
    runtime.plan(app, reorder=True, window=3)
    runtime.plan(app, reorder=True, window=3)
    events = [(e["ph"], e["name"], e["args"]) for e in tracer.events()[before:]]
    assert events == [
        ("X", "plan:fft", {"application": "fft", "reorder": True, "window": 3})
    ]
    assert metrics.snapshot()["counters"]["plan.window_variants"] == 1


def test_memo_serves_repeated_pairs():
    """The sweep's point: later plans of an app reuse earlier graphs, and
    the later windows of a reorder flag copy its first plan."""
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(metrics=metrics)
    plans = _plan_all(runtime, get_workload("gaussian").build_small())
    counters = metrics.snapshot()["counters"]
    distinct = {
        (id(parent.summary), id(child.summary))
        for parent, child in _pairs(plans[False, 1])
    }
    # (False, 1) builds every distinct pair, (True, 2) finds them all in
    # the memo, and windows 3 and 4 copy (True, 2)
    assert _constructed(counters) == len(distinct)
    assert counters["plan.graph_cache_hits"] == len(list(_pairs(plans[True, 2])))
    assert counters["plan.window_variants"] == 2
    first, *rest = plans.values()
    for plan in rest:
        for a, b in zip(first.kernels, plan.kernels):
            assert b.encoded is a.encoded

