"""The runtime's per-summary-pair graph memo must change nothing.

One :class:`BlockMaestroRuntime` plans each application under the four
distinct ``(reorder, window)`` configurations of the roster, the way an
:class:`ExperimentContext` does for a sweep.  Identical launches share
one summary object, so the plans share kernel-pair summary pairs, and
the runtime builds each distinct pair's encoded graph once.  Checked on
the 12 registry workloads (``build_small``) and on ``fuzz-0..49``:

* **graphs** — every pair's ``encoded`` equals a fresh
  ``encode_graph(build_graph_fast(...))`` built outside the memo;
* **simulation** — every roster model's simulated signature equals the
  one planned on a fresh runtime;
* **counters** — graphs are constructed once per distinct summary pair,
  and ``sum(analysis.fastpath.*) + plan.graph_cache_hits ==
  plan.graphs_built``;
* **overrides** — a ``dependency_override`` is called once per plan and
  never served from, or stored in, the memo.
"""

import json

import pytest

from repro.analysis.fastpath import build_graph_fast
from repro.core.dependency_graph import BipartiteGraph
from repro.core.encoding import encode_graph
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import STANDARD_MODELS, _make_model
from repro.obs import MetricsRegistry
from repro.workloads import all_workloads, get_workload

from tests.conftest import make_chain_app

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
    """Pair graphs the fast-path tiers built."""
    return sum(
        counters.get("analysis.fastpath." + tier, 0)
        for tier in ("closed_form", "vectorized", "reference")
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


def test_memo_serves_repeated_pairs():
    """The sweep's point: later plans of an app reuse earlier graphs."""
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(metrics=metrics)
    plans = _plan_all(runtime, get_workload("gaussian").build_small())
    counters = metrics.snapshot()["counters"]
    per_plan = counters["plan.graphs_built"] / len(plans)
    assert counters["plan.graph_cache_hits"] >= 3 * per_plan
    first, *rest = plans.values()
    for plan in rest:
        for a, b in zip(first.kernels, plan.kernels):
            assert b.encoded is a.encoded


def test_dependency_override_is_called_once_per_plan():
    app = make_chain_app(num_pairs=3)
    launches = app.trace.kernel_calls
    calls = []

    def override(parent, child):
        calls.append((parent, child))
        return BipartiteGraph.independent(parent.num_tbs, child.num_tbs)

    # cons1 and cons2 are identical launches after identical producers,
    # so both pairs share one summary pair; only cons1 is overridden
    launches[3].dependency_override = override
    metrics = MetricsRegistry()
    runtime = BlockMaestroRuntime(metrics=metrics)
    plans = _plan_all(runtime, app)
    assert len(calls) == len(plans)

    for plan in plans.values():
        cons1, cons2 = plan.kernels[3], plan.kernels[5]
        assert cons1.summary is cons2.summary
        assert plan.kernels[2].summary is plan.kernels[4].summary
        assert cons1.encoded.original.num_edges == 0
        assert cons2.encoded.original.num_edges > 0

    counters = metrics.snapshot()["counters"]
    hits = counters.get("plan.graph_cache_hits", 0)
    # overridden pairs are neither built by a tier nor served by the memo
    assert _constructed(counters) + hits + len(calls) == counters[
        "plan.graphs_built"
    ]
