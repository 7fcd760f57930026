"""Differential harness: the graph fast path must change nothing.

The :mod:`repro.analysis.fastpath` closed form is a pure wall-clock
optimization over the scalar reference builder — by construction it
may not perturb a single edge.  Two gates:

* **graph identity** — for every registry workload (small variants) and
  every hazard set, the graph each mode produces for every consecutive
  kernel pair must be ``==`` the reference builder's, and on the
  registry every pair graph comes from the closed form;
* **signature identity** — a full simulation pass under ``auto`` must
  produce byte-identical :meth:`RunStats.simulated_signature` output to
  one under ``REPRO_FASTPATH=off``.

:func:`closed_form_census` runs the graph-identity check on any apps; CI
runs it on the full-size registry and ``fuzz-0..199``.
"""

import json

import pytest

from repro.analysis.fastpath import build_graph_fast
from repro.core.dependency_graph import build_bipartite_graph
from repro.core.runtime import BlockMaestroRuntime
from repro.obs.metrics import MetricsRegistry
from repro.workloads import all_workloads, get_workload

HAZARD_SETS = (("raw",), ("raw", "waw"), ("raw", "war", "waw"))


def _kernel_pairs(app, hazards):
    """Distinct consecutive same-stream kernel summary pairs of ``app``."""
    runtime = BlockMaestroRuntime(hazards=hazards)
    plan = runtime.plan(app)
    pairs = {}
    for kernel in plan.kernels:
        if kernel.chain_prev is None:
            continue
        parent = plan.kernels[kernel.chain_prev].summary
        pairs[id(parent), id(kernel.summary)] = (parent, kernel.summary)
    return list(pairs.values())


def closed_form_census(apps):
    """The closed form against the scalar builder on every distinct pair
    of ``apps`` under every hazard set.

    Returns ``(pairs, mismatches, declines)``: the pairs checked, the
    ``(app, hazards, parent, child)`` of each graph that differs, and
    how many pairs of two analyzed summaries left the closed form.
    """
    checked, mismatches, declines = 0, [], 0
    for app in apps:
        for hazards in HAZARD_SETS:
            for parent, child in _kernel_pairs(app, hazards):
                graph, tier = build_graph_fast(parent, child, hazards=hazards)
                checked += 1
                if tier != "closed_form" and not (
                    parent.fallback or child.fallback
                ):
                    declines += 1
                if graph != build_bipartite_graph(parent, child, hazards):
                    mismatches.append((
                        app.name, hazards, parent.kernel_name,
                        child.kernel_name,
                    ))
    return checked, mismatches, declines


@pytest.mark.parametrize("hazards", HAZARD_SETS, ids=["-".join(h) for h in HAZARD_SETS])
@pytest.mark.parametrize("wname", [s.name for s in all_workloads()])
def test_every_tier_matches_reference(wname, hazards):
    app = get_workload(wname).build_small()
    for parent, child in _kernel_pairs(app, hazards):
        oracle = build_bipartite_graph(parent, child, hazards)
        for mode in ("auto", "reference"):
            graph, tier = build_graph_fast(
                parent, child, hazards=hazards, mode=mode
            )
            assert graph == oracle, (wname, hazards, mode, tier)


@pytest.mark.parametrize("wname", ["fft", "gaussian", "lud", "nw"])
def test_simulated_signature_identical_across_modes(wname, monkeypatch):
    """End to end: fastpath on vs off, signatures byte-identical."""
    from repro.experiments.common import _make_model

    spec = get_workload(wname)
    signatures = {}
    for mode in ("auto", "off"):
        monkeypatch.setenv("REPRO_FASTPATH", mode)
        app = spec.build_small()
        runtime = BlockMaestroRuntime(metrics=MetricsRegistry())
        plan = runtime.plan(app)
        model = _make_model("consumer3", runtime.config)
        stats = model.run(plan)
        signatures[mode] = json.dumps(
            stats.simulated_signature(), sort_keys=True
        )
    assert signatures["auto"] == signatures["off"]


def test_auto_mode_uses_fast_tiers_on_registry():
    """The counters must show the closed form serving every pair graph."""
    fast_totals = {"closed_form": 0, "reference": 0}
    for spec in all_workloads():
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime(metrics=metrics, fastpath="auto")
        runtime.plan(spec.build_small())
        for name, value in metrics.snapshot()["counters"].items():
            prefix = "analysis.fastpath."
            if name.startswith(prefix):
                fast_totals[name[len(prefix):]] += int(value)
    assert fast_totals["closed_form"] > 0
    assert fast_totals["reference"] == 0


def test_closed_form_census_on_small_fuzz_apps():
    apps = (get_workload("fuzz-{}".format(seed)).build_small()
            for seed in range(20))
    pairs, mismatches, declines = closed_form_census(apps)
    assert pairs > 0
    assert mismatches == []
    assert declines == 0
