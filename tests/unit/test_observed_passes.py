"""Observed passes simulate once: critpath and telemetry share a journal.

Every journal-carrying run executes on the scalar reference engine and
counts ``engine.tier.reference``, so the ambient counter is the number
of observed simulations a pipeline performed.
"""

from repro.experiments.common import ExperimentContext
from repro.obs import observed
from repro.obs.metrics import MetricsRegistry


def _reference_runs(metrics):
    return metrics.snapshot()["counters"].get("engine.tier.reference", 0)


def test_fig11_context_observes_each_cell_once():
    ctx = ExperimentContext()
    app = ctx.app("mvt")
    metrics = MetricsRegistry()
    with observed(metrics=metrics):
        attribution = ctx.critpath_attribution(app, "consumer3")
        summary = ctx.telemetry_summary(app, "consumer3")
        # memoized: asking again simulates nothing
        assert ctx.critpath_attribution(app, "consumer3") is attribution
        assert ctx.telemetry_summary(app, "consumer3") is summary
    assert _reference_runs(metrics) == 1
    assert sum(attribution.values()) > 0.99
    assert summary["busy_fraction"] > 0


def test_bench_cell_observes_once_for_both_sections():
    from repro.bench.runner import _run_cell

    metrics = MetricsRegistry()
    with observed(metrics=metrics):
        # the timed pass reports into its own registry; only the
        # untimed observed pass reaches the ambient one
        entry, _snapshot = _run_cell(
            ("mvt", "consumer3", 1, 0, False, 0, None, True, True)
        )
    assert _reference_runs(metrics) == 1
    assert "critpath" in entry and "telemetry" in entry


def test_fuzz_self_checks_reuse_the_oracle_journal():
    from repro.fuzz import check_case
    from repro.workloads.ptxgen import FuzzSpec

    metrics = MetricsRegistry()
    with observed(metrics=metrics):
        case = check_case(FuzzSpec.from_seed(0), modes=(), engines=())
    assert case["divergences"] == []
    # the journaled oracle run plus one bare run for the
    # observation-only contract; the self-checks simulate nothing
    assert _reference_runs(metrics) == 2
