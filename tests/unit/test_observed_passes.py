"""Observed passes simulate once: the fuzz self-checks reuse one journal.

Every journal-carrying run executes on the scalar reference engine and
counts ``engine.tier.reference``, so the ambient counter is the number
of observed simulations a pipeline performed.
"""

from repro.obs import observed
from repro.obs.metrics import MetricsRegistry


def _reference_runs(metrics):
    return metrics.snapshot()["counters"].get("engine.tier.reference", 0)


def test_fuzz_self_checks_reuse_the_oracle_journal():
    from repro.fuzz import check_case
    from repro.workloads.fuzzgen import FuzzSpec

    metrics = MetricsRegistry()
    with observed(metrics=metrics):
        case = check_case(FuzzSpec.from_seed(0), modes=(), engines=())
    assert case["divergences"] == []
    # the journaled oracle run plus one bare run for the
    # observation-only contract; the self-checks simulate nothing
    assert _reference_runs(metrics) == 2
