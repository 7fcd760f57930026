"""Observed passes simulate once: the fuzz self-checks reuse one journal.

Every journal-carrying run executes on the scalar reference engine, so
the number of reference-engine runs is the number of observed
simulations a pipeline performed.
"""

from repro.models.base import ExecutionEngine


def test_fuzz_self_checks_reuse_the_oracle_journal(monkeypatch):
    from repro.fuzz import check_case
    from repro.workloads.fuzzgen import FuzzSpec

    runs = []
    reference_run = ExecutionEngine.run

    def counted_run(self):
        runs.append(self)
        return reference_run(self)

    monkeypatch.setattr(ExecutionEngine, "run", counted_run)
    case = check_case(FuzzSpec.from_seed(0), modes=(), engines=())
    assert case["divergences"] == []
    # the journaled oracle run plus one bare run for the
    # observation-only contract; the self-checks simulate nothing
    assert len(runs) == 2
