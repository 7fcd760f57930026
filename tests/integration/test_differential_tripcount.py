"""Differential gate: closed-form loop trip counts equal concrete simulation.

Planning runs the launch-time analyzer on every kernel launch.  Under
:func:`oracle_checked`, every corner the closed-form tier answers is
solved again by the concrete simulator (``_Interpreter._simulate_loop``,
the path the analyzer takes for loops it declines), and the two answers
must agree.  Checked here on the 12 registry workloads (``build_small``)
and on the fuzz corpus ``fuzz-0..49``.  Every registry loop is
canonical, so planning the registry leaves
``analysis.tripcount.simulated`` at 0.

CI runs :func:`plan_checked` on the full-size registry and on
``fuzz-0..199`` as well.
"""

from contextlib import contextmanager
from functools import partial

from repro.analysis import analyzer
from repro.core.runtime import BlockMaestroRuntime
from repro.obs import MetricsRegistry
from repro.workloads import all_workloads, get_workload


class OracleCheck:
    """Closed-form corners checked so far, and the ones that disagreed."""

    def __init__(self):
        self.corners = 0
        self.mismatches = []


@contextmanager
def oracle_checked():
    """Check each closed-form corner against the simulator while active."""
    check = OracleCheck()
    trip_count = analyzer._Interpreter._trip_count
    trips = analyzer._CountedLoop.trips
    simulate = {}

    def checked_trip_count(interp, loop, state0):
        simulate["corner"] = partial(interp._simulate_loop, loop, state0)
        return trip_count(interp, loop, state0)

    def checked_trips(counted, launch, state0, binding):
        answer = trips(counted, launch, state0, binding)
        expected = simulate["corner"](binding)
        check.corners += 1
        if answer != expected:
            check.mismatches.append((launch, binding, answer, expected))
        return answer

    analyzer._Interpreter._trip_count = checked_trip_count
    analyzer._CountedLoop.trips = checked_trips
    try:
        yield check
    finally:
        analyzer._Interpreter._trip_count = trip_count
        analyzer._CountedLoop.trips = trips


def plan_checked(apps):
    """Plan each app on a fresh runtime, every closed-form corner checked.

    Returns the runtime counters and the :class:`OracleCheck`.
    """
    metrics = MetricsRegistry()
    with oracle_checked() as check:
        for app in apps:
            BlockMaestroRuntime(metrics=metrics).plan(app)
    return metrics.snapshot()["counters"], check


def test_registry_trip_counts_match_simulator():
    counters, check = plan_checked(spec.build_small() for spec in all_workloads())
    assert check.mismatches == []
    assert check.corners > 0
    assert counters["analysis.tripcount.closed_form"] > 0
    assert counters.get("analysis.tripcount.simulated", 0) == 0


def test_fuzz_trip_counts_match_simulator():
    counters, check = plan_checked(
        get_workload("fuzz-{}".format(seed)).build() for seed in range(50)
    )
    assert check.mismatches == []
    assert check.corners > 0
    assert counters["analysis.tripcount.closed_form"] > 0


def test_checker_catches_a_wrong_answer(monkeypatch):
    """The gate itself: a closed form that is off by one must show up."""
    trips = analyzer._CountedLoop.trips

    def off_by_one(counted, launch, state0, binding):
        answer = trips(counted, launch, state0, binding)
        return None if answer is None else answer + 1

    monkeypatch.setattr(analyzer._CountedLoop, "trips", off_by_one)
    _, check = plan_checked([get_workload("mvt").build_small()])
    assert check.corners > 0
    assert len(check.mismatches) == check.corners
