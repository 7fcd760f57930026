"""Differential harness: parallel and cached runs must change nothing.

The executor and the persistent analysis cache are pure wall-clock
optimizations — by construction they may not perturb a single simulated
number.  This suite is the gate: the full registry workload × model
matrix is executed

* serially with no cache (the reference),
* on 4 worker processes with a *cold* cache directory, and
* serially again with the now-*warm* cache,

and every :meth:`RunStats.simulated_signature` must match the reference
bit for bit.  Each cell attaches the cache the way ``repro serve
--cache`` does, through the runtime of a fresh
:class:`~repro.experiments.common.ExperimentContext`.  A second check
does the same for experiment JSON artifacts (serial vs ``--jobs 2``),
byte-comparing everything except the wall-clock ``elapsed_s`` field.
"""

import json
from collections import Counter

import pytest

from repro.analysis.cache import AnalysisCache
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments import runner as experiments_runner
from repro.experiments.common import ExperimentContext
from repro.obs import MetricsRegistry
from repro.parallel import SuiteExecutor
from repro.workloads import all_workloads

#: baseline + prelaunch + the headline config
MODELS = ("baseline", "prelaunch", "consumer3")

#: experiments in the artifact check (a fast, representative subset:
#: analysis-heavy, storage-heavy, and the pattern census)
EXPERIMENT_NAMES = ("tab1", "tab3", "census")


def _simulate_cell(cell):
    """One (workload, model) cell on a fresh context, as a pool task.

    Returns the run's simulated signature and the ``cache.*`` counters
    this cell's planning moved.
    """
    wname, model, cache_dir = cell
    cache = None
    if cache_dir is not None:
        cache = AnalysisCache(cache_dir, metrics=MetricsRegistry())
    ctx = ExperimentContext(runtime=BlockMaestroRuntime(cache=cache))
    stats = ctx.run_model(ctx.app(wname), model)
    return stats.simulated_signature(), cache.counters() if cache else {}


def _run_matrix(jobs, cache_dir):
    """``({(workload, model): signature}, summed cache counters)``."""
    cells = [
        (spec.name, model, cache_dir)
        for spec in all_workloads()
        for model in MODELS
    ]
    results = SuiteExecutor(jobs=jobs).map(_simulate_cell, cells)
    counters = Counter()
    for _signature, cell_counters in results:
        counters.update(cell_counters)
    signatures = {
        (wname, model): signature
        for (wname, model, _dir), (signature, _counters)
        in zip(cells, results)
    }
    return signatures, counters


@pytest.fixture(scope="module")
def reference():
    signatures, _counters = _run_matrix(jobs=1, cache_dir=None)
    return signatures


class TestFullMatrixDifferential:
    def test_reference_covers_the_whole_registry(self, reference):
        workloads = {spec.name for spec in all_workloads()}
        assert {w for w, _m in reference} == workloads
        assert {m for _w, m in reference} == set(MODELS)

    def test_jobs4_cold_cache_then_warm_cache_identical(
        self, reference, tmp_path_factory
    ):
        cache_dir = str(tmp_path_factory.mktemp("analysis-cache"))

        parallel_cold, cold_counters = _run_matrix(jobs=4, cache_dir=cache_dir)
        assert parallel_cold == reference
        assert cold_counters["cache.summary.misses"] > 0

        serial_warm, warm_counters = _run_matrix(jobs=1, cache_dir=cache_dir)
        assert serial_warm == reference

        # the warm run really did come from the cache, and no entry the
        # cold run wrote was unreadable
        assert warm_counters["cache.summary.hits"] > 0
        assert not warm_counters["cache.summary.misses"]
        assert not warm_counters["cache.invalidations"]


class TestExperimentArtifactDifferential:
    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        import io

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        experiments_runner.run_all(
            list(EXPERIMENT_NAMES), stream=io.StringIO(), out_dir=str(serial_dir)
        )
        experiments_runner.run_all(
            list(EXPERIMENT_NAMES),
            stream=io.StringIO(),
            out_dir=str(parallel_dir),
            jobs=2,
        )
        for name in EXPERIMENT_NAMES:
            with open(serial_dir / "{}.json".format(name)) as handle:
                expected = json.load(handle)
            with open(parallel_dir / "{}.json".format(name)) as handle:
                actual = json.load(handle)
            # elapsed_s is wall clock; everything else must match exactly
            expected.pop("elapsed_s")
            actual.pop("elapsed_s")
            assert json.dumps(actual, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), name
