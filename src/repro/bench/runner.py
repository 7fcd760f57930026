"""Benchmark suite runner: wall-clock percentiles + simulated metrics.

For every (workload, model) pair the runner does ``warmup`` throwaway
passes and then ``repeats`` measured passes.  Each pass is *cold*: the
workload is rebuilt from PTX, re-planned, and re-simulated under a
fresh :class:`~repro.obs.Tracer` / :class:`~repro.obs.MetricsRegistry`,
so the wall numbers cover the whole pipeline, attributed to the four
phases the PR 1 tracer spans already delimit:

* ``parse``    — ``workload.build:*`` (PTX parse + trace construction)
* ``analyze``  — ``plan.validate`` / ``plan.reorder`` / ``plan.true-deps``
  / ``plan.analyze`` / ``plan.cross-stream``
* ``encode``   — ``plan.graphs`` (graph build + pattern encoding)
* ``simulate`` — ``model:*`` (the discrete-event engine)

Wall clock is noisy, so it is summarized as p50/p95/max/mean over the
repeats.  Simulated results are deterministic, so they are recorded
once — and the runner *asserts* every repeat produced the same
makespan, catching nondeterminism at the source.  ``baseline`` (the
paper's serialized ``standard`` launch model) is always run so every
model entry carries ``speedup_vs_baseline``.

``profile=True`` additionally runs one pass per pair under
:mod:`cProfile` and embeds the top-k cumulative-time hotspots.

``jobs > 1`` fans the independent (workload, model) cells out over a
:class:`~repro.parallel.SuiteExecutor` process pool; results merge back
in suite order, so simulated metrics are identical to a serial run.
``cache_dir`` enables the persistent
:class:`~repro.analysis.cache.AnalysisCache`, whose hit/miss counters
are folded into the report's ``cache`` section
(see ``docs/parallelism.md``).

Graph-construction tier counters (``analysis.fastpath.*`` — how many
kernel-pair graphs each of the closed-form / vectorized / reference
builders constructed; a pair the runtime serves from its in-memory
graph memo counts as ``plan.graph_cache_hits`` instead, see
``docs/analysis.md``) are folded into the report's ``fastpath`` section
whenever any fired, alongside the effective ``REPRO_FASTPATH`` mode.

Simulation-engine tier counters (``engine.tier.*`` / ``engine.fallback.*``
— which fast-engine tier served each model run and why the rest fell
back to the scalar oracle, see ``docs/engine.md``) are folded into the
report's ``engine`` section the same way, alongside the effective
``REPRO_ENGINE`` mode.
"""

import cProfile
import os
import pstats
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.fastpath import resolve_fastpath_mode
from repro.bench import schema
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    STANDARD_MODELS,
    _make_model,
    _model_plan_params,
    canonical_model_name,
)
from repro.models.fastengine import resolve_engine_mode
from repro.obs import MetricsRegistry, Tracer
from repro.obs.log import Heartbeat, get_logger
from repro.obs.metrics import percentile
from repro.obs.report import dump_json
from repro.parallel import SuiteExecutor
from repro.workloads import all_workloads, get_workload, matching_workloads

#: the quick suite: the three fastest Table II workloads — used by CI
QUICK_WORKLOADS = ("mvt", "bicg", "path")

#: default model roster for a bench run: baseline + the headline config
DEFAULT_MODELS = ("baseline", "prelaunch", "consumer3")

QUICK_MODELS = ("baseline", "consumer3")

ROSTER = tuple(m[0] for m in STANDARD_MODELS)


@dataclass
class BenchConfig:
    """Everything that shapes one bench run (recorded in the report)."""

    workloads: Tuple[str, ...] = ()
    models: Tuple[str, ...] = DEFAULT_MODELS
    repeats: int = 3
    warmup: int = 1
    quick: bool = False
    profile: bool = False
    profile_top: int = 15
    filter: Optional[Tuple[str, ...]] = None
    #: worker processes for independent (workload, model) cells; 1 = serial
    jobs: int = 1
    #: persistent AnalysisCache directory (None = caching disabled)
    cache_dir: Optional[str] = None
    #: embed a per-model critical-path attribution section (one extra
    #: journaled pass per cell; see docs/observability.md)
    critpath: bool = False
    #: embed a per-model telemetry summary section (occupancy, overlap,
    #: idle bubbles; derived from the same journaled pass)
    telemetry: bool = False

    def as_dict(self):
        return {
            "workloads": list(self.workloads),
            "models": list(self.models),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "quick": self.quick,
            "profile": self.profile,
            "filter": list(self.filter) if self.filter else None,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "critpath": self.critpath,
            "telemetry": self.telemetry,
        }


def resolve_config(
    quick=False,
    models=None,
    filter_globs=None,
    repeats=None,
    warmup=None,
    profile=False,
    profile_top=15,
    jobs=1,
    cache_dir=None,
    critpath=False,
    telemetry=False,
    fuzz=None,
    fuzz_seed=0,
):
    """Fold CLI-ish arguments into a concrete :class:`BenchConfig`.

    Precedence: explicit flags beat ``--quick`` presets beat defaults.
    ``models`` may include ``"all"`` for the full roster and aliases
    (``blockmaestro``); names are canonicalized and validated here so
    unknown ones fail before any work is done.  ``fuzz=N`` appends N
    seeded generator applications (``fuzz-<seed>``..``fuzz-<seed+N-1>``,
    see :mod:`repro.fuzz`) as extra load-generator workloads; with
    ``--filter`` they are the only way such hidden names enter a run.
    """
    if filter_globs:
        specs = matching_workloads(filter_globs)
        workloads = tuple(spec.name for spec in specs)
    elif quick:
        workloads = QUICK_WORKLOADS
    else:
        workloads = tuple(spec.name for spec in all_workloads())
    if fuzz:
        first = int(fuzz_seed or 0)
        workloads = workloads + tuple(
            "fuzz-{}".format(first + i) for i in range(int(fuzz))
        )
    if models:
        expanded = []
        for name in models:
            if name == "all":
                expanded.extend(ROSTER)
            else:
                expanded.append(canonical_model_name(name))
        # validate + dedupe, preserving order
        seen = []
        for name in expanded:
            _model_plan_params(name)  # raises UnknownModelError
            if name not in seen:
                seen.append(name)
        model_names = tuple(seen)
    else:
        model_names = QUICK_MODELS if quick else DEFAULT_MODELS
    # baseline is the speedup reference: always present, always first
    model_names = ("baseline",) + tuple(
        name for name in model_names if name != "baseline"
    )
    return BenchConfig(
        workloads=workloads,
        models=model_names,
        repeats=repeats if repeats is not None else (2 if quick else 3),
        warmup=warmup if warmup is not None else 1,
        quick=quick,
        profile=profile,
        profile_top=profile_top,
        filter=tuple(filter_globs) if filter_globs else None,
        jobs=max(1, int(jobs)),
        cache_dir=cache_dir,
        critpath=critpath,
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# one measured pass
# ----------------------------------------------------------------------
def _phase_of(span_name):
    """Map a PR 1 tracer span name to a bench phase (or ``None``)."""
    if span_name.startswith("workload.build"):
        return "parse"
    if span_name == "plan.graphs":
        return "encode"
    if span_name.startswith("plan."):
        return "analyze"
    if span_name.startswith("model:"):
        return "simulate"
    return None  # plan:<app> outer span would double-count its children


def _run_once(spec, model_name, cache=None):
    """One cold build+plan+simulate pass under full observation.

    Returns ``(stats, phases_s, total_s, metrics)``.  ``cache`` (an
    :class:`~repro.analysis.cache.AnalysisCache` or ``None``) memoizes
    the launch-time analysis across passes and processes; its hit/miss
    counters land in the returned registry.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    if cache is not None:
        cache.metrics = metrics  # count this pass's traffic separately
    start = time.perf_counter()
    with tracer.span("workload.build:{}".format(spec.name), cat="ptx"):
        app = spec.build()
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics, cache=cache)
    plan = runtime.plan(app, reorder=reorder, window=window)
    model = _make_model(model_name, runtime.config)
    stats = model.run(plan, tracer=tracer, metrics=metrics)
    total_s = time.perf_counter() - start
    phases = {key: 0.0 for key in schema.PHASE_KEYS}
    for name, total_us, _count in tracer.wall_phase_totals():
        phase = _phase_of(name)
        if phase is not None:
            phases[phase] += total_us / 1e6
    return stats, phases, total_s, metrics


def _observed_sections(spec, model_name, critpath, telemetry, cache=None):
    """One journaled pass -> the per-model ``critpath``/``telemetry``
    bench sections.

    Deliberately a separate (untimed) pass so observation never
    contaminates the wall-clock samples; the simulation is
    deterministic, so the sections describe the measured repeats.
    """
    from repro.obs.journal import record_run

    journal, stats = record_run(spec.name, model_name, cache=cache)
    sections = {}
    if critpath:
        from repro.obs.critpath import build_report

        report = build_report(stats, journal)
        sections["critpath"] = {
            "attribution_ns": report["attribution_ns"],
            "attribution_fraction": report["attribution_fraction"],
            "num_segments": report["critical_path"]["num_segments"],
        }
    if telemetry:
        from repro.obs.telemetry import bench_summary, build_report

        sections["telemetry"] = bench_summary(build_report(stats, journal))
    return sections


def _percentile_block(samples):
    values = sorted(samples)
    return {
        "repeats": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "max": values[-1],
    }


def _profile_pass(spec, model_name, top, cache=None):
    """One extra pass under cProfile; returns the top-k hotspot rows."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run_once(spec, model_name, cache=cache)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        if filename.startswith("<") and func.startswith("<"):
            continue  # profiler bookkeeping / builtins noise
        rows.append(
            {
                "func": "{}:{}({})".format(os.path.basename(filename), lineno, func),
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["func"]))
    return rows[:top]


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _run_cell(cell):
    """One (workload, model) suite cell: warmup + measured repeats.

    This is the :class:`~repro.parallel.SuiteExecutor` task body — it
    must stay a module-level function of one picklable argument, and it
    must be self-contained (the workload is rebuilt from its registry
    name inside the worker).  ``speedup_vs_baseline`` is *not* computed
    here: it couples a cell to its workload's baseline cell, so the
    merge step fills it in from the ordered results.

    Returns ``(entry, metrics_snapshot)``.
    """
    (wname, mname, repeats, warmup, profile, profile_top, cache_dir,
     critpath, telemetry) = cell
    spec = get_workload(wname)
    cache = AnalysisCache(cache_dir) if cache_dir else None
    cell_metrics = MetricsRegistry()
    for _ in range(warmup):
        _, _, _, warm_metrics = _run_once(spec, mname, cache=cache)
        # warmup passes don't contribute wall samples, but their cache
        # traffic is real — without this a cold run looks all-hits
        # because only the (now warm) measured passes would be counted
        cell_metrics.merge(warm_metrics.snapshot())
    totals, phase_samples = [], {key: [] for key in schema.PHASE_KEYS}
    stats = metrics = None
    makespans = set()
    for _ in range(repeats):
        stats, phases, total_s, metrics = _run_once(spec, mname, cache=cache)
        totals.append(total_s)
        for key, value in phases.items():
            phase_samples[key].append(value)
        makespans.add(stats.makespan_ns)
        cell_metrics.merge(metrics.snapshot())
    if len(makespans) != 1:
        raise AssertionError(
            "nondeterministic simulation: {} x {} produced makespans "
            "{}".format(spec.name, mname, sorted(makespans))
        )
    simulated = stats.simulated_signature()
    # DLB/PCB occupancy + traffic counters from the hardware model
    # (from the last repeat: the simulation is deterministic, so every
    # repeat produced identical hw.* values)
    for name, value in metrics.snapshot()["counters"].items():
        if name.startswith("hw."):
            simulated[name] = value
    entry = {
        "wall": {
            "total_s": _percentile_block(totals),
            "phases": {
                key: _percentile_block(samples)
                for key, samples in phase_samples.items()
            },
        },
        "simulated": simulated,
    }
    if profile:
        entry["profile"] = _profile_pass(spec, mname, profile_top, cache=cache)
    if critpath or telemetry:
        entry.update(_observed_sections(
            spec, mname, critpath, telemetry, cache=cache
        ))
    return entry, cell_metrics.snapshot()


def run_suite(config, log=None, executor=None, status_file=None):
    """Execute the configured suite; returns the report payload dict.

    Cells — independent (workload, model) pairs — are dispatched through
    a :class:`~repro.parallel.SuiteExecutor` (``config.jobs`` workers)
    and merged back in deterministic suite order, so a ``--jobs 4``
    report carries exactly the simulated signatures of a serial run.
    Host and git metadata are captured once per report, up front.

    Progress goes through the ``bench`` logger (``REPRO_LOG`` /
    ``--log-json``) and a :class:`~repro.obs.log.Heartbeat` that ticks
    once per finished cell: a live line on a TTY, plus an atomically
    rewritten JSON status file when ``status_file`` (or
    ``REPRO_STATUS_FILE``) names one.
    """
    log = log if log is not None else get_logger("bench").info
    # hoisted: one capture per report, not per cell/repeat — git metadata
    # alone is three subprocess invocations
    host_meta = schema.host_metadata()
    git_meta = schema.git_metadata()
    cells = [
        (wname, mname, config.repeats, config.warmup,
         config.profile, config.profile_top, config.cache_dir,
         config.critpath, config.telemetry)
        for wname in config.workloads
        for mname in config.models
    ]
    for cell in cells:
        log("bench: {} x {} (warmup {}, repeats {})".format(
            cell[0], cell[1], cell[3], cell[2]))
    heartbeat = Heartbeat(
        len(cells), phase="bench", status_path=status_file
    )
    cache_tally = {"hits": 0.0, "misses": 0.0}

    def _on_result(result):
        _entry, snapshot = result.value
        for name, value in snapshot["counters"].items():
            if name.startswith("cache.") and name.endswith(".hits"):
                cache_tally["hits"] += value
            elif name.startswith("cache.") and name.endswith(".misses"):
                cache_tally["misses"] += value
        lookups = cache_tally["hits"] + cache_tally["misses"]
        heartbeat.advance(
            current="{} x {}".format(
                cells[result.index][0], cells[result.index][1]
            ),
            cache_hit_rate=(
                cache_tally["hits"] / lookups if lookups else None
            ),
        )

    if executor is None:
        executor = SuiteExecutor(
            jobs=config.jobs, log=log, on_result=_on_result
        )
    elif getattr(executor, "on_result", None) is None:
        executor.on_result = _on_result
    merged_metrics = MetricsRegistry()
    try:
        results = executor.map(_run_cell, cells)
    finally:
        heartbeat.finish()

    workloads = {}
    baseline_makespans = {}
    for cell, (entry, metrics_snapshot) in zip(cells, results):
        wname, mname = cell[0], cell[1]
        merged_metrics.merge(metrics_snapshot)
        if wname not in workloads:
            workloads[wname] = {
                "spec": get_workload(wname).as_dict(),
                "models": {},
            }
        makespan = entry["simulated"]["makespan_ns"]
        if mname == "baseline":
            baseline_makespans[wname] = makespan
        baseline_makespan = baseline_makespans.get(wname)
        entry["simulated"]["speedup_vs_baseline"] = (
            baseline_makespan / makespan
            if baseline_makespan is not None and makespan > 0
            else 0.0
        )
        workloads[wname]["models"][mname] = entry
    payload = {
        "kind": schema.REPORT_KIND,
        "schema_version": schema.SCHEMA_VERSION,
        "created_utc": schema.utc_timestamp(),
        "host": host_meta,
        "git": git_meta,
        "config": config.as_dict(),
        "workloads": workloads,
    }
    counters = merged_metrics.snapshot()["counters"]
    if config.cache_dir:
        payload["cache"] = {
            "dir": config.cache_dir,
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("cache.")
            },
        }
    fastpath_counters = {
        name: value
        for name, value in counters.items()
        if name.startswith("analysis.fastpath.")
    }
    if fastpath_counters:
        # how many pair graphs each construction tier built, summed
        # over every cell (warmup included — tier choice is wall-clock,
        # not simulated, so warm passes exercise the same code path)
        payload["fastpath"] = {
            "mode": resolve_fastpath_mode(None),
            "counters": fastpath_counters,
        }
    engine_counters = {
        name: value
        for name, value in counters.items()
        if name.startswith("engine.tier.")
        or name.startswith("engine.fallback.")
    }
    if engine_counters:
        # which simulation-engine tier served each run, and why runs
        # fell back to the scalar reference (repro.models.fastengine)
        payload["engine"] = {
            "mode": resolve_engine_mode(None),
            "counters": engine_counters,
        }
    return payload


def write_report(payload, path=None, directory="."):
    """Write ``BENCH_<UTC-timestamp>.json`` (or an explicit ``path``)."""
    if path is None:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, schema.bench_filename())
    return dump_json(payload, path)
