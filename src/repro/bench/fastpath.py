"""The ``analysis-fastpath`` microbench suite (``repro bench fastpath``).

Measures the :mod:`repro.analysis.fastpath` graph-construction tiers
against the scalar reference builder on large-grid producer/consumer
pairs — one hidden workload per Table-I pattern family (see
:func:`repro.workloads.microbench.fastpath_specs`).  The driver runs
the same suite twice, cold, with no analysis cache:

1. ``REPRO_FASTPATH=reference`` — every graph through the scalar
   oracle (``BENCH_before_reference.json``);
2. ``REPRO_FASTPATH=auto``      — tiered fast path
   (``BENCH_after_fastpath.json``);

then diffs the two reports.  Because the tiers are differential-tested
to produce *identical* graphs, the diff must show **zero simulated
drift** — any drift is a fast-path correctness bug and
:func:`run_fastpath_bench` flags it.  The wall-clock win lands in the
``encode`` phase (the ``plan.graphs`` span, where dependency graphs are
built); ``benchmarks/fastpath_demo/`` holds a committed run.

:func:`registry_tier_census` answers a different question — on the
real Table-II workloads (small variants), which tier serves each
kernel pair? — and backs the CI gate that the closed-form tier keeps
firing on registry workloads.
"""

import os

from repro.bench.diff import diff_reports, format_diff
from repro.bench.runner import BenchConfig, run_suite, write_report
from repro.analysis.fastpath import FASTPATH_ENV
from repro.core.runtime import BlockMaestroRuntime
from repro.obs import MetricsRegistry
from repro.workloads import all_workloads, get_workload

#: the suite: one hidden microbench per Table-I pattern family
FASTPATH_WORKLOADS = ("fp-1to1", "fp-stencil", "fp-nto1", "fp-fc", "fp-ngroup")

#: simulation is not under test here — one cheap model keeps runs short
FASTPATH_MODELS = ("baseline",)

BEFORE_NAME = "BENCH_before_reference.json"
AFTER_NAME = "BENCH_after_fastpath.json"
DIFF_NAME = "DIFF.txt"


def fastpath_config(repeats=3, warmup=1, jobs=1):
    """A :class:`BenchConfig` for the fastpath suite.

    Built directly (not via :func:`resolve_config`) because the fp-*
    workloads are hidden from the registry's glob matching on purpose.
    No ``cache_dir``: every pass must be a cold analysis.
    """
    return BenchConfig(
        workloads=FASTPATH_WORKLOADS,
        models=FASTPATH_MODELS,
        repeats=max(1, int(repeats)),
        warmup=max(0, int(warmup)),
        jobs=max(1, int(jobs)),
    )


def _run_mode(mode, config, log):
    """Run the suite with ``REPRO_FASTPATH`` pinned to ``mode``.

    The env var — not a runtime argument — is the knob because bench
    cells may execute in forked worker processes, which inherit the
    parent's environment.
    """
    saved = os.environ.get(FASTPATH_ENV)
    os.environ[FASTPATH_ENV] = mode
    try:
        return run_suite(config, log=log)
    finally:
        if saved is None:
            del os.environ[FASTPATH_ENV]
        else:
            os.environ[FASTPATH_ENV] = saved


def _phase_p50(payload, wname, phase):
    entry = payload["workloads"][wname]["models"][FASTPATH_MODELS[0]]
    return entry["wall"]["phases"][phase]["p50"]


def run_fastpath_bench(out_dir, repeats=3, warmup=1, jobs=1, log=None):
    """Before/after fastpath comparison; writes three files to ``out_dir``.

    Returns a summary dict: report paths, per-workload encode-phase
    p50 speedups (reference / fastpath), the tier counters of the
    fastpath run, and ``drift`` (must be ``False``).
    """
    log = log if log is not None else (lambda msg: None)
    os.makedirs(out_dir, exist_ok=True)
    config = fastpath_config(repeats=repeats, warmup=warmup, jobs=jobs)

    log("fastpath bench: reference pass ({} workloads)".format(
        len(config.workloads)))
    before = _run_mode("reference", config, log)
    before_path = write_report(before, path=os.path.join(out_dir, BEFORE_NAME))

    log("fastpath bench: fastpath pass")
    after = _run_mode("auto", config, log)
    after_path = write_report(after, path=os.path.join(out_dir, AFTER_NAME))

    result = diff_reports(before, after)
    diff_text = format_diff(result)
    diff_path = os.path.join(out_dir, DIFF_NAME)
    with open(diff_path, "w") as handle:
        handle.write(diff_text + "\n")

    speedups = {}
    for wname in config.workloads:
        ref = _phase_p50(before, wname, "encode")
        fast = _phase_p50(after, wname, "encode")
        speedups[wname] = ref / fast if fast > 0 else float("inf")

    return {
        "before": before_path,
        "after": after_path,
        "diff": diff_path,
        "encode_speedups": speedups,
        "counters": after.get("fastpath", {}).get("counters", {}),
        "drift": bool(result.drift),
    }


def registry_tier_census(hazards=("raw",)):
    """Which fast-path tier built each Table-II registry workload's graphs?

    Plans every registry workload's *small* variant under ``auto`` mode
    with a fresh runtime and collects the ``analysis.fastpath.*``
    counters, which count graphs constructed: a kernel pair whose
    summary pair already has a graph reuses it and is not counted.
    Returns ``{workload: {tier: count}}``; the CI fastpath job fails if
    no workload hits the closed-form tier.
    """
    census = {}
    for spec in all_workloads():
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime(
            metrics=metrics, hazards=hazards, fastpath="auto"
        )
        runtime.plan(spec.build_small())
        prefix = "analysis.fastpath."
        census[spec.name] = {
            name[len(prefix):]: int(value)
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith(prefix)
        }
    return census


def format_census(census):
    """One line per workload: ``name  closed_form=.. vectorized=..``."""
    lines = []
    for name in sorted(census):
        tiers = census[name]
        detail = " ".join(
            "{}={}".format(tier, tiers[tier]) for tier in sorted(tiers)
        ) or "(no kernel pairs)"
        lines.append("{:<12} {}".format(name, detail))
    total = sum(t.get("closed_form", 0) for t in census.values())
    lines.append("closed-form graphs total: {}".format(total))
    return "\n".join(lines)


def census_closed_form_total(census):
    return sum(t.get("closed_form", 0) for t in census.values())
