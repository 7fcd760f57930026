"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list [--json]``                 — the benchmark suite (Table II)
* ``analyze <workload>``            — run launch-time analysis, print
                                      per-kernel patterns and storage
* ``run <workload> [--model M]``    — simulate and print a timeline
                                      (``--json [FILE]`` for RunStats JSON)
* ``compare <workload>``            — all roster models side by side
                                      (``--json [FILE]`` for RunStats JSON)
* ``trace <workload> [--model M]``  — export a Chrome trace-event JSON
                                      (open in Perfetto) + metrics sidecar
* ``blame <workload> [--model M]``  — systemd-analyze-style attribution:
                                      simulated time per kernel, wall
                                      clock per pipeline phase
* ``critpath <workload> [--model M] [--whatif]``
                                    — critical-path profile: which chain
                                      of TBs/launches/copies determined
                                      the makespan, hierarchical
                                      attribution, optimistic what-if
                                      speedup bounds (``--json``)
* ``journal <workload> [--model M]`` — record the engine's flight
                                      recorder: every scheduling event
                                      with its release edge, as digested
                                      JSONL (``docs/observability.md``)
* ``telemetry <workload> [--model M]``
                                    — hardware telemetry time series:
                                      SM occupancy, queue depths,
                                      DLB/PCB occupancy, per-pair
                                      overlap, idle-bubble blame
                                      (``--json``, ``--prom FILE``)
* ``report <workload> [--model M]`` — single self-contained HTML
                                      flight report: telemetry
                                      timelines + critpath attribution
                                      + overlap table + journal digest
* ``jdiff <A> <B> [--window N]``    — align two journals, report the
                                      first divergence with blame and a
                                      waterfall window; exit 1 on drift
* ``experiments [names...]``        — regenerate paper tables/figures
                                      (``--out DIR`` for JSON reports)
* ``ablations``                     — the design-choice sweeps
* ``bench run|diff|trend``          — performance benchmarking and
                                      regression tracking (see
                                      ``docs/benchmarking.md``)
* ``serve [--host H --port P]``     — long-running simulation daemon:
                                      the run/compare/critpath/
                                      telemetry/bench pipelines over
                                      HTTP/JSON with warm state,
                                      request coalescing, ``/metrics``,
                                      ``/healthz``, ``/statusz``,
                                      ``/events`` (``docs/serving.md``)
* ``client <cmd> [--url URL]``      — thin client for the daemon:
                                      ``run``/``compare``/``critpath``/
                                      ``telemetry``/``bench`` plus
                                      ``health``/``status``/``version``/
                                      ``metrics``/``events``/``shutdown``
* ``bench serve``                   — daemon load test: latency
                                      quantiles, RPS, coalescing under
                                      a concurrent burst, CLI
                                      cold-start baseline
* ``fuzz [--count N] [--seed S]``   — differential fuzzing: seeded
                                      generator corpus, every
                                      ``REPRO_FASTPATH`` mode and every
                                      ``REPRO_ENGINE`` tier vs the
                                      scalar oracles, minimized repro
                                      files on divergence; exit 1 on
                                      any divergence
                                      (``docs/fuzzing.md``)

``run``, ``critpath``, and ``bench run`` accept ``--engine MODE`` to
pin the simulation-engine tier (``auto`` | ``vectorized`` |
``reference``) for the invocation — equivalent to
setting ``REPRO_ENGINE``, and inherited by worker processes.

Model names accept the roster (``baseline``, ``ideal``, ``prelaunch``,
``producer``, ``consumer2``..``consumer4``) plus the ``blockmaestro``
alias for the headline consumer/window-3 configuration.  Unknown
workload or model names exit with code 2 and a one-line message.

``bench run``, ``experiments``, and ``compare`` accept ``--jobs N`` to
fan independent work out over worker processes; ``bench run`` also
accepts ``--cache`` / ``--cache-dir DIR`` to persist launch-time
analysis across runs.  See ``docs/parallelism.md``.

``repro --version`` prints the package version plus every report
schema version this build emits (bench, critpath, fuzz, journal,
serve, status, telemetry); the ``serve`` entry is the client/daemon
handshake token.
"""

import argparse
import sys

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    MODEL_ALIASES,
    STANDARD_MODELS,
    ExperimentContext,
    UnknownModelError,
    _make_model,
    _model_plan_params,
    canonical_model_name,
    format_table,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.report import dump_json, format_blame, run_stats_dict, write_text
from repro.sim.timeline import compare_timelines, render_kernel_timeline
from repro.workloads import UnknownWorkloadError, all_workloads, get_workload

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
MODEL_CHOICES = MODEL_NAMES + sorted(MODEL_ALIASES)

#: ``--engine`` values: canonical modes plus the aliases
#: :func:`repro.models.fastengine.resolve_engine_mode` accepts
ENGINE_CHOICES = (
    "auto", "vectorized", "reference",
    "on", "off", "scalar", "oracle",
)


def _int_at_least(text, minimum):
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(
            "must be >= {} (got {})".format(minimum, value)
        )
    return value


def non_negative_int(text):
    """argparse type for ``--limit``: a row or event count, never
    negative."""
    return _int_at_least(text, 0)


def positive_int(text):
    """argparse type for a launch ``--window``: at least one kernel."""
    return _int_at_least(text, 1)


def cmd_list(args):
    if getattr(args, "json", None):
        payload = []
        for spec in all_workloads():
            entry = spec.as_dict()
            app = spec.build()
            entry["num_kernels"] = app.trace.num_kernels
            entry["total_tbs"] = sum(
                call.num_tbs for call in app.trace.kernel_calls
            )
            payload.append(entry)
        _emit_json(payload, args.json)
        return
    rows = [
        {
            "name": spec.name,
            "suite": spec.suite,
            "kernels": spec.paper_kernels,
            "patterns": ",".join(str(p) for p in spec.paper_patterns),
            "description": spec.description,
        }
        for spec in all_workloads()
    ]
    print(
        format_table(
            rows,
            ["name", "suite", "kernels", "patterns", "description"],
            title="Benchmark suite (paper Table II)",
        )
    )


def cmd_analyze(args):
    app = get_workload(args.workload).build()
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=args.window)
    rows = []
    for kp in plan.kernels[: args.limit]:
        enc = kp.encoded
        rows.append(
            {
                "kernel": kp.name,
                "blocks": kp.num_tbs,
                "pattern": "-" if enc is None else enc.original_pattern.pattern.value,
                "edges": "-" if enc is None else enc.original.num_edges,
                "collapsed": "-" if enc is None else ("yes" if enc.collapsed else "no"),
                "encoded_B": "-" if enc is None else enc.encoded_bytes,
                "fallback": kp.summary.fallback or "-",
            }
        )
    print(
        format_table(
            rows,
            ["kernel", "blocks", "pattern", "edges", "collapsed", "encoded_B", "fallback"],
            title="Launch-time analysis: {} (first {} kernels)".format(
                app.name, args.limit
            ),
        )
    )
    print(
        "\ntotal dependency-graph storage: {} B encoded / {} B plain".format(
            plan.graph_encoded_bytes, plan.graph_plain_bytes
        )
    )
    print(
        "analysis wall time: {:.1f} ms total, {:.2f} ms per launch "
        "(JIT-time work, masked by pre-launching)".format(
            plan.analysis_seconds * 1e3,
            plan.analysis_seconds_per_kernel() * 1e3,
        )
    )


class _VersionAction(argparse.Action):
    """``--version``: package + schema versions, imported lazily."""

    def __init__(self, option_strings, dest, **kwargs):
        kwargs["nargs"] = 0
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.version import version_lines

        print("\n".join(version_lines()))
        parser.exit(0)


def _emit_json(payload, destination):
    """Write a JSON payload to stdout (``-``) or a file path."""
    dump_json(payload, destination)
    if destination != "-":
        print("wrote", destination)


def _pin_engine_mode(value):
    """Pin ``--engine MODE`` for this invocation via the environment.

    The env var — not a call argument — is the conduit because the
    memoized :meth:`ExperimentContext.run_model` path and forked bench
    workers both resolve ``REPRO_ENGINE`` at run time; pinning the
    environment reaches every run the command makes.
    """
    if value is None:
        return
    import os

    from repro.models.fastengine import ENGINE_ENV, resolve_engine_mode

    os.environ[ENGINE_ENV] = resolve_engine_mode(value)


def cmd_run(args):
    _pin_engine_mode(args.engine)
    app = get_workload(args.workload).build()
    ctx = ExperimentContext()
    ctx.register_app(app)
    stats = ctx.run_model(app, args.model)
    if args.json == "-":
        _emit_json(run_stats_dict(stats, include_tb_records=args.tb_records), "-")
        return
    print(render_kernel_timeline(stats, width=args.width))
    print()
    print("model     :", stats.model)
    print("makespan  : {:.1f} us".format(stats.makespan_ns / 1000))
    print("concurrency: {:.1f} avg thread blocks".format(stats.avg_tb_concurrency()))
    q1, med, q3 = stats.stall_quartiles()
    print("stalls    : q1={:.2f} median={:.2f} q3={:.2f}".format(q1, med, q3))
    if args.json:
        _emit_json(
            run_stats_dict(stats, include_tb_records=args.tb_records), args.json
        )


def _compare_model(item):
    """``compare --jobs`` worker: one roster model, self-contained."""
    workload, model_name = item
    from repro.workloads import get_workload as _get

    app = _get(workload).build()
    ctx = ExperimentContext()
    ctx.register_app(app)
    return ctx.run_model(app, model_name)


def cmd_compare(args):
    app = get_workload(args.workload).build()
    jobs = getattr(args, "jobs", 1) or 1
    if jobs > 1:
        from repro.parallel import SuiteExecutor

        executor = SuiteExecutor(jobs=jobs)
        runs = executor.map(
            _compare_model, [(args.workload, name) for name in MODEL_NAMES]
        )
    else:
        ctx = ExperimentContext()
        ctx.register_app(app)
        runs = [ctx.run_model(app, name) for name in MODEL_NAMES]
    baseline = runs[0]
    if args.json:
        payload = {
            "workload": app.name,
            "baseline": baseline.model,
            "runs": [
                dict(run_stats_dict(stats), speedup=stats.speedup_over(baseline))
                for stats in runs
            ],
        }
        _emit_json(payload, args.json)
        if args.json == "-":
            return
    rows = [
        {
            "model": stats.model,
            "makespan_us": stats.makespan_ns / 1000,
            "speedup": stats.speedup_over(baseline),
            "concurrency": stats.avg_tb_concurrency(),
        }
        for stats in runs
    ]
    print(
        format_table(
            rows,
            ["model", "makespan_us", "speedup", "concurrency"],
            title="Model comparison: {}".format(app.name),
        )
    )
    if args.timelines:
        print()
        print(compare_timelines(runs[:1] + runs[2:], width=args.width))


def _traced_run(workload, model_name, per_sm=False, journal=None):
    """Build, plan, and simulate one workload under full observation.

    Returns ``(app, stats, tracer, metrics)`` — shared by ``trace`` and
    ``blame``; ``journal`` optionally records the run for the
    critical-path and telemetry overlays.
    """
    tracer = Tracer(per_sm_counters=per_sm)
    metrics = MetricsRegistry()
    spec = get_workload(workload)
    with tracer.span("workload.build:{}".format(spec.name), cat="ptx"):
        app = spec.build()  # PTX parse + trace construction
    model_name = canonical_model_name(model_name)
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics)
    plan = runtime.plan(app, reorder=reorder, window=window)
    model = _make_model(model_name, runtime.config)
    stats = model.run(plan, tracer=tracer, metrics=metrics, journal=journal)
    return app, stats, tracer, metrics


def cmd_trace(args):
    journal = None
    if args.critpath or args.telemetry:
        from repro.obs.journal import JournalRecorder

        journal = JournalRecorder()
    app, stats, tracer, metrics = _traced_run(
        args.workload, args.model, per_sm=args.per_sm, journal=journal
    )
    if args.critpath:
        from repro.obs import critpath as cp

        cp.emit_critpath_flow(tracer, cp.extract_critical_path(stats, journal))
    if args.telemetry:
        from repro.obs import telemetry as tm

        tm.emit_telemetry_counters(tracer, tm.build_report(stats, journal))
    out = args.output or "{}-trace.json".format(app.name)
    tracer.write(out)
    sidecar = args.metrics_out or (
        out[: -len(".json")] + ".metrics.json" if out.endswith(".json")
        else out + ".metrics.json"
    )
    metrics.write(sidecar)
    if args.json:
        from repro.obs.report import trace_summary_payload

        _emit_json(trace_summary_payload(stats, tracer, out, sidecar), args.json)
        if args.json == "-":
            return
    write_text(
        "model    : {}\n"
        "makespan : {:.1f} us (simulated)\n"
        "events   : {} trace events -> {}\n"
        "metrics  : {} -> open the trace at https://ui.perfetto.dev".format(
            stats.model, stats.makespan_ns / 1000, len(tracer), out, sidecar
        ),
        args.out,
    )


def cmd_blame(args):
    _app, stats, tracer, _metrics = _traced_run(args.workload, args.model)
    if args.json:
        from repro.obs.report import blame_payload

        _emit_json(blame_payload(stats, tracer=tracer, limit=args.limit), args.json)
        if args.json == "-":
            return
    write_text(format_blame(stats, tracer=tracer, limit=args.limit), args.out)


def cmd_critpath(args):
    from repro.obs import critpath as cp
    from repro.obs.journal import record_run

    # the journal attaches an observer, so a non-reference --engine pin
    # falls back to the scalar oracle (counted, documented behavior);
    # the pin is still honored so users can see exactly that.
    _pin_engine_mode(args.engine)
    journal, stats = record_run(args.workload, args.model)
    report = cp.build_report(stats, journal, whatif=args.whatif)
    errors = cp.validate_critpath_report(report)
    if errors:  # a profiler bug, not a user error — fail loudly
        raise AssertionError(
            "generated critpath report is invalid: {}".format(errors[:3])
        )
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return
    print(cp.format_critpath(report, limit=args.limit))


def cmd_journal(args):
    from repro.obs import journal as jr

    recorder, stats = jr.record_run(args.workload, args.model)
    errors = jr.validate_journal(recorder.header(), recorder.events)
    if errors:  # a recorder bug, not a user error — fail loudly
        raise AssertionError(
            "recorded journal is invalid: {}".format(errors[:3])
        )
    out = args.out or "{}-{}.journal.jsonl".format(
        recorder.application, recorder.model
    )
    jr.write_journal(recorder, out)
    print("model    :", stats.model)
    print("makespan : {:.1f} us (simulated)".format(stats.makespan_ns / 1000))
    print("events   : {} journal events -> {}".format(
        len(recorder.events), out
    ))
    print("digest   :", recorder.digest())


def cmd_telemetry(args):
    from repro.obs import telemetry as tm
    from repro.obs.journal import record_run

    journal, stats = record_run(args.workload, args.model)
    report = tm.build_report(stats, journal)
    errors = tm.validate_telemetry_report(report)
    if errors:  # an analyzer bug, not a user error — fail loudly
        raise AssertionError(
            "generated telemetry report is invalid: {}".format(errors[:3])
        )
    if args.prom:
        write_text(tm.write_prometheus(report), args.prom)
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return
    print(tm.format_telemetry(report, limit=args.limit))


def cmd_report(args):
    from repro.obs import flight

    path, data = flight.write_flight_report(
        args.workload, args.model, out=args.out, bench_dir=args.bench
    )
    telemetry = data["telemetry"]
    print("model    :", data["model"])
    print("makespan : {:.1f} us (simulated)".format(
        telemetry["makespan_ns"] / 1000
    ))
    print("overlap  : {} kernel pair{} with achieved overlap".format(
        len(telemetry["overlap"]["pairs"]),
        "" if len(telemetry["overlap"]["pairs"]) == 1 else "s",
    ))
    print("report   : {} (self-contained HTML)".format(path))


def cmd_jdiff(args):
    from repro.obs import jdiff as jd
    from repro.obs import journal as jr

    try:
        a_header, a_events = jr.load_journal(args.a)
        b_header, b_events = jr.load_journal(args.b)
    except (OSError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    report = jd.diff_journals(
        a_header, a_events, b_header, b_events,
        window=args.window, a_label=args.a, b_label=args.b,
    )
    exit_code = 0 if report["identical"] else 1
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return exit_code
    print(jd.format_jdiff(report))
    return exit_code


def cmd_dot(args):
    app = get_workload(args.workload).build()
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=3)
    kernels = [kp for kp in plan.kernels if kp.encoded is not None]
    if not kernels:
        raise SystemExit("workload has no dependent kernel pairs")
    index = max(0, min(args.pair, len(kernels) - 1))
    kp = kernels[index]
    parent = plan.kernels[kp.chain_prev]
    print(
        kp.encoded.original.to_dot(
            parent_label=parent.name, child_label=kp.name,
            max_nodes=args.max_nodes,
        )
    )


def cmd_validate(args):
    """Functional replay validation: simulate, replay the block start
    order at real values, diff against serialized execution."""
    from repro.models import BlockMaestroModel
    from repro.sim.funcsim import FunctionalSimulator, schedule_from_stats
    from repro.core.policy import SchedulingPolicy

    spec = get_workload(args.workload)
    app = spec.build_small()
    print(app.describe(), "(scaled-down variant)")
    runtime = BlockMaestroRuntime(hazards=("raw", "war", "waw"))
    plan = runtime.plan(app, reorder=True, window=args.window)
    golden = FunctionalSimulator(app.allocator).run_application(app)
    for policy in SchedulingPolicy:
        stats = BlockMaestroModel(window=args.window, policy=policy).run(plan)
        replayed = FunctionalSimulator(app.allocator).run_application(
            app, tb_order=schedule_from_stats(stats)
        )
        verdict = "PASS" if replayed == golden else "FAIL"
        print(
            "  {:10s} policy: {} ({} thread blocks replayed)".format(
                policy.value, verdict, len(stats.tb_records)
            )
        )
        if verdict == "FAIL":
            raise SystemExit(1)
    print("schedules preserve program semantics.")


def cmd_bench_run(args):
    from repro import bench
    from repro.analysis.cache import resolve_cache_dir

    _pin_engine_mode(args.engine)
    cache_dir = resolve_cache_dir(
        cache_dir=args.cache_dir, enabled=bool(args.cache_dir or args.cache)
    )
    config = bench.resolve_config(
        quick=args.quick,
        models=args.models,
        filter_globs=args.filter,
        repeats=args.repeats,
        warmup=args.warmup,
        profile=args.profile,
        profile_top=args.profile_top,
        jobs=args.jobs,
        cache_dir=cache_dir,
        critpath=args.critpath,
        telemetry=args.telemetry,
        fuzz=args.fuzz,
        fuzz_seed=args.fuzz_seed,
    )
    payload = bench.run_suite(config, status_file=args.status_file)
    errors = bench.validate_report(payload)
    if errors:  # a schema bug, not a user error — fail loudly
        raise AssertionError("generated report is invalid: {}".format(errors[:3]))
    path = bench.write_report(payload, path=args.output, directory=args.out)
    rows = []
    for wname, wentry in payload["workloads"].items():
        for mname, mentry in wentry["models"].items():
            rows.append(
                {
                    "workload": wname,
                    "model": mname,
                    "wall_p50_ms": mentry["wall"]["total_s"]["p50"] * 1e3,
                    "makespan_us": mentry["simulated"]["makespan_ns"] / 1e3,
                    "speedup": mentry["simulated"]["speedup_vs_baseline"],
                }
            )
    print(
        format_table(
            rows,
            ["workload", "model", "wall_p50_ms", "makespan_us", "speedup"],
            title="bench run ({} repeats, {} warmup, {} job{})".format(
                config.repeats, config.warmup, config.jobs,
                "" if config.jobs == 1 else "s",
            ),
        )
    )
    cache_section = payload.get("cache")
    if cache_section:
        counters = cache_section["counters"]
        hits = sum(v for k, v in counters.items() if k.endswith(".hits"))
        misses = sum(v for k, v in counters.items() if k.endswith(".misses"))
        print(
            "cache: {:.0f} hits / {:.0f} misses ({})".format(
                hits, misses, cache_section["dir"]
            )
        )
    fastpath_section = payload.get("fastpath")
    if fastpath_section:
        counters = fastpath_section["counters"]
        prefix = "analysis.fastpath."
        print(
            "fastpath ({}): {}".format(
                fastpath_section["mode"],
                ", ".join(
                    "{} {:.0f}".format(name[len(prefix):], counters[name])
                    for name in sorted(counters)
                ),
            )
        )
    engine_section = payload.get("engine")
    if engine_section:
        counters = engine_section["counters"]
        prefix = "engine."
        print(
            "engine ({}): {}".format(
                engine_section["mode"],
                ", ".join(
                    "{} {:.0f}".format(name[len(prefix):], counters[name])
                    for name in sorted(counters)
                ),
            )
        )
    print("wrote", path)


def cmd_bench_diff(args):
    from repro import bench

    try:
        old = bench.load_report(args.old)
        new = bench.load_report(args.new)
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    result = bench.diff_reports(
        old, new, tolerance=args.tolerance, min_seconds=args.min_seconds
    )
    print(bench.format_diff(result, tolerance=args.tolerance, strict=args.strict))
    if args.forensics and result.drift:
        from repro.obs import jdiff as jd

        # one forensics pass per drifted (workload, model) cell: record
        # two fresh journals on the *current* code (reference fastpath
        # vs ambient mode) and localize the first diverging event
        drifted = sorted({(d.workload, d.model) for d in result.drift})
        for wname, mname in drifted:
            print()
            print("forensics: re-recording {} x {} ...".format(wname, mname))
            forensic = jd.drift_forensics(wname, mname)
            print(jd.format_jdiff(forensic))
            if forensic["identical"]:
                print(
                    "forensics: engine is internally consistent on this "
                    "code — the drift comes from code changes between the "
                    "reports; record `repro journal {} --model {}` at each "
                    "commit and jdiff those".format(wname, mname)
                )
    return 1 if result.failed(strict=args.strict) else 0


def cmd_bench_trend(args):
    from repro import bench
    from repro.bench.trend import METRICS

    if args.metric not in METRICS:
        print(
            "error: unknown trend metric {!r}; available: {}".format(
                args.metric, ", ".join(sorted(METRICS))
            ),
            file=sys.stderr,
        )
        return 2
    reports = bench.load_reports(args.directory)
    print(bench.format_trend(reports, metric=args.metric))


def cmd_bench_serve(args):
    from repro.bench import serve as sbench
    from repro.obs.log import get_logger

    log = get_logger("bench")
    try:
        payload = sbench.run_serve_bench(
            url=args.url,
            requests=args.requests,
            concurrency=args.concurrency,
            burst=args.burst,
            model=args.model,
            baseline_repeats=args.baseline,
            log=log.info,
        )
    except (ValueError, RuntimeError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    errors = sbench.validate_serve_bench_report(payload)
    if errors:  # a bench bug, not a user error — fail loudly
        raise AssertionError(
            "generated serve-bench report is invalid: {}".format(errors[:3])
        )
    path = args.output or sbench.serve_bench_filename()
    sbench.write_serve_bench_report(payload, path)
    print("\n".join(sbench.format_serve_bench_report(payload)))
    print("wrote", path)
    coalesce = payload["phases"]["coalesce"]
    if (
        coalesce["completed"] != coalesce["burst"]
        or coalesce["simulations"] != 1
    ):
        # the daemon failed the coalescing contract under load
        print(
            "COALESCE FAIL: {} of {} burst requests completed, {} "
            "simulations (expected exactly 1)".format(
                coalesce["completed"], coalesce["burst"],
                coalesce["simulations"],
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve(args):
    import asyncio

    from repro.analysis.cache import resolve_cache_dir
    from repro.serve.server import (
        ReproServer,
        ServeStartupError,
        preflight_host,
    )

    try:
        port = int(args.port)
    except (TypeError, ValueError):
        print(
            "error: --port must be an integer (got {!r})".format(args.port),
            file=sys.stderr,
        )
        return 2
    if not 0 <= port <= 65535:
        print(
            "error: --port must be in 0..65535 (got {})".format(port),
            file=sys.stderr,
        )
        return 2
    cache_dir = resolve_cache_dir(
        cache_dir=args.cache_dir, enabled=bool(args.cache_dir or args.cache)
    )
    try:
        preflight_host(args.host, port)
        server = ReproServer(
            host=args.host,
            port=port,
            cache_dir=cache_dir,
            status_file=args.status_file,
            trace_out=args.trace_out,
            bench_jobs=args.jobs,
        )
        return asyncio.run(server.run(announce=print))
    except ServeStartupError as exc:
        # port in use / unresolvable host: one line, exit 2, no traceback
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def cmd_client(args):
    from repro.serve.client import ClientError, ServeClient

    command = args.client_command
    try:
        client = ServeClient(args.url)
        if command == "run":
            payload = client.run(
                args.workload,
                model=args.model,
                engine=args.engine,
                journal=args.journal,
                tb_records=args.tb_records,
            )
        elif command == "compare":
            payload = client.compare(args.workload)
        elif command == "critpath":
            payload = client.critpath(
                args.workload, model=args.model, whatif=args.whatif
            )
        elif command == "telemetry":
            payload = client.telemetry(args.workload, model=args.model)
        elif command == "bench":
            payload = client.bench(
                quick=not args.full,
                repeats=args.repeats,
                warmup=args.warmup,
            )
        elif command == "health":
            payload = client.health()
        elif command == "status":
            payload = client.statusz()
        elif command == "version":
            payload = client.version()
        elif command == "workloads":
            payload = client.workloads()
        elif command == "metrics":
            print(client.metrics(), end="")
            return 0
        elif command == "events":
            for event in client.events(max_events=args.count):
                dump_json(event, "-")
            return 0
        else:  # command == "shutdown"
            payload = client.shutdown()
    except ClientError as exc:
        # daemon down / refused / schema mismatch: one line, exit 2
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    _emit_json(payload, getattr(args, "json", None) or "-")
    return 0


def cmd_bench(args):
    handler = {
        "run": cmd_bench_run,
        "diff": cmd_bench_diff,
        "trend": cmd_bench_trend,
        "serve": cmd_bench_serve,
    }[args.bench_command]
    return handler(args)


def cmd_fuzz(args):
    from repro import fuzz
    from repro.obs.log import get_logger

    try:
        config = fuzz.resolve_fuzz_config(
            count=args.count,
            seed=args.seed,
            modes=args.modes,
            engines=args.engines,
            model=args.model,
            jobs=args.jobs,
            out_dir=args.out,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        # bad count/seed/mode: one line, exit 2, like unknown names
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    report = fuzz.run_fuzz(config, log=get_logger("fuzz").info)
    errors = fuzz.validate_fuzz_report(report)
    if errors:  # a harness bug, not a user error — fail loudly
        raise AssertionError(
            "generated fuzz report is invalid: {}".format(errors[:3])
        )
    exit_code = 1 if report["num_divergent"] else 0
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return exit_code
    print(fuzz.format_fuzz(report))
    return exit_code


def cmd_experiments(args):
    from repro.experiments import runner

    runner.run_all(
        args.names or None, out_dir=args.out, jobs=args.jobs,
        status_file=args.status_file,
    )


def cmd_ablations(_args):
    from repro.experiments import ablations

    ablations.main()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="BlockMaestro reproduction toolkit"
    )
    parser.add_argument(
        "--log", default=None, metavar="LEVEL[:SUBSYS,...]",
        help="stderr log threshold, optionally scoped to subsystems "
             "(e.g. debug or debug:bench,parallel); overrides $REPRO_LOG",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines (one object per line); "
             "same as REPRO_LOG_JSON=1",
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="print the package version and every report-schema version",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the benchmark suite")
    p_list.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="machine-readable registry to stdout (no FILE) or FILE",
    )

    p_analyze = sub.add_parser("analyze", help="launch-time analysis report")
    p_analyze.add_argument("workload")
    p_analyze.add_argument("--window", type=positive_int, default=3)
    p_analyze.add_argument("--limit", type=non_negative_int, default=24)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload")
    p_run.add_argument("--model", choices=MODEL_CHOICES, default="consumer3")
    p_run.add_argument("--width", type=int, default=72)
    p_run.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="dump RunStats as JSON to stdout (no FILE) or FILE",
    )
    p_run.add_argument(
        "--tb-records",
        action="store_true",
        help="include per-thread-block records in --json output",
    )
    p_run.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None,
        help="pin the simulation-engine tier for this run "
             "(same as REPRO_ENGINE; default: auto)",
    )

    p_compare = sub.add_parser("compare", help="all models on one workload")
    p_compare.add_argument("workload")
    p_compare.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run roster models on N worker processes (default: 1, serial)",
    )
    p_compare.add_argument("--timelines", action="store_true")
    p_compare.add_argument("--width", type=int, default=72)
    p_compare.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="dump every model's RunStats as JSON to stdout or FILE",
    )

    p_trace = sub.add_parser(
        "trace", help="export a Chrome trace-event JSON (Perfetto-loadable)"
    )
    p_trace.add_argument("workload")
    p_trace.add_argument("--model", choices=MODEL_CHOICES, default="consumer3")
    p_trace.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="trace path (default: <workload>-trace.json)",
    )
    p_trace.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="metrics sidecar path (default: <trace>.metrics.json)",
    )
    p_trace.add_argument(
        "--per-sm", action="store_true",
        help="also sample per-SM running_tbs[sm=i] occupancy counters "
             "(bigger trace)",
    )
    p_trace.add_argument(
        "--critpath", action="store_true",
        help="overlay the critical path as Perfetto flow-event arrows",
    )
    p_trace.add_argument(
        "--telemetry", action="store_true",
        help="merge hardware telemetry counter tracks (occupancy, "
             "queue depths, DLB/PCB entries) into the trace",
    )
    p_trace.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="machine-readable run summary to stdout (no FILE) or FILE",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the text summary to FILE instead of stdout",
    )

    p_blame = sub.add_parser(
        "blame", help="attribute simulated/wall time, worst offenders first"
    )
    p_blame.add_argument("workload")
    p_blame.add_argument("--model", choices=MODEL_CHOICES, default="consumer3")
    p_blame.add_argument(
        "--limit", type=non_negative_int, default=None,
        help="show only the N most expensive kernels",
    )
    p_blame.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="machine-readable attribution to stdout (no FILE) or FILE",
    )
    p_blame.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the text attribution to FILE instead of stdout",
    )

    p_cp = sub.add_parser(
        "critpath",
        help="critical-path profile: makespan attribution + what-if bounds",
    )
    p_cp.add_argument("workload")
    p_cp.add_argument("--model", choices=MODEL_CHOICES, default="consumer3")
    p_cp.add_argument(
        "--whatif", action="store_true",
        help="also replay with zero launch overhead / infinite SMs / "
             "dependencies dropped and report speedup bounds",
    )
    p_cp.add_argument(
        "--limit", type=non_negative_int, default=12,
        help="path segments to show in text mode (default: 12)",
    )
    p_cp.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="schema-validated critpath report to stdout (no FILE) or FILE",
    )
    p_cp.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None,
        help="pin the simulation-engine tier (critpath records a "
             "journal, which forces the reference oracle; the fallback "
             "is counted)",
    )

    p_journal = sub.add_parser(
        "journal",
        help="record the engine flight recorder as digested JSONL",
    )
    p_journal.add_argument("workload")
    p_journal.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_journal.add_argument(
        "--out", default=None, metavar="FILE",
        help="journal path (default: <workload>-<model>.journal.jsonl)",
    )

    p_telemetry = sub.add_parser(
        "telemetry",
        help="hardware telemetry: occupancy/queue/DLB time series, "
             "overlap analysis, idle-bubble blame",
    )
    p_telemetry.add_argument("workload")
    p_telemetry.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_telemetry.add_argument(
        "--limit", type=non_negative_int, default=10,
        help="kernel pairs / bubbles to show in text mode (default: 10)",
    )
    p_telemetry.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="schema-validated telemetry report to stdout (no FILE) or FILE",
    )
    p_telemetry.add_argument(
        "--prom", default=None, metavar="FILE",
        help="also write a Prometheus text-exposition snapshot to FILE",
    )

    p_report = sub.add_parser(
        "report",
        help="one-stop HTML flight report: telemetry + critpath + "
             "journal + bench deltas",
    )
    p_report.add_argument("workload")
    p_report.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_report.add_argument(
        "--out", default=None, metavar="FILE",
        help="report path (default: flight-<workload>-<model>.html)",
    )
    p_report.add_argument(
        "--bench", default=None, metavar="DIR",
        help="include wall/simulated deltas from the two newest "
             "BENCH_*.json reports in DIR",
    )

    p_jdiff = sub.add_parser(
        "jdiff",
        help="first-divergence diff of two journals; exit 1 on drift",
    )
    p_jdiff.add_argument("a", help="reference *.journal.jsonl")
    p_jdiff.add_argument("b", help="candidate *.journal.jsonl")
    p_jdiff.add_argument(
        "--window", type=non_negative_int, default=8, metavar="N",
        help="waterfall context events on each side of the divergence "
             "(default: 8)",
    )
    p_jdiff.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="machine-readable jdiff report to stdout (no FILE) or FILE",
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: seeded corpus, fastpath tiers vs "
             "the scalar oracle, shrinking repro files on divergence",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=50, metavar="N",
        help="number of generated cases (default: 50)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first case seed; case i uses seed S+i (default: 0)",
    )
    p_fuzz.add_argument(
        "--modes", nargs="+", default=None, metavar="MODE",
        help="fastpath modes to check against the reference oracle "
             "(default: closed_form vectorized auto)",
    )
    p_fuzz.add_argument(
        "--engines", nargs="+", default=None, metavar="TIER",
        help="engine tiers to check against the scalar oracle "
             "(default: vectorized auto; 'none' disables the engine "
             "sweep)",
    )
    p_fuzz.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_fuzz.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="check cases on N worker processes; the report is "
             "bit-identical to --jobs 1",
    )
    p_fuzz.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="schema-validated fuzz report to stdout (no FILE) or FILE",
    )
    p_fuzz.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for minimized repro-fuzz-case files (default: .)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without minimizing them",
    )

    p_exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    p_exp.add_argument("names", nargs="*")
    p_exp.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write one JSON report per experiment into DIR",
    )
    p_exp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent experiments on N worker processes",
    )
    p_exp.add_argument(
        "--status-file", default=None, metavar="FILE",
        help="atomically rewrite a JSON progress snapshot here after "
             "every experiment (also $REPRO_STATUS_FILE)",
    )

    p_dot = sub.add_parser("dot", help="Graphviz DOT of a kernel-pair graph")
    p_dot.add_argument("workload")
    p_dot.add_argument("--pair", type=int, default=0)
    p_dot.add_argument("--max-nodes", type=int, default=32)

    p_val = sub.add_parser(
        "validate", help="functional replay check on a scaled-down workload"
    )
    p_val.add_argument("workload")
    p_val.add_argument("--window", type=positive_int, default=3)

    sub.add_parser("ablations", help="design-choice sweeps")

    p_bench = sub.add_parser(
        "bench", help="performance benchmarking and regression tracking"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_run = bench_sub.add_parser(
        "run", help="run the suite, write BENCH_<UTC-timestamp>.json"
    )
    b_run.add_argument(
        "--quick",
        action="store_true",
        help="3 fast workloads x (baseline, blockmaestro), 2 repeats",
    )
    b_run.add_argument(
        "--models",
        nargs="+",
        default=None,
        metavar="MODEL",
        help="roster names / aliases, or 'all' (baseline always included)",
    )
    b_run.add_argument(
        "--filter",
        nargs="+",
        default=None,
        metavar="GLOB",
        help="workload subset as shell globs (e.g. 'mvt' 'f*')",
    )
    b_run.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="append N seeded fuzz applications (fuzz-<seed>..) as "
             "extra load-generator workloads (docs/fuzzing.md)",
    )
    b_run.add_argument(
        "--fuzz-seed", type=int, default=0, metavar="S",
        help="first fuzz workload seed for --fuzz (default: 0)",
    )
    b_run.add_argument("--repeats", type=int, default=None, metavar="N")
    b_run.add_argument("--warmup", type=int, default=None, metavar="N")
    b_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run independent (workload, model) cells on N worker "
             "processes; simulated metrics are identical to --jobs 1",
    )
    b_run.add_argument(
        "--cache", action="store_true",
        help="persist launch-time analysis in the default cache dir "
             "(~/.cache/repro, or $REPRO_CACHE_DIR)",
    )
    b_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist launch-time analysis in DIR (implies --cache)",
    )
    b_run.add_argument(
        "--profile",
        action="store_true",
        help="embed cProfile top-k cumulative hotspots per workload/model",
    )
    b_run.add_argument(
        "--critpath",
        action="store_true",
        help="embed per-model critical-path attribution (one extra "
             "untimed journaled pass per cell; see bench diff)",
    )
    b_run.add_argument(
        "--telemetry",
        action="store_true",
        help="embed per-cell telemetry summaries (occupancy, overlap, "
             "idle bubbles; derived from the same journaled pass)",
    )
    b_run.add_argument("--profile-top", type=int, default=15, metavar="K")
    b_run.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the timestamped report (default: .)",
    )
    b_run.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="explicit report path (overrides --out naming)",
    )
    b_run.add_argument(
        "--status-file", default=None, metavar="FILE",
        help="atomically rewrite a JSON progress snapshot here after "
             "every suite cell (also $REPRO_STATUS_FILE)",
    )
    b_run.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None,
        help="pin the simulation-engine tier for every cell "
             "(same as REPRO_ENGINE; inherited by --jobs workers)",
    )

    b_diff = bench_sub.add_parser(
        "diff", help="compare two reports; non-zero exit on regression"
    )
    b_diff.add_argument("old", help="reference BENCH_*.json")
    b_diff.add_argument("new", help="candidate BENCH_*.json")
    b_diff.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="relative wall-clock noise band (default 0.25 = +/-25%%)",
    )
    b_diff.add_argument(
        "--min-seconds", type=float, default=0.010, metavar="S",
        help="ignore wall deltas smaller than this (default 10ms)",
    )
    b_diff.add_argument(
        "--strict", action="store_true",
        help="also fail when entries present in OLD are missing from NEW",
    )
    b_diff.add_argument(
        "--forensics", action="store_true",
        help="on simulated drift, re-record each drifted cell's journal "
             "under REPRO_FASTPATH=reference vs the current mode and "
             "print the first-divergence jdiff",
    )

    b_trend = bench_sub.add_parser(
        "trend", help="per-workload trajectory across all BENCH_*.json"
    )
    b_trend.add_argument(
        "directory", nargs="?", default=".",
        help="where to look for BENCH_*.json (default: .)",
    )
    b_trend.add_argument(
        "--metric", default="wall", metavar="NAME",
        help="wall | makespan | speedup (default: wall)",
    )

    b_serve = bench_sub.add_parser(
        "serve",
        help="load-test the serve daemon: latency quantiles, RPS, "
             "coalescing under a concurrent burst, CLI cold-start "
             "baseline (docs/serving.md)",
    )
    b_serve.add_argument(
        "--url", default=None, metavar="URL",
        help="bench an already-running daemon (default: spawn one for "
             "the duration of the bench)",
    )
    b_serve.add_argument(
        "--requests", type=int, default=24, metavar="N",
        help="requests per load phase (default: 24)",
    )
    b_serve.add_argument(
        "--concurrency", type=int, default=4, metavar="C",
        help="client threads in the throughput phase (default: 4)",
    )
    b_serve.add_argument(
        "--burst", type=int, default=8, metavar="N",
        help="simultaneous identical requests in the coalesce phase "
             "(default: 8)",
    )
    b_serve.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3",
    )
    b_serve.add_argument(
        "--baseline", type=int, default=1, metavar="N",
        help="one-shot CLI subprocess runs for the cold-start "
             "baseline; 0 skips it (default: 1)",
    )
    b_serve.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="report path (default: SERVEBENCH_<UTC>.json)",
    )

    from repro.serve import DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve",
        help="long-running simulation daemon: run/compare/critpath/"
             "telemetry/bench over HTTP with request coalescing, "
             "/metrics, /healthz, /statusz, /events (docs/serving.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", default=str(DEFAULT_PORT), metavar="PORT",
        help="TCP port; 0 picks an ephemeral one (default: {})".format(
            DEFAULT_PORT
        ),
    )
    p_serve.add_argument(
        "--cache", action="store_true",
        help="persist launch-time analysis in the default cache dir "
             "(~/.cache/repro, or $REPRO_CACHE_DIR)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist launch-time analysis in DIR (implies --cache)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for /v1/bench suites (default: 1)",
    )
    p_serve.add_argument(
        "--status-file", default=None, metavar="FILE",
        help="atomically rewrite a repro-status JSON snapshot here on "
             "every heartbeat (same schema as bench --status-file)",
    )
    p_serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace of serve.request spans (with "
             "request ids) at shutdown",
    )

    p_client = sub.add_parser(
        "client",
        help="talk to a running serve daemon "
             "($REPRO_SERVE_URL or http://127.0.0.1:{})".format(
                 DEFAULT_PORT
             ),
    )
    p_client.add_argument(
        "--url", default=None, metavar="URL",
        help="daemon base URL (default: $REPRO_SERVE_URL or "
             "http://127.0.0.1:{})".format(DEFAULT_PORT),
    )
    client_sub = p_client.add_subparsers(
        dest="client_command", required=True
    )

    c_run = client_sub.add_parser("run", help="simulate one workload")
    c_run.add_argument("workload")
    c_run.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    c_run.add_argument(
        "--engine", choices=ENGINE_CHOICES, default=None,
        help="pin the daemon's simulation-engine tier for this request",
    )
    c_run.add_argument(
        "--journal", action="store_true",
        help="include the run's journal digest in the response",
    )
    c_run.add_argument(
        "--tb-records", action="store_true",
        help="include per-thread-block records in the response",
    )

    c_compare = client_sub.add_parser(
        "compare", help="all roster models on one workload"
    )
    c_compare.add_argument("workload")

    c_cp = client_sub.add_parser(
        "critpath", help="critical-path report for one workload"
    )
    c_cp.add_argument("workload")
    c_cp.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    c_cp.add_argument("--whatif", action="store_true")

    c_tm = client_sub.add_parser(
        "telemetry", help="telemetry report for one workload"
    )
    c_tm.add_argument("workload")
    c_tm.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )

    c_bench = client_sub.add_parser(
        "bench", help="run a bench suite inside the daemon"
    )
    c_bench.add_argument(
        "--full", action="store_true",
        help="full suite instead of the quick set",
    )
    c_bench.add_argument("--repeats", type=int, default=None, metavar="N")
    c_bench.add_argument("--warmup", type=int, default=None, metavar="N")

    client_sub.add_parser("health", help="GET /healthz")
    client_sub.add_parser("status", help="GET /statusz")
    client_sub.add_parser("version", help="GET /version")
    client_sub.add_parser("workloads", help="GET /workloads")
    client_sub.add_parser(
        "metrics", help="GET /metrics (raw Prometheus text)"
    )
    c_events = client_sub.add_parser(
        "events", help="tail the /events SSE stream as JSON lines"
    )
    c_events.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N events (default: until the stream closes)",
    )
    client_sub.add_parser(
        "shutdown", help="ask the daemon to shut down gracefully"
    )

    return parser


COMMANDS = {
    "list": cmd_list,
    "dot": cmd_dot,
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "run": cmd_run,
    "compare": cmd_compare,
    "trace": cmd_trace,
    "blame": cmd_blame,
    "critpath": cmd_critpath,
    "journal": cmd_journal,
    "telemetry": cmd_telemetry,
    "report": cmd_report,
    "jdiff": cmd_jdiff,
    "fuzz": cmd_fuzz,
    "experiments": cmd_experiments,
    "ablations": cmd_ablations,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "client": cmd_client,
}


def _check_env_modes():
    """A bad ``REPRO_FASTPATH``/``REPRO_ENGINE`` value, as an error line.

    Checked once at entry, before any work, so a misspelt mode ends in
    one line and exit 2 instead of a traceback from deep inside a run.
    Returns ``None`` when both are valid.
    """
    from repro.analysis.fastpath import FASTPATH_ENV, resolve_fastpath_mode
    from repro.models.fastengine import ENGINE_ENV, resolve_engine_mode

    for env, resolve in (
        (FASTPATH_ENV, resolve_fastpath_mode),
        (ENGINE_ENV, resolve_engine_mode),
    ):
        try:
            resolve()
        except ValueError as exc:
            return "{}: {}".format(env, exc)
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.log is not None or args.log_json:
        from repro.obs.log import configure

        configure(
            spec=args.log,
            json_lines=True if args.log_json else None,
        )
    env_error = _check_env_modes()
    if env_error is not None:
        print("error: {}".format(env_error), file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args) or 0
    except (UnknownWorkloadError, UnknownModelError) as exc:
        # user typo'd a name: one line, exit 2, no traceback
        message = exc.args[0] if exc.args else str(exc)
        print("error: {}".format(message), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
