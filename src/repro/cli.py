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
* ``serve [--host H --port P]``     — long-running simulation daemon:
                                      the run/compare/critpath/
                                      telemetry operations over
                                      HTTP/JSON with warm state,
                                      request coalescing, ``/metrics``,
                                      ``/healthz``, ``/statusz``,
                                      ``/events`` (``docs/serving.md``)
* ``client <cmd> [--url URL]``      — thin client for the daemon:
                                      ``run``/``compare``/``critpath``/
                                      ``telemetry`` plus
                                      ``health``/``status``/``version``/
                                      ``metrics``/``events``/``shutdown``
* ``fuzz [--count N] [--seed S]``   — differential fuzzing: seeded
                                      generator corpus, every
                                      ``REPRO_FASTPATH`` mode and every
                                      ``REPRO_ENGINE`` tier vs the
                                      scalar oracles, minimized repro
                                      files on divergence; exit 1 on
                                      any divergence
                                      (``docs/fuzzing.md``)

``run`` accepts ``--engine MODE`` to pin the simulation-engine tier
(``auto`` | ``reference``) for the invocation, over
``REPRO_ENGINE``.

``run``, ``compare``, ``critpath`` and ``telemetry`` are the operations
of :mod:`repro.ops`, which the daemon serves and ``repro client``
calls.

Model names accept the roster (``baseline``, ``ideal``, ``prelaunch``,
``producer``, ``consumer2``..``consumer4``) plus the ``blockmaestro``
alias for the headline consumer/window-3 configuration.  Unknown
workload or model names exit with code 2 and a one-line message.

``fuzz`` accepts ``--jobs N`` to check its cases on worker processes;
``compare`` and ``experiments`` run serially on one shared context.
``serve`` accepts ``--cache`` / ``--cache-dir DIR`` to persist
launch-time analysis across runs.  See ``docs/parallelism.md``.
Wall-clock benchmarking lives outside the CLI, in ``benchmarks/e2e``
(``docs/benchmarking.md``).

``repro --version`` prints the package version plus every report
schema version this build emits (critpath, fuzz, fuzz_case, jdiff,
journal, serve, status, telemetry); the ``serve`` entry is the
client/daemon handshake token.
"""

import argparse
import os
import sys

# Only what build_parser and the env-mode check read is imported here;
# each cmd_* imports the modules it runs, so a command loads no pipeline
# it does not execute.
from repro.modes import (
    ENGINE_ENV,
    FASTPATH_ENV,
    resolve_engine_mode,
    resolve_fastpath_mode,
)
from repro.ops import ENGINE_CHOICES, MODEL_CHOICES, OPS, REQUIRED


def _int_at_least(text, minimum):
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(
            "must be >= {} (got {})".format(minimum, value)
        )
    return value


def non_negative_int(text):
    """argparse type for a count that may be zero (``--limit``,
    ``dot --pair``)."""
    return _int_at_least(text, 0)


def positive_int(text):
    """argparse type for a count of at least one (``--window``,
    ``--width``, ``--jobs``)."""
    return _int_at_least(text, 1)


def cmd_list(args):
    from repro.experiments.common import format_table
    from repro.workloads import all_workloads

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
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import format_table
    from repro.workloads import get_workload

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
    from repro.obs.report import dump_json

    dump_json(payload, destination)
    if destination != "-":
        print("wrote", destination)


def cmd_run(args):
    from repro import ops

    payload, stats = ops.run(
        args.workload, args.model, engine=args.engine,
        tb_records=args.tb_records,
    )
    if args.json == "-":
        _emit_json(payload, "-")
        return
    from repro.sim.timeline import render_kernel_timeline

    print(render_kernel_timeline(stats, width=args.width))
    print()
    print("model     :", stats.model)
    print("makespan  : {:.1f} us".format(stats.makespan_ns / 1000))
    print("concurrency: {:.1f} avg thread blocks".format(stats.avg_tb_concurrency()))
    q1, med, q3 = stats.stall_quartiles()
    print("stalls    : q1={:.2f} median={:.2f} q3={:.2f}".format(q1, med, q3))
    if args.json:
        _emit_json(payload, args.json)


def cmd_compare(args):
    from repro import ops
    from repro.experiments.common import format_table

    payload, runs = ops.compare(args.workload)
    baseline = runs[0]
    if args.json:
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
            title="Model comparison: {}".format(payload["workload"]),
        )
    )
    if args.timelines:
        from repro.sim.timeline import compare_timelines

        print()
        print(compare_timelines(runs[:1] + runs[2:], width=args.width))


def _traced_run(workload, model_name, per_sm=False, journal=None):
    """Build, plan, and simulate one workload under full observation.

    Returns ``(app, stats, tracer, metrics)`` — shared by ``trace`` and
    ``blame``; ``journal`` optionally records the run for the
    critical-path and telemetry overlays.  The context's runtime
    carries the tracer and the registry, so they see the build and the
    plan as well as the run.
    """
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import ExperimentContext
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer(per_sm_counters=per_sm)
    metrics = MetricsRegistry()
    context = ExperimentContext(
        runtime=BlockMaestroRuntime(tracer=tracer, metrics=metrics)
    )
    app = context.app(workload)
    stats = context.simulate(
        app, model_name, journal=journal, tracer=tracer, metrics=metrics
    )
    return app, stats, tracer, metrics


def cmd_trace(args):
    from repro.obs.report import write_text

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

        tm.emit_telemetry_counters(tracer, tm.checked_report(stats, journal))
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
    from repro.obs.report import format_blame, write_text

    _app, stats, tracer, _metrics = _traced_run(args.workload, args.model)
    if args.json:
        from repro.obs.report import blame_payload

        _emit_json(blame_payload(stats, tracer=tracer, limit=args.limit), args.json)
        if args.json == "-":
            return
    write_text(format_blame(stats, tracer=tracer, limit=args.limit), args.out)


def cmd_critpath(args):
    from repro import ops
    from repro.obs import critpath as cp

    report, _stats = ops.critpath(args.workload, args.model, args.whatif)
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return
    print(cp.format_critpath(report, limit=args.limit))


def cmd_journal(args):
    from repro.obs import journal as jr
    from repro.schema import assert_valid

    recorder, stats = jr.record_run(args.workload, args.model)
    assert_valid(
        "recorded journal",
        jr.validate_journal(recorder.header(), recorder.events),
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
    from repro import ops
    from repro.obs import telemetry as tm
    from repro.obs.report import write_text

    report, _stats = ops.telemetry(args.workload, args.model)
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
        args.workload, args.model, out=args.out
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
    from repro.schema import assert_valid

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
    assert_valid("generated jdiff report", jd.validate_jdiff_report(report))
    exit_code = 0 if report["identical"] else 1
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return exit_code
    print(jd.format_jdiff(report))
    return exit_code


def cmd_dot(args):
    from repro.core.runtime import BlockMaestroRuntime
    from repro.workloads import get_workload

    app = get_workload(args.workload).build()
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=3)
    kernels = [kp for kp in plan.kernels if kp.encoded is not None]
    if not kernels:
        raise SystemExit("workload has no dependent kernel pairs")
    if args.pair >= len(kernels):
        print(
            "error: --pair {} is out of range: {} has {} dependent kernel "
            "pairs (0..{})".format(
                args.pair, app.name, len(kernels), len(kernels) - 1
            ),
            file=sys.stderr,
        )
        return 2
    kp = kernels[args.pair]
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
    from repro.core.policy import SchedulingPolicy
    from repro.core.runtime import BlockMaestroRuntime
    from repro.models import BlockMaestroModel
    from repro.sim.funcsim import FunctionalSimulator, schedule_from_stats
    from repro.workloads import get_workload

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
        )
        return asyncio.run(server.run(announce=print))
    except ServeStartupError as exc:
        # port in use / unresolvable host: one line, exit 2, no traceback
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


#: ``repro client`` commands that print one GET/POST answer as JSON
_CLIENT_REQUESTS = {
    "health": "health",
    "status": "statusz",
    "version": "version",
    "workloads": "workloads",
    "shutdown": "shutdown",
}


def cmd_client(args):
    from repro.serve.client import ClientError, ServeClient

    command = args.client_command
    try:
        client = ServeClient(args.url)
        if command in OPS:
            payload = client.call(command, **{
                param.name: getattr(args, param.name)
                for param in OPS[command].params
            })
        elif command == "metrics":
            print(client.metrics(), end="")
            return 0
        elif command == "events":
            from repro.obs.report import dump_json

            for event in client.events(max_events=args.count):
                dump_json(event, "-")
            return 0
        else:
            payload = getattr(client, _CLIENT_REQUESTS[command])()
    except ClientError as exc:
        # daemon down / refused / bad URL / schema mismatch: one line,
        # exit 2
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    _emit_json(payload, "-")
    return 0


def cmd_fuzz(args):
    from repro import fuzz
    from repro.obs.log import get_logger
    from repro.schema import assert_valid

    try:
        config = fuzz.resolve_fuzz_config(
            count=args.count,
            seed=args.seed,
            model=args.model,
            jobs=args.jobs,
            out_dir=args.out,
            shrink=not args.no_shrink,
        )
    except ValueError as exc:
        # bad count/seed: one line, exit 2, like unknown names
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    report = fuzz.run_fuzz(config, log=get_logger("fuzz").info)
    assert_valid("generated fuzz report", fuzz.validate_fuzz_report(report))
    exit_code = 1 if report["num_divergent"] else 0
    if args.json:
        _emit_json(report, args.json)
        if args.json == "-":
            return exit_code
    print(fuzz.format_fuzz(report))
    return exit_code


def cmd_experiments(args):
    from repro.experiments import runner

    for name in args.names:
        if name not in runner.EXPERIMENTS:
            print(
                "error: unknown experiment {!r}; available: {}".format(
                    name, ", ".join(runner.EXPERIMENTS)
                ),
                file=sys.stderr,
            )
            return 2
    runner.run_all(
        args.names or None, out_dir=args.out, status_file=args.status_file
    )


def cmd_ablations(_args):
    from repro.experiments.ablations import ABLATIONS
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext()
    for run_fn, format_fn in ABLATIONS.values():
        print(format_fn(run_fn(ctx)))
        print()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="BlockMaestro reproduction toolkit"
    )
    parser.add_argument(
        "--log", default=None, metavar="LEVEL",
        help="stderr log threshold: debug, info (default), warning, "
             "error or off; overrides $REPRO_LOG",
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
    p_run.add_argument("--width", type=positive_int, default=72)
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
    p_compare.add_argument("--timelines", action="store_true")
    p_compare.add_argument("--width", type=positive_int, default=72)
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
             "journal",
    )
    p_report.add_argument("workload")
    p_report.add_argument(
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_report.add_argument(
        "--out", default=None, metavar="FILE",
        help="report path (default: flight-<workload>-<model>.html)",
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
        "--model", choices=MODEL_CHOICES, default="consumer3"
    )
    p_fuzz.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
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
        "--status-file", default=None, metavar="FILE",
        help="atomically rewrite a JSON progress snapshot here after "
             "every experiment (also $REPRO_STATUS_FILE)",
    )

    p_dot = sub.add_parser("dot", help="Graphviz DOT of a kernel-pair graph")
    p_dot.add_argument("workload")
    p_dot.add_argument("--pair", type=non_negative_int, default=0)
    p_dot.add_argument("--max-nodes", type=positive_int, default=32)

    p_val = sub.add_parser(
        "validate", help="functional replay check on a scaled-down workload"
    )
    p_val.add_argument("workload")
    p_val.add_argument("--window", type=positive_int, default=3)

    sub.add_parser("ablations", help="design-choice sweeps")

    from repro.serve import DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve",
        help="long-running simulation daemon: run/compare/critpath/"
             "telemetry over HTTP with request coalescing, "
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
        "--status-file", default=None, metavar="FILE",
        help="atomically rewrite a repro-status JSON snapshot here on "
             "every heartbeat (same schema as experiments --status-file)",
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

    for name, op in OPS.items():
        c_op = client_sub.add_parser(name, help=op.help)
        for param in op.params:
            if param.default is REQUIRED:
                c_op.add_argument(param.name, help=param.help)
                continue
            flag = "--" + param.name.replace("_", "-")
            if param.type is bool:
                c_op.add_argument(flag, action="store_true", help=param.help)
            else:
                c_op.add_argument(
                    flag, choices=param.choices, default=param.default,
                    help=param.help,
                )

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
        "--count", type=positive_int, default=None, metavar="N",
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
    "serve": cmd_serve,
    "client": cmd_client,
}


def _check_env_modes():
    """A bad ``REPRO_FASTPATH``/``REPRO_ENGINE`` value, as an error line.

    Checked once at entry, before any work, so a misspelt mode ends in
    one line and exit 2 instead of a traceback from deep inside a run.
    Returns ``None`` when both are valid.
    """
    for env, resolve in (
        (FASTPATH_ENV, resolve_fastpath_mode),
        (ENGINE_ENV, resolve_engine_mode),
    ):
        try:
            resolve()
        except ValueError as exc:
            return "{}: {}".format(env, exc)
    return None


def _configure_logging(args):
    """Apply ``--log``/``--log-json``; an unknown level, as an error line.

    The level is ``--log`` or else ``REPRO_LOG``.  Like
    :func:`_check_env_modes`, it is checked once at entry, so a misspelt
    level ends in one line and exit 2.  Returns ``None`` when it is
    valid; with neither set, logging keeps its defaults and
    :mod:`repro.obs.log` is not imported.
    """
    if args.log is not None:
        level, source = args.log, "--log"
    else:
        level, source = os.environ.get("REPRO_LOG"), "REPRO_LOG"
    if level is None and not args.log_json:
        return None
    from repro.obs.log import configure

    try:
        configure(level=level, json_lines=True if args.log_json else None)
    except ValueError as exc:
        return "{}: {}".format(source, exc)
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    env_error = _configure_logging(args) or _check_env_modes()
    if env_error is not None:
        print("error: {}".format(env_error), file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](args) or 0
    except KeyError as exc:
        from repro.experiments.common import UnknownModelError
        from repro.workloads.registry import UnknownWorkloadError

        if not isinstance(exc, (UnknownWorkloadError, UnknownModelError)):
            raise
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
    except OSError as exc:
        from repro.obs.report import WriteError

        if not isinstance(exc, WriteError):
            raise
        # an output path that cannot be written: one line, exit 2
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except Exception as exc:
        from repro.ptx.errors import PTXError

        if not isinstance(exc, PTXError):
            raise
        # a workload's kernel source is malformed: one line, exit 2
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
