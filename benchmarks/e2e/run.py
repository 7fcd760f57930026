#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the BlockMaestro reproduction.

Run from the repository root (no install needed; ``src/`` is put on
the path):

    python3 benchmarks/e2e/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py                       # every workload, seed 0
    python3 benchmarks/e2e/run.py --trace --out t.json  # per-layer run
    python3 benchmarks/e2e/run.py --runs 10 --out set.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write-golden

One run measures one workload for ``--seconds`` after its set-up,
checks every output against ``golden.json`` and prints a report.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
``per_layer`` metrics with ``--trace 1``.  Several workloads or
``--runs`` run each (workload, seed) in a fresh process and end with
one line whose metric names are ``<metric>@<workload>`` (medians over
seeds).  See README.md for what each metric means on each workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SET_KIND = "repro-e2e-bench-set"

#: layers whose self time the traced report splits by registry workload
SPLIT_LAYERS = ("workloads.build", "analysis.analyze", "analysis.graphs",
                "core.plan", "models.run")


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(measured):
    import loads

    latencies = measured.latencies_ms
    return {
        "setup_s": (statistics.median(measured.setup_s), "s"),
        "latency_p50_ms": (loads.percentile(latencies, 0.5), "ms"),
        "latency_tail_ms": (
            loads.percentile(latencies, loads.tail_q(len(latencies))), "ms"),
        "throughput_per_s": (measured.throughput, "1/s"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer, spans, probes, overhead_pct):
    import layers
    import loads

    totals = layers.layer_totals(spans)
    counters = tracer.counters

    def self_s(layer):
        return totals.get(layer, (0.0, 0))[0]

    def durations_s(match):
        return [span.event["dur"] / 1e6 for span in spans if match(span.event["name"])]

    analyzed = counters.get("plan.kernels_analyzed", 0.0)
    memo_hits = counters.get("plan.analysis_cache_hits", 0.0)
    run_s = self_s("models.run")
    tbs = counters.get("models.tbs", 0.0)
    serialize_ms = [s * 1e3 for s in durations_s(lambda name: name == "obs.serialize")]
    values = {
        "cli.interp_ms": (probes["interp_ms"], "ms"),
        "cli.import_ms": (probes["import_ms"], "ms"),
        "workloads.build_s": (self_s("workloads.build"), "s"),
        "analysis.analyze_s": (self_s("analysis.analyze"), "s"),
        "analysis.graphs_s": (self_s("analysis.graphs"), "s"),
        "analysis.kernels_analyzed": (analyzed, "count"),
        "analysis.memo_hit_ratio": (
            memo_hits / (memo_hits + analyzed) if analyzed + memo_hits else 0.0,
            "ratio"),
        "core.plan_s": (sum(durations_s(lambda name: name.startswith("plan:"))), "s"),
        "core.plan_other_s": (self_s("core.plan"), "s"),
        "models.run_s": (run_s, "s"),
        "models.ns_per_tb": (run_s * 1e9 / tbs if tbs else 0.0, "ns"),
        "obs.serialize_ms": (loads.percentile(serialize_ms, 0.5), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for tier in ("closed_form", "vectorized", "reference"):
        values["analysis.fastpath." + tier] = (
            counters.get("analysis.fastpath." + tier, 0.0), "count")
        values["models.tier." + tier] = (
            counters.get("engine.tier." + tier, 0.0), "count")
    values["models.fallback.fine_grain_graph"] = (
        counters.get("engine.fallback.fine_grain_graph", 0.0), "count")
    return values


def select(values, declared):
    """The metrics ``BENCHMARK.json`` declares, in its order, with their units."""
    out = {}
    for entry in declared:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError("metric {} measured in {}, declared in {}".format(
                entry["name"], unit, entry["unit"]))
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_one(workload, seed, seconds, trace, smoke, golden, spec):
    import loads

    setups = 1 if smoke or trace else 3
    if smoke:
        seconds = min(seconds, 1.0)
    job = loads.Job(seed=seed, seconds=seconds / 2 if trace else seconds,
                    golden=golden, smoke=smoke, setups=setups)
    measure = loads.WORKLOADS[workload]
    if trace:
        import layers

        job.tracer = tracer = layers.SpanTracer()
        uninstall = layers.install(tracer)
        try:
            measured = measure(job)
        finally:
            uninstall()
    else:
        measured = measure(job)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "samples": len(measured.latencies_ms),
        "tail_q": loads.tail_q(len(measured.latencies_ms)),
        "extra": dict(measured.extra,
                      wall_p50_ms=loads.percentile(measured.wall_ms, 0.5)),
    }
    attempted, failed = measured.attempted, measured.failed
    failures = list(measured.failures)
    if trace:
        # the same workload again, untraced, for the tracing overhead
        job.tracer = None
        reference = measure(job)
        attempted += reference.attempted
        failed += reference.failed
        failures += reference.failures
        overhead = 100.0 * (loads.percentile(measured.latencies_ms, 0.5)
                            / loads.percentile(reference.latencies_ms, 0.5) - 1.0)
        interp = [loads.import_probe_s()[0] * 1e3 for _ in range(3)]
        imports = [loads.import_probe_s("repro.cli")[0] * 1e3 for _ in range(3)]
        probes = {
            "interp_ms": statistics.median(interp),
            "import_ms": statistics.median(imports) - statistics.median(interp),
        }
        spans = layers.analyse(tracer)
        values = per_layer_metrics(tracer, spans, probes, overhead)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        result["blame"] = {
            name: {"self_s": own, "calls": calls}
            for name, (own, calls) in layers.layer_totals(spans).items()
        }
        result["split"] = {
            layer: per for layer, per in layers.layer_split(spans).items()
            if layer in SPLIT_LAYERS
        }
        result["traced_op_s"] = layers.op_seconds(spans)
        os.makedirs(loads.OUT_DIR, exist_ok=True)
        trace_path = tracer.write(os.path.join(
            loads.OUT_DIR, "trace-{}-seed{}.json".format(workload, seed)))
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(measured)
        declared = spec["end_to_end"]
    result.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": select(values, declared),
    })
    return result


def print_report(result):
    mode = "traced" if result["trace"] else "untraced"
    print("== {} (seed {}, {:g} s, {}{}) ==".format(
        result["workload"], result["seed"], result["seconds"], mode,
        ", smoke" if result["smoke"] else ""))
    for name, metric in result["metrics"].items():
        print("  {:<32} {:>14.4f} {}".format(name, metric["value"], metric["unit"]))
    print("  samples: {}  tail: p{:g}  extra: {}".format(
        result["samples"], round(100 * result["tail_q"], 1),
        ", ".join("{}={}".format(k, _short(v)) for k, v in sorted(result["extra"].items()))))
    if "blame" in result:
        import layers

        totals = {k: (v["self_s"], v["calls"]) for k, v in result["blame"].items()}
        wall = result["traced_op_s"]
        print("  -- blame: layer self time, largest first --")
        for line in layers.format_blame(totals, wall):
            print(line)
        print("  self times sum to {:.3f} s of {:.3f} s traced operation time".format(
            sum(own for own, _ in totals.values()), wall))
        print("  tracing overhead: {:+.1f}% on latency p50".format(
            result["layers"]["trace.overhead_pct"]["value"]))
        print("  -- per registry workload (top 3 per layer) --")
        for layer in SPLIT_LAYERS:
            per = result["split"].get(layer)
            if not per:
                continue
            total = sum(per.values())
            top = sorted(per.items(), key=lambda kv: -kv[1])[:3]
            print("    {:<18} {:8.3f}s  {}".format(layer, total, "  ".join(
                "{} {:.3f}s ({:.0%})".format(name, secs, secs / total if total else 0)
                for name, secs in top)))
        print("  trace: {}".format(result["trace_file"]))
    status = "ok" if result["correct"] else "FAILED"
    print("  checks: {}/{} {}".format(
        result["attempted"] - result["failed"], result["attempted"], status))
    for failure in result["failures"]:
        print("    mismatch: {}".format(failure))


def _short(value):
    return "{:.4g}".format(value) if isinstance(value, float) else value


def result_line(result):
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# sets of runs and their comparison
# ----------------------------------------------------------------------
def host_info():
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def run_many(workloads, seeds, args):
    """Each (workload, seed) in a fresh process, as a single run would be."""
    import loads

    os.makedirs(loads.OUT_DIR, exist_ok=True)
    results = []
    for workload in workloads:
        for seed in seeds:
            out = os.path.join(loads.OUT_DIR, "run-{}-{}.json".format(workload, seed))
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", out] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                       timeout=900, check=False)
            print(completed.stdout, end="", flush=True)
            if completed.returncode != 0:
                raise RuntimeError("run {} seed {} exited {}".format(
                    workload, seed, completed.returncode))
            with open(out) as handle:
                results.extend(json.load(handle)["runs"])
            os.remove(out)
    return results


def aggregate_line(results):
    by_metric = {}
    units = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = "{}@{}".format(name, result["workload"])
            by_metric.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            key: {"value": statistics.median(values), "unit": units[key]}
            for key, values in by_metric.items()
        },
    })


def write_set(path, results, args):
    payload = {
        "kind": SET_KIND,
        "schema_version": 1,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "config": {"seconds": args.seconds, "trace": args.trace, "smoke": args.smoke},
        "runs": results,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, spec):
    """Per (metric, workload): each set's median and quartiles, and
    whether the medians agree within the metric's bound."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("kind") != SET_KIND:
            raise ValueError("{}: not a {} file".format(path, SET_KIND))
        sets.append(payload["runs"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    grouped = []
    for runs in sets:
        values = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
        grouped.append(values)
    print("{:<17} {:<18} {:>12} {:>21} {:>6} {:>12} {:>21} {:>6} {:>7} {:>6}  {}".format(
        "workload", "metric", "A median", "A q1..q3", "A iqr", "B median",
        "B q1..q3", "B iqr", "B/A-1", "bound", "agree"))
    disagreements = 0
    for key in sorted(set(grouped[0]) & set(grouped[1])):
        workload, name = key
        qa, qb = quartiles(grouped[0][key]), quartiles(grouped[1][key])
        bound = bounds.get(name)
        change = qb[1] / qa[1] - 1.0 if qa[1] else 0.0
        if bound is None:
            verdict = "n/a"
        elif abs(change) <= bound:
            verdict = "yes"
        else:
            verdict = "NO"
            disagreements += 1
        print("{:<17} {:<18} {:>12.4f} {:>10.4f}..{:<10.4f} {:>6.1%} {:>12.4f} "
              "{:>10.4f}..{:<10.4f} {:>6.1%} {:>+7.1%} {:>6}  {}".format(
                  workload, name, qa[1], qa[0], qa[2], _iqr(qa), qb[1], qb[0], qb[2],
                  _iqr(qb), change, "-" if bound is None else "{:.0%}".format(bound),
                  verdict))
    print("{} disagreement(s)".format(disagreements))
    return 1 if disagreements else 0


def _iqr(q):
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


# ----------------------------------------------------------------------
def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (0 or 1)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", help="write the runs as a JSON set file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two set files and exit")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json on the scalar oracles")
    return parser.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: {} holds no repro package; run from a full checkout".format(SRC),
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks

    if args.write_golden:
        cells = checks.write_golden()
        print("wrote {} ({} cells)".format(checks.GOLDEN_PATH, len(cells)))
        return 0
    golden = checks.load_golden()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seed, args.seed + max(1, args.runs)))
    if len(workloads) == 1 and len(seeds) == 1:
        results = [run_one(workloads[0], seeds[0], args.seconds, args.trace,
                           args.smoke, golden, spec)]
        print_report(results[0])
        final = result_line(results[0])
    else:
        results = run_many(workloads, seeds, args)
        final = aggregate_line(results)
    if args.out:
        write_set(args.out, results, args)
    print(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
