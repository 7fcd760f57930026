"""Child-process side of the benchmark; ``loads.py`` spawns it.

    python3 benchmarks/e2e/child.py sweep ORDER [--trace]
    python3 benchmarks/e2e/child.py cli WORKLOAD [--trace]
    python3 benchmarks/e2e/child.py import [MODULE]

``sweep`` is the paper's Fig. 9 reproduction: ``fig09_speedup.run`` on
a fresh ``ExperimentContext`` over the comma-separated registry
workloads in ORDER.  ``cli`` is what ``python -m repro run WORKLOAD
--model consumer3 --json -`` does: ``repro.cli.main`` on those
arguments, its output on standard output.  ``import`` imports MODULE
(nothing without one) in a fresh interpreter.

Each runs under a ``pace.Pacer`` from its first statement, so the
parent gets the child's time in reference seconds, and prints one JSON
line last: the pacer's report at the point the parent times to, the
outputs to check, and with ``--trace`` the exported spans and counters.
"""

import time

T_MAIN = time.monotonic()

import json  # noqa: E402 - T_MAIN must be taken first
import sys  # noqa: E402

import pace  # noqa: E402

CLI_MODEL = "consumer3"


def _tracer(traced, serialize=False):
    if not traced:
        return None, (lambda: None)
    import layers

    tracer = layers.SpanTracer()
    return tracer, layers.install(tracer, serialize=serialize)


def _export(tracer, pacer):
    if tracer is None:
        return None
    for start, end in pacer.ticks:
        tracer.add("bench.pace", start, end)
    return tracer.export()


def sweep(pacer, order, traced):
    start = time.monotonic()
    from repro.experiments import fig09_speedup
    from repro.experiments.common import STANDARD_MODELS, ExperimentContext

    imported = time.monotonic()
    tracer, uninstall = _tracer(traced)
    ctx = ExperimentContext()
    if tracer:
        tracer.add("cli.import", start, imported)
        with tracer.span("experiments.fig09"):
            rows = fig09_speedup.run(ctx, benchmarks=order)
    else:
        rows = fig09_speedup.run(ctx, benchmarks=order)
    ready = pacer.report()
    uninstall()
    import checks

    signatures = {}
    for name in order:
        app = ctx.app(name)
        for model, *_ in STANDARD_MODELS:
            stats = ctx.run_model(app, model)
            signatures[checks.cell(name, model)] = checks.digest(
                stats.simulated_signature()
            )
    return {
        "t_main": T_MAIN,
        "ready": ready,
        "geomean": rows[-1],
        "signatures": signatures,
        "trace": _export(tracer, pacer),
    }


def cli(pacer, workload, traced):
    start = time.monotonic()
    import repro.cli

    imported = time.monotonic()
    tracer, uninstall = _tracer(traced, serialize=True)
    argv = ["run", workload, "--model", CLI_MODEL, "--json", "-"]
    try:
        if tracer:
            tracer.add("cli.import", start, imported)
            with tracer.span("cli.main", args={"workload": workload}):
                code = repro.cli.main(argv)
        else:
            code = repro.cli.main(argv)
    finally:
        uninstall()
    sys.stdout.flush()
    return {"t_main": T_MAIN, "code": code, "done": pacer.report(),
            "trace": _export(tracer, pacer)}


def import_module(pacer, module):
    if module:
        __import__(module)
    return {"t_main": T_MAIN, "done": pacer.report()}


def main(argv):
    traced = "--trace" in argv[2:]
    with pace.Pacer() as pacer:
        if len(argv) >= 2 and argv[0] == "sweep":
            payload = sweep(pacer, argv[1].split(","), traced)
        elif len(argv) >= 2 and argv[0] == "cli":
            payload = cli(pacer, argv[1], traced)
        elif len(argv) <= 2 and argv[:1] == ["import"]:
            payload = import_module(pacer, argv[1] if len(argv) == 2 else None)
        else:
            print("usage: child.py sweep ORDER [--trace] | cli WORKLOAD [--trace]"
                  " | import [MODULE]", file=sys.stderr)
            return 2
    print("\n" + json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
