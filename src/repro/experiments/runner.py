"""Run every experiment and print (or save) all paper artifacts.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner fig09 tab3 # selected
    python -m repro.experiments.runner --out reports/   # + JSON artifacts

``--output FILE`` captures the text tables; ``--out DIR`` additionally
writes one machine-readable JSON report per experiment
(``DIR/<name>.json``, schema in :mod:`repro.obs.report`) so benchmark
trajectories can be recorded and diffed across commits.

``--jobs N`` runs independent experiments on a process pool
(:class:`~repro.parallel.SuiteExecutor`).  Each worker builds its own
:class:`~repro.experiments.common.ExperimentContext`; text and JSON
artifacts are emitted by the parent in registry order, so the output is
byte-identical to a serial run (modulo the wall-clock ``elapsed_s``
field and the ``[... finished in Ns]`` footers).
"""

import sys
import time

from repro.obs.log import Heartbeat
from repro.obs.report import write_experiment_report
from repro.parallel import SuiteExecutor

from repro.experiments import common
from repro.experiments import (
    fig09_speedup,
    fig10_concurrency,
    fig11_stalls,
    fig12_interconnectivity,
    fig13_memory_overhead,
    fig14_comparison,
    pattern_census,
    streams_study,
    table1_overhead,
    table2_benchmarks,
    table3_storage,
)

EXPERIMENTS = {
    "fig09": fig09_speedup,
    "fig10": fig10_concurrency,
    "fig11": fig11_stalls,
    "fig12": fig12_interconnectivity,
    "fig13": fig13_memory_overhead,
    "fig14": fig14_comparison,
    "tab1": table1_overhead,
    "tab2": table2_benchmarks,
    "tab3": table3_storage,
    "streams": streams_study,
    "census": pattern_census,
}

#: experiments that accept the shared ExperimentContext
_CTX_AWARE = {"fig09", "fig10", "fig11", "fig13", "tab2", "tab3", "census"}


def _run_one(name, ctx=None):
    """Run one experiment; returns ``(rows, elapsed_s)``.

    Doubles as the ``--jobs`` worker body (``ctx=None`` builds a fresh
    context), so it must stay module-level and picklable.
    """
    module = EXPERIMENTS[name]
    if ctx is None:
        ctx = common.ExperimentContext()
    start = time.time()
    if name in _CTX_AWARE:
        rows = module.run(ctx)
    elif name in ("fig12", "fig14"):
        rows = module.run(common.ExperimentContext(gpu_config=ctx.gpu_config))
    else:
        rows = module.run()
    return rows, time.time() - start


def _run_one_task(name):
    return _run_one(name)


def run_all(names=None, stream=None, out_dir=None, jobs=1,
            status_file=None):
    # resolved per call: a default bound at import would keep writing
    # to whatever sys.stdout was then, even after it is replaced
    stream = sys.stdout if stream is None else stream
    names = list(names or EXPERIMENTS)
    results = {}
    heartbeat = Heartbeat(
        len(names), phase="experiments", status_path=status_file
    )
    try:
        if jobs > 1:
            executor = SuiteExecutor(
                jobs=jobs,
                on_result=lambda result: heartbeat.advance(
                    current=names[result.index]
                ),
            )
            produced = executor.map(_run_one_task, names)
        else:
            # serial: one shared context keeps plans/runs memoized across
            # experiments (the pre---jobs behavior, bit for bit)
            ctx = common.ExperimentContext()
            produced = None
        for index, name in enumerate(names):
            if produced is not None:
                rows, elapsed = produced[index]
            else:
                rows, elapsed = _run_one(name, ctx)
                heartbeat.advance(current=name)
            module = EXPERIMENTS[name]
            results[name] = rows
            stream.write(module.format_rows(rows))
            stream.write("\n[{} finished in {:.1f}s]\n\n".format(name, elapsed))
            stream.flush()
            if out_dir:
                path = write_experiment_report(out_dir, name, rows, elapsed)
                stream.write("[report: {}]\n".format(path))
    finally:
        heartbeat.finish()
    return results


def _pop_flag(argv, flag):
    if flag not in argv:
        return None
    idx = argv.index(flag)
    try:
        value = argv[idx + 1]
    except IndexError:
        raise SystemExit("{} requires a path".format(flag))
    del argv[idx : idx + 2]
    return value


def main(argv=None):
    argv = list(argv if argv is not None else sys.argv[1:])
    output_path = _pop_flag(argv, "--output")
    out_dir = _pop_flag(argv, "--out")
    status_file = _pop_flag(argv, "--status-file")
    jobs_value = _pop_flag(argv, "--jobs")
    try:
        jobs = int(jobs_value) if jobs_value is not None else 1
    except ValueError:
        raise SystemExit("--jobs requires an integer, got {!r}".format(jobs_value))
    unknown = [a for a in argv if a not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            "unknown experiments {}; available: {}".format(
                unknown, ", ".join(EXPERIMENTS)
            )
        )
    if output_path:
        with open(output_path, "w") as handle:
            run_all(argv or None, stream=handle, out_dir=out_dir, jobs=jobs,
                    status_file=status_file)
        print("wrote", output_path)
    else:
        run_all(argv or None, out_dir=out_dir, jobs=jobs,
                status_file=status_file)


if __name__ == "__main__":
    main()
