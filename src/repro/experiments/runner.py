"""Run the paper's experiments and print (or save) their artifacts.

``repro experiments [NAMES] [--out DIR] [--jobs N]`` is the command;
:func:`run_all` is its body.  Every experiment is called the same way,
``module.run(ctx)``, on one shared
:class:`~repro.experiments.common.ExperimentContext`, so apps, plans and
roster runs are built once for all of them.  ``--out DIR`` also writes
one machine-readable JSON report per experiment (``DIR/<name>.json``,
schema in :mod:`repro.obs.report`).

``--jobs N`` runs independent experiments on a process pool
(:class:`~repro.parallel.SuiteExecutor`).  Each worker builds its own
context; text and JSON artifacts are emitted by the parent in registry
order, so the output is byte-identical to a serial run (modulo the
wall-clock ``elapsed_s`` field and the ``[... finished in Ns]``
footers).
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


def _run_one(name, ctx=None):
    """Run one experiment; returns ``(rows, elapsed_s)``.

    Doubles as the ``--jobs`` worker body (``ctx=None`` builds a fresh
    context), so it must stay module-level and picklable.
    """
    if ctx is None:
        ctx = common.ExperimentContext()
    start = time.time()
    rows = EXPERIMENTS[name].run(ctx)
    return rows, time.time() - start


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
            produced = executor.map(_run_one, names)
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
