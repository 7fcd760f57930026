"""The operations behind ``repro <op>``, ``repro client <op>`` and the
daemon's ``POST /v1/<op>``.

:data:`OPS` declares each operation once: its function and its
parameters.  The daemon normalizes request bodies against the
parameters (:func:`repro.serve.handlers.normalize_params`), and
``repro client`` builds one subcommand per row from them.  Each
function takes those parameters plus an optional warm
:class:`~repro.experiments.common.ExperimentContext` and returns
``(payload, stats)``: the ``repro <op> --json`` payload, and the
:class:`~repro.sim.stats.RunStats` it was derived from (a list, for
``compare``).  Generated reports are self-checked against their schema
before they are returned.

Only the roster and the tier modes are imported here, so the parser
and the thin client read the table without loading a pipeline.
"""

from typing import NamedTuple

from repro.experiments.common import MODEL_ALIASES, STANDARD_MODELS
from repro.modes import ENGINE_MODES, MODE_ALIASES

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
MODEL_CHOICES = tuple(MODEL_NAMES + sorted(MODEL_ALIASES))

#: ``--engine`` values: canonical modes plus the aliases
#: :func:`repro.modes.resolve_engine_mode` accepts
ENGINE_CHOICES = ENGINE_MODES + tuple(MODE_ALIASES)


def _context(context):
    if context is not None:
        return context
    from repro.experiments.common import ExperimentContext

    return ExperimentContext()


def _journaled(context, app, model):
    """One journaled run on the context's plan: ``(stats, journal)``."""
    from repro.obs.journal import JournalRecorder

    journal = JournalRecorder()
    return context.simulate(app, model, journal=journal), journal


def run(workload, model="consumer3", engine=None, journal=False,
        tb_records=False, context=None):
    """One model's RunStats; ``journal`` adds the run's journal digest."""
    from repro.obs.report import run_stats_dict

    context = _context(context)
    app = context.app(workload)
    if engine is None:
        stats = context.run_model(app, model)
    else:
        stats = context.simulate(app, model, engine=engine)
    payload = run_stats_dict(stats, include_tb_records=tb_records)
    if journal:
        _stats, recorder = _journaled(context, app, model)
        payload["journal"] = {
            "digest": recorder.digest(),
            "num_events": len(recorder.events),
        }
    return payload, stats


def compare(workload, context=None):
    """Every roster model on one workload, with speedups over baseline."""
    from repro.obs.report import run_stats_dict

    context = _context(context)
    app = context.app(workload)
    runs = [context.run_model(app, name) for name in MODEL_NAMES]
    baseline = runs[0]
    payload = {
        "workload": baseline.application,
        "baseline": baseline.model,
        "runs": [
            dict(run_stats_dict(stats), speedup=stats.speedup_over(baseline))
            for stats in runs
        ],
    }
    return payload, runs


def critpath(workload, model="consumer3", whatif=False, context=None):
    """The critical-path report; ``whatif`` adds the speedup bounds."""
    from repro.obs import critpath as cp

    context = _context(context)
    stats, journal = _journaled(context, context.app(workload), model)
    return cp.checked_report(stats, journal, whatif=whatif), stats


def telemetry(workload, model="consumer3", context=None):
    """The hardware telemetry report."""
    from repro.obs import telemetry as tm

    context = _context(context)
    stats, journal = _journaled(context, context.app(workload), model)
    return tm.checked_report(stats, journal), stats


#: a parameter with no default: the request must carry it
REQUIRED = object()


class Param(NamedTuple):
    """One operation parameter: a JSON string or boolean."""

    name: str
    type: type
    default: object = REQUIRED
    choices: tuple = None
    help: str = None


class Op(NamedTuple):
    """One operation: its function, help text and parameters."""

    function: object
    help: str
    params: tuple


_WORKLOAD = Param("workload", str)
_MODEL = Param("model", str, "consumer3", MODEL_CHOICES)

#: op name -> its function and parameters; the one declaration
OPS = {
    "run": Op(run, "simulate one workload", (
        _WORKLOAD,
        _MODEL,
        Param("engine", str, None, ENGINE_CHOICES,
              "pin the daemon's simulation-engine tier for this request"),
        Param("journal", bool, False,
              help="include the run's journal digest in the response"),
        Param("tb_records", bool, False,
              help="include per-thread-block records in the response"),
    )),
    "compare": Op(compare, "all roster models on one workload", (
        _WORKLOAD,
    )),
    "critpath": Op(critpath, "critical-path report for one workload", (
        _WORKLOAD,
        _MODEL,
        Param("whatif", bool, False,
              help="also report what-if speedup bounds"),
    )),
    "telemetry": Op(telemetry, "telemetry report for one workload", (
        _WORKLOAD,
        _MODEL,
    )),
}
