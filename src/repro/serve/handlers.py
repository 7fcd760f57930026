"""Endpoint computations for the serve daemon.

Each ``<endpoint>_result(state, params)`` function is a *blocking*
callable: the server dispatches it through the coalescer into the event
loop's thread executor.  All of them run the exact same code paths the
one-shot CLI commands run — ``/v1/run`` is
:meth:`ExperimentContext.run_model`, ``/v1/critpath`` is the
``repro critpath`` pipeline, and so on — so a daemon response is
byte-identical to the in-process CLI result for the same parameters
(the integration suite's differential gate).

Parameter handling happens *before* key derivation:
:func:`normalize_params` applies defaults, canonicalizes model aliases
(``blockmaestro`` -> ``consumer3``), validates names and types, and
rejects unknown fields — so two spellings of the same request share one
content-addressed key, and an invalid request fails fast with a
:class:`ServeRequestError` instead of poisoning the cache.
"""

from repro.experiments.common import (
    MODEL_ALIASES,
    STANDARD_MODELS,
    UnknownModelError,
    canonical_model_name,
)
from repro.workloads import UnknownWorkloadError, all_workloads, get_workload

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]


class ServeRequestError(ValueError):
    """A client-side request problem, mapped to an HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


#: endpoint -> {param: (type-check, default)}; ``REQUIRED`` = no default
REQUIRED = object()

_BOOL = ("boolean", lambda v: isinstance(v, bool))
_STR = ("string", lambda v: isinstance(v, str))
_INT = ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STR_LIST = (
    "list of strings",
    lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
)

PARAM_SPECS = {
    "run": {
        "workload": (_STR, REQUIRED),
        "model": (_STR, "consumer3"),
        "engine": (_STR, None),
        "journal": (_BOOL, False),
        "tb_records": (_BOOL, False),
    },
    "compare": {
        "workload": (_STR, REQUIRED),
    },
    "critpath": {
        "workload": (_STR, REQUIRED),
        "model": (_STR, "consumer3"),
        "whatif": (_BOOL, False),
    },
    "telemetry": {
        "workload": (_STR, REQUIRED),
        "model": (_STR, "consumer3"),
    },
    "bench": {
        "quick": (_BOOL, True),
        "models": (_STR_LIST, None),
        "filter": (_STR_LIST, None),
        "repeats": (_INT, None),
        "warmup": (_INT, None),
    },
}


def _validate_model(name):
    resolved = canonical_model_name(name)
    if resolved not in MODEL_NAMES:
        roster = ", ".join(MODEL_NAMES + sorted(MODEL_ALIASES))
        raise ServeRequestError(
            "unknown model {!r}; available: {}".format(name, roster),
            status=404,
        )
    return resolved


def _validate_workload(name):
    try:
        get_workload(name)
    except UnknownWorkloadError as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise ServeRequestError(message, status=404) from None
    return str(name).lower()


def _validate_engine(value):
    from repro.models.fastengine import resolve_engine_mode

    try:
        return resolve_engine_mode(value)
    except ValueError as exc:
        raise ServeRequestError(str(exc), status=400) from None


def normalize_params(endpoint, body):
    """Defaults + canonicalization + validation for one endpoint."""
    spec = PARAM_SPECS.get(endpoint)
    if spec is None:
        raise ServeRequestError(
            "unknown endpoint {!r}".format(endpoint), status=404
        )
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ServeRequestError("request body must be a JSON object")
    unknown = sorted(set(body) - set(spec))
    if unknown:
        raise ServeRequestError(
            "unknown parameter{} for {}: {}".format(
                "" if len(unknown) == 1 else "s", endpoint,
                ", ".join(unknown),
            )
        )
    params = {}
    for name, ((type_name, check), default) in sorted(spec.items()):
        if name in body and body[name] is not None:
            value = body[name]
            if not check(value):
                raise ServeRequestError(
                    "parameter {!r} must be a {}".format(name, type_name)
                )
        elif default is REQUIRED:
            raise ServeRequestError(
                "missing required parameter {!r}".format(name)
            )
        else:
            value = default
        params[name] = value
    if "workload" in params:
        params["workload"] = _validate_workload(params["workload"])
    if "model" in params:
        params["model"] = _validate_model(params["model"])
    if params.get("engine") is not None:
        params["engine"] = _validate_engine(params["engine"])
    if "models" in params and params["models"] is not None:
        try:
            params["models"] = [
                name if name == "all" else _validate_model(name)
                for name in params["models"]
            ]
        except UnknownModelError as exc:
            raise ServeRequestError(
                exc.args[0] if exc.args else str(exc), status=404
            ) from None
    return params


# ----------------------------------------------------------------------
# endpoint computations (blocking; dispatched via the coalescer)
# ----------------------------------------------------------------------
def run_result(state, params):
    """``/v1/run`` — exactly the in-process ``repro run`` path."""
    from repro.obs.report import run_stats_dict

    with state.sim_lock:
        state.metrics.inc("serve.sim.run")
        if params.get("engine"):
            stats = state.run_with_engine(
                params["workload"], params["model"], params["engine"]
            )
        else:
            app = state.app_for(params["workload"])
            stats = state.context.run_model(app, params["model"])
        result = run_stats_dict(
            stats, include_tb_records=params["tb_records"]
        )
        result["workload"] = params["workload"]
        result["signature"] = stats.simulated_signature()
        if params["journal"]:
            from repro.obs import journal as jr

            recorder, _stats = jr.record_run(
                params["workload"], params["model"],
                cache=state.analysis_cache,
            )
            result["journal"] = {
                "digest": recorder.digest(),
                "num_events": len(recorder.events),
            }
    return result


def compare_result(state, params):
    """``/v1/compare`` — the serial ``repro compare --json`` payload."""
    from repro.obs.report import run_stats_dict

    with state.sim_lock:
        state.metrics.inc("serve.sim.compare")
        app = state.app_for(params["workload"])
        runs = [
            state.context.run_model(app, name) for name in MODEL_NAMES
        ]
        baseline = runs[0]
        result = {
            "workload": params["workload"],
            "baseline": baseline.model,
            "runs": [
                dict(
                    run_stats_dict(stats),
                    speedup=stats.speedup_over(baseline),
                )
                for stats in runs
            ],
            "signatures": {
                stats.model: stats.simulated_signature() for stats in runs
            },
        }
    return result


def critpath_result(state, params):
    """``/v1/critpath`` — the schema-validated critpath report."""
    from repro.obs import critpath as cp
    from repro.obs.journal import record_run

    with state.sim_lock:
        state.metrics.inc("serve.sim.critpath")
        journal, stats = record_run(
            params["workload"], params["model"], cache=state.analysis_cache
        )
        report = cp.build_report(stats, journal, whatif=params["whatif"])
    errors = cp.validate_critpath_report(report)
    if errors:  # a profiler bug, not a user error — fail loudly
        raise AssertionError(
            "generated critpath report is invalid: {}".format(errors[:3])
        )
    return report


def telemetry_result(state, params):
    """``/v1/telemetry`` — the schema-validated telemetry report."""
    from repro.obs import telemetry as tm
    from repro.obs.journal import record_run

    with state.sim_lock:
        state.metrics.inc("serve.sim.telemetry")
        journal, stats = record_run(
            params["workload"], params["model"], cache=state.analysis_cache
        )
        report = tm.build_report(stats, journal)
    errors = tm.validate_telemetry_report(report)
    if errors:  # an analyzer bug, not a user error — fail loudly
        raise AssertionError(
            "generated telemetry report is invalid: {}".format(errors[:3])
        )
    return report


def bench_result(state, params):
    """``/v1/bench`` — a full bench-report payload (no file written)."""
    from repro import bench

    with state.sim_lock:
        state.metrics.inc("serve.sim.bench")
        config = bench.resolve_config(
            quick=params["quick"],
            models=params["models"],
            filter_globs=params["filter"],
            repeats=params["repeats"],
            warmup=params["warmup"],
            jobs=state.bench_jobs,
            cache_dir=state.cache_dir,
        )
        payload = bench.run_suite(
            config, log=lambda *_args, **_kw: None,
            executor=state.suite_executor(),
        )
    errors = bench.validate_report(payload)
    if errors:  # a schema bug, not a user error — fail loudly
        raise AssertionError(
            "generated bench report is invalid: {}".format(errors[:3])
        )
    return payload


def workloads_result(_state, _params):
    """``/workloads`` — the registry, as ``repro list --json`` specs."""
    return [spec.as_dict() for spec in all_workloads()]


HANDLERS = {
    "run": run_result,
    "compare": compare_result,
    "critpath": critpath_result,
    "telemetry": telemetry_result,
    "bench": bench_result,
}
