"""Request handling for the serve daemon: normalize, then call the op.

``POST /v1/<op>`` runs the :mod:`repro.ops` function that ``repro <op>``
runs, so a daemon result is the in-process CLI payload plus the
daemon's envelope fields: ``workload`` and the simulated
``signature`` (``run``), or per-model ``signatures`` (``compare``,
whose payload already names its application).  The integration
suite's differential gates compare the two for every op.

Parameter handling happens *before* key derivation:
:func:`normalize_params` applies the :data:`repro.ops.OPS` defaults,
canonicalizes model aliases (``blockmaestro`` -> ``consumer3``) and
workload spellings (``MVT``, ``fuzz-007`` -> the registry's name),
validates names and types, and rejects unknown fields — so two
spellings of the same request share one content-addressed key, and an
invalid request fails fast with a :class:`ServeRequestError` instead of
poisoning the cache.
"""

from repro.experiments.common import _unknown_model, canonical_model_name
from repro.ops import MODEL_NAMES, OPS, REQUIRED
from repro.workloads import UnknownWorkloadError, all_workloads, get_workload


class ServeRequestError(ValueError):
    """A client-side request problem, mapped to an HTTP status."""

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


#: JSON type names for error messages, by parameter type
_TYPE_NAMES = {str: "string", bool: "boolean"}


def _validate_model(name):
    resolved = canonical_model_name(name)
    if resolved not in MODEL_NAMES:
        raise ServeRequestError(_unknown_model(name).args[0], status=404)
    return resolved


def _validate_workload(name):
    try:
        return get_workload(name).name
    except UnknownWorkloadError as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise ServeRequestError(message, status=404) from None


def _validate_engine(value):
    from repro.modes import resolve_engine_mode

    try:
        return resolve_engine_mode(value)
    except ValueError as exc:
        raise ServeRequestError(str(exc), status=400) from None


def normalize_params(endpoint, body):
    """Defaults + canonicalization + validation for one endpoint."""
    op = OPS.get(endpoint)
    if op is None:
        raise ServeRequestError(
            "unknown endpoint {!r}".format(endpoint), status=404
        )
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ServeRequestError("request body must be a JSON object")
    spec = {param.name: param for param in op.params}
    unknown = sorted(set(body) - set(spec))
    if unknown:
        raise ServeRequestError(
            "unknown parameter{} for {}: {}".format(
                "" if len(unknown) == 1 else "s", endpoint,
                ", ".join(unknown),
            )
        )
    params = {}
    for name, param in sorted(spec.items()):
        if name in body and body[name] is not None:
            value = body[name]
            if not isinstance(value, param.type):
                raise ServeRequestError(
                    "parameter {!r} must be a {}".format(
                        name, _TYPE_NAMES[param.type]
                    )
                )
        elif param.default is REQUIRED:
            raise ServeRequestError(
                "missing required parameter {!r}".format(name)
            )
        else:
            value = param.default
        params[name] = value
    if "workload" in params:
        params["workload"] = _validate_workload(params["workload"])
    if "model" in params:
        params["model"] = _validate_model(params["model"])
    if params.get("engine") is not None:
        params["engine"] = _validate_engine(params["engine"])
    return params


def op_result(state, endpoint, params):
    """``/v1/<endpoint>`` — the op's payload plus the envelope fields.

    A blocking callable: the server dispatches it through the coalescer
    into the event loop's thread executor.
    """
    with state.sim_lock:
        state.metrics.inc("serve.sim.{}".format(endpoint))
        result, stats = OPS[endpoint].function(
            context=state.warm_context(), **params
        )
        if endpoint == "run":
            result["workload"] = params["workload"]
            result["signature"] = stats.simulated_signature()
        elif endpoint == "compare":
            result["signatures"] = {
                run.model: run.simulated_signature() for run in stats
            }
    return result


def workloads_result(_state, _params):
    """``/workloads`` — the registry, as ``repro list --json`` specs."""
    return [spec.as_dict() for spec in all_workloads()]
