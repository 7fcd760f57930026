"""Shared experiment machinery: model roster, the context, tables.

The roster and the table formatter import nothing heavy, so the CLI's
parser and ``repro list`` use them without loading the models or the
launch-time pipeline; those load when a context first plans or runs.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The Fig. 9 model roster: (name, reorder, window); :func:`_make_model`
#: builds each model
STANDARD_MODELS = (
    ("baseline", False, 1),
    ("ideal", False, 1),
    ("prelaunch", True, 2),
    ("producer", True, 2),  # producer-priority BlockMaestro
    ("consumer2", True, 2),
    ("consumer3", True, 3),
    ("consumer4", True, 4),
)

#: convenience names accepted anywhere a roster model is named
MODEL_ALIASES = {"blockmaestro": "consumer3", "bm": "consumer3"}


class UnknownModelError(KeyError):
    """A model name is not in the roster (nor an alias).

    Subclasses :class:`KeyError` for backward compatibility; the CLI
    maps it to exit code 2 with a one-line message.
    """


def _unknown_model(name):
    roster = ", ".join([m[0] for m in STANDARD_MODELS] + sorted(MODEL_ALIASES))
    return UnknownModelError(
        "unknown model {!r}; available: {}".format(name, roster)
    )


def canonical_model_name(name):
    """Resolve aliases (``blockmaestro`` → its headline configuration)."""
    return MODEL_ALIASES.get(name, name)


def _make_model(name, gpu_config):
    """The roster model ``name`` names, with its row's window."""
    from repro.core.policy import SchedulingPolicy
    from repro.models import (
        BlockMaestroModel,
        IdealBaseline,
        PrelaunchOnly,
        SerializedBaseline,
    )

    name = canonical_model_name(name)
    _reorder, window = _model_plan_params(name)
    if name == "baseline":
        return SerializedBaseline(gpu_config)
    if name == "ideal":
        return IdealBaseline(gpu_config)
    if name == "prelaunch":
        return PrelaunchOnly(gpu_config, window=window)
    policy = (
        SchedulingPolicy.PRODUCER_PRIORITY if name == "producer"
        else SchedulingPolicy.CONSUMER_PRIORITY
    )
    return BlockMaestroModel(
        gpu_config, window=window, policy=policy, name=name
    )


@dataclass
class ExperimentContext:
    """The one build -> plan -> run path: every paper artifact, every
    operation and every observed run of one (workload, model) cell.

    An application is built once per registry name and overrides, the
    runtime memoizes its plans, and each roster model's run on it is
    memoized.  Plans and runs are keyed on the application object, and
    each entry pins it: apps that share a name (a registry app and its
    overridden build, or two sweep points of one builder) never share a
    plan.  :meth:`variant` gives the same apps under other timing,
    hardware or hazards.  The runtime's tracer, if it has one, also
    times each build (``workload.build:<name>``).

    ``gpu_config`` is always the runtime's config, so a context plans
    and simulates on one device.
    """

    gpu_config: "GPUConfig" = None
    runtime: "BlockMaestroRuntime" = None
    _apps: Dict[str, object] = field(default_factory=dict)
    #: (id(app), model name) -> (app, RunStats)
    _runs: Dict[Tuple[int, str], tuple] = field(default_factory=dict)

    def __post_init__(self):
        if self.runtime is None:
            from repro.core.runtime import BlockMaestroRuntime

            self.runtime = BlockMaestroRuntime(self.gpu_config)
        elif self.gpu_config not in (None, self.runtime.config):
            raise ValueError("gpu_config differs from the runtime's config")
        self.gpu_config = self.runtime.config

    # ------------------------------------------------------------------
    def app(self, name, **overrides):
        """The application ``get_workload(name)`` builds, built once.

        Memoized on the spec's name, so every spelling of one workload
        (``MVT``/``mvt``, ``fuzz-007``/``fuzz-7``) shares one app.
        """
        from repro.workloads import get_workload

        spec = get_workload(name)
        key = spec.name
        if overrides:
            key = "{}|{}".format(key, sorted(overrides.items()))
        if key not in self._apps:
            with self.runtime.tracer.span(
                "workload.build:{}".format(spec.name), cat="ptx"
            ):
                self._apps[key] = spec.build(**overrides)
        return self._apps[key]

    def variant(self, gpu_config=None, hardware=None, hazards=None):
        """This context under other timing, hardware or hazards.

        Unset arguments keep this context's values; with none changed
        this context is returned.  A variant shares this context's apps
        and its runtime's summary and pair-graph memos
        (:meth:`~repro.core.runtime.BlockMaestroRuntime.variant`); its
        plans and runs are its own.
        """
        runtime = self.runtime
        gpu_config = gpu_config or self.gpu_config
        hardware = hardware or runtime.hardware_config
        hazards = tuple(hazards or runtime.hazards)
        if (gpu_config, hardware, hazards) == (
            self.gpu_config, runtime.hardware_config, runtime.hazards
        ):
            return self
        return ExperimentContext(
            runtime=runtime.variant(gpu_config, hardware, hazards),
            _apps=self._apps,
        )

    def plan_for(self, app, reorder, window):
        return self.runtime.plan(app, reorder=reorder, window=window)

    def simulate(self, app, model_name, engine=None, journal=None,
                 tracer=None, metrics=None):
        """Run one roster model on the app's memoized plan, unmemoized.

        ``engine`` pins the simulation tier, ``journal`` records the run
        and ``tracer``/``metrics`` observe it, as in
        :meth:`~repro.models.base.ExecutionModel.run`, which gets them
        all by keyword.
        """
        reorder, window = _model_plan_params(model_name)
        plan = self.plan_for(app, reorder, window)
        model = _make_model(model_name, self.gpu_config)
        return model.run(
            plan, tracer=tracer, metrics=metrics, journal=journal,
            engine=engine,
        )

    def run_model(self, app, model_name):
        """Run one roster model on one app, memoized."""
        model_name = canonical_model_name(model_name)
        key = (id(app), model_name)
        if key not in self._runs:
            self._runs[key] = (app, self.simulate(app, model_name))
        return self._runs[key][1]


def _model_plan_params(model_name):
    model_name = canonical_model_name(model_name)
    for name, reorder, window in STANDARD_MODELS:
        if name == model_name:
            return reorder, window
    raise _unknown_model(model_name)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(rows, columns, title=None):
    """Render dict rows as a fixed-width text table."""
    widths = {
        col: max(len(col), *(len(_fmt(r.get(col))) for r in rows)) if rows else len(col)
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "{:.3f}".format(value)
    return str(value)
