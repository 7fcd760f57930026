"""Shared experiment machinery: model roster, plan caching, tables."""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime, RuntimePlan
from repro.models import (
    BlockMaestroModel,
    IdealBaseline,
    PrelaunchOnly,
    SerializedBaseline,
)
from repro.sim.config import GPUConfig
from repro.workloads import UnknownWorkloadError, all_workloads

#: The Fig. 9 model roster: (name, factory(gpu_config), reorder, window)
STANDARD_MODELS = (
    ("baseline", SerializedBaseline, False, 1),
    ("ideal", IdealBaseline, False, 1),
    ("prelaunch", PrelaunchOnly, True, 2),
    ("producer", None, True, 2),  # producer-priority BlockMaestro
    ("consumer2", None, True, 2),
    ("consumer3", None, True, 3),
    ("consumer4", None, True, 4),
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
    name = canonical_model_name(name)
    if name == "baseline":
        return SerializedBaseline(gpu_config)
    if name == "ideal":
        return IdealBaseline(gpu_config)
    if name == "prelaunch":
        return PrelaunchOnly(gpu_config, window=2)
    if name == "producer":
        return BlockMaestroModel(
            gpu_config,
            window=2,
            policy=SchedulingPolicy.PRODUCER_PRIORITY,
            name="producer",
        )
    if name.startswith("consumer"):
        try:
            window = int(name[len("consumer"):])
        except ValueError:
            raise _unknown_model(name) from None
        return BlockMaestroModel(
            gpu_config,
            window=window,
            policy=SchedulingPolicy.CONSUMER_PRIORITY,
            name=name,
        )
    raise _unknown_model(name)


@dataclass
class ExperimentContext:
    """Caches applications, plans and run results across experiments.

    One context per process keeps the full Fig. 9-13 sweep affordable:
    an application is built once, analyzed once per (reorder, window)
    pair, and each model's simulation result is memoized.
    """

    gpu_config: GPUConfig = field(default_factory=GPUConfig)
    runtime: BlockMaestroRuntime = None
    _apps: Dict[str, object] = field(default_factory=dict)
    _plans: Dict[Tuple[str, bool, int], RuntimePlan] = field(default_factory=dict)
    _runs: Dict[Tuple[str, str], object] = field(default_factory=dict)
    _observed: Dict[Tuple[str, str], tuple] = field(default_factory=dict)

    def __post_init__(self):
        if self.runtime is None:
            self.runtime = BlockMaestroRuntime(self.gpu_config)

    # ------------------------------------------------------------------
    def app(self, name, **overrides):
        key = name if not overrides else "{}|{}".format(name, sorted(overrides.items()))
        if key not in self._apps:
            for spec in all_workloads():
                if spec.name == name:
                    self._apps[key] = spec.build(**overrides)
                    break
            else:
                raise UnknownWorkloadError("unknown workload %r" % name)
        return self._apps[key]

    def register_app(self, app):
        """Register an externally built application (microbenchmarks)."""
        self._apps[app.name] = app
        return app

    def plan_for(self, app, reorder, window):
        key = (app.name, reorder, window)
        if key not in self._plans:
            self._plans[key] = self.runtime.plan(
                app, reorder=reorder, window=window
            )
        return self._plans[key]

    def run_model(self, app, model_name):
        """Run one roster model on one app, memoized."""
        model_name = canonical_model_name(model_name)
        key = (app.name, model_name)
        if key not in self._runs:
            reorder, window = _model_plan_params(model_name)
            plan = self.plan_for(app, reorder, window)
            model = _make_model(model_name, self.gpu_config)
            self._runs[key] = model.run(plan)
        return self._runs[key]

    def critpath_attribution(self, app, model_name):
        """Critical-path makespan fractions per component, memoized."""
        return self._observe(app, model_name)[0]

    def telemetry_summary(self, app, model_name):
        """Flat telemetry summary (occupancy/overlap/bubbles), memoized."""
        return self._observe(app, model_name)[1]

    def _observe(self, app, model_name):
        """One journaled pass per cell -> both observer summaries.

        A separate pass, so the memoized :meth:`run_model` result stays
        observation-free and experiment signatures are untouched; only
        the two small summaries are kept, never the journal.
        """
        model_name = canonical_model_name(model_name)
        key = (app.name, model_name)
        if key not in self._observed:
            # Imported lazily: critpath imports models.base for what-if
            # replay, so a module-level import here would be a cycle.
            from repro.obs import critpath, telemetry
            from repro.obs.journal import JournalRecorder

            reorder, window = _model_plan_params(model_name)
            plan = self.plan_for(app, reorder, window)
            model = _make_model(model_name, self.gpu_config)
            journal = JournalRecorder()
            stats = model.run(plan, journal=journal)
            self._observed[key] = (
                dict(critpath.build_report(stats, journal)
                     ["attribution_fraction"]),
                telemetry.bench_summary(
                    telemetry.build_report(stats, journal)
                ),
            )
        return self._observed[key]

    def run_all(self, app, model_names=None):
        names = model_names or [m[0] for m in STANDARD_MODELS]
        return {name: self.run_model(app, name) for name in names}


def _model_plan_params(model_name):
    model_name = canonical_model_name(model_name)
    for name, _factory, reorder, window in STANDARD_MODELS:
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
