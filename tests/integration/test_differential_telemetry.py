"""Differential gate: the journal — the engine's only observer — must
change nothing.

Critical-path and telemetry analysis are derived from the
:class:`~repro.obs.journal.JournalRecorder` event stream, so attaching
it may not perturb a single simulated nanosecond.  For every registry
workload (small variants) and every roster model, a journal-carrying
run must produce a byte-identical :meth:`RunStats.simulated_signature`
to a bare run, and the telemetry derived from it must be consistent.
"""

import json

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    STANDARD_MODELS,
    _make_model,
    _model_plan_params,
)
from repro.obs.journal import JournalRecorder
from repro.obs.telemetry import build_report, validate_telemetry_report
from repro.workloads import all_workloads

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]


@pytest.mark.parametrize("wname", [s.name for s in all_workloads()])
def test_sampler_is_observation_only(wname):
    spec = next(s for s in all_workloads() if s.name == wname)
    app = spec.build_small()
    for model_name in MODEL_NAMES:
        reorder, window = _model_plan_params(model_name)
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=reorder, window=window)
        bare = _make_model(model_name, runtime.config).run(plan)
        journal = JournalRecorder()
        observed = _make_model(model_name, runtime.config).run(
            plan, journal=journal
        )
        assert json.dumps(
            bare.simulated_signature(), sort_keys=True
        ) == json.dumps(observed.simulated_signature(), sort_keys=True), (
            wname, model_name
        )
        # and the recorded series must itself be internally consistent
        report = build_report(observed, journal)
        assert validate_telemetry_report(report) == [], (wname, model_name)
