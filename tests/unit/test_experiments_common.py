"""Unit tests for the experiment framework (context, tables, runner)."""

import io

import pytest

from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import (
    ExperimentContext,
    STANDARD_MODELS,
    UnknownModelError,
    _make_model,
    _model_plan_params,
    format_table,
    geomean,
)
from repro.sim.config import GPUConfig


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geomean([0.0, -1.0, 4.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0


class TestFormatTable:
    def test_renders_columns(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.500" in text
        assert "-" in text  # None placeholder

    def test_empty_rows(self):
        text = format_table([], ["x"])
        assert "x" in text


class TestModelFactory:
    @pytest.mark.parametrize("name", [m[0] for m in STANDARD_MODELS])
    def test_all_roster_models_constructible(self, name, gpu_config):
        model = _make_model(name, gpu_config)
        assert model.options().name

    def test_unknown_model(self, gpu_config):
        with pytest.raises(KeyError):
            _make_model("nope", gpu_config)

    def test_consumer_window_parsed(self, gpu_config):
        model = _make_model("consumer3", gpu_config)
        assert model.options().window == 3

    @pytest.mark.parametrize("name", ["consumer7", "consumer", "consumerX"])
    def test_only_roster_rows_build(self, name, gpu_config):
        # a consumer window outside the roster is as unknown to the
        # factory as to the planner
        with pytest.raises(UnknownModelError, match="unknown model"):
            _make_model(name, gpu_config)
        with pytest.raises(UnknownModelError):
            _model_plan_params(name)

    @pytest.mark.parametrize("name, reorder, window", STANDARD_MODELS)
    def test_models_take_their_row_window(self, name, reorder, window,
                                          gpu_config):
        assert _make_model(name, gpu_config).options().window == window


class TestExperimentContext:
    def test_app_cached(self):
        ctx = ExperimentContext()
        assert ctx.app("path") is ctx.app("path")

    def test_app_with_overrides_distinct(self):
        ctx = ExperimentContext()
        a = ctx.app("path")
        b = ctx.app("path", iterations=3)
        assert a is not b
        assert b.num_kernel_launches == 3

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            ExperimentContext().app("wat")

    def test_plans_cached_per_window(self):
        ctx = ExperimentContext()
        app = ctx.app("path")
        p1 = ctx.plan_for(app, reorder=True, window=2)
        p2 = ctx.plan_for(app, reorder=True, window=2)
        p3 = ctx.plan_for(app, reorder=True, window=3)
        assert p1 is p2
        assert p1 is not p3

    def test_gpu_config_is_the_runtimes(self):
        """A context given only a runtime plans and simulates on the
        runtime's device."""
        ctx = ExperimentContext(
            runtime=BlockMaestroRuntime(GPUConfig(num_sms=4))
        )
        assert ctx.gpu_config.num_sms == 4
        stats = ctx.run_model(ctx.app("mvt"), "consumer3")
        assert set(stats.tb_records.sm) == {0, 1, 2, 3}

    def test_conflicting_gpu_config_rejected(self):
        with pytest.raises(ValueError, match="runtime's config"):
            ExperimentContext(
                gpu_config=GPUConfig(num_sms=4), runtime=BlockMaestroRuntime()
            )

    def test_runs_memoized(self):
        ctx = ExperimentContext()
        app = ctx.app("path")
        first = ctx.run_model(app, "baseline")
        second = ctx.run_model(app, "baseline")
        assert first is second

    def test_memos_key_on_the_app_not_its_name(self):
        """An overridden build shares its name with the full-size app,
        but never its plan or its runs."""
        ctx = ExperimentContext()
        full = ctx.app("mvt")
        ctx.run_model(full, "baseline")
        small = ctx.app("mvt", blocks=2, k=16)
        assert small.name == full.name
        fresh = ExperimentContext()
        expected = fresh.run_model(
            fresh.app("mvt", blocks=2, k=16), "baseline"
        )
        assert ctx.plan_for(small, False, 1) is not ctx.plan_for(full, False, 1)
        assert ctx.run_model(small, "baseline").makespan_ns == (
            expected.makespan_ns
        )

    @pytest.mark.parametrize(
        "name", ["fuzz-3", "backprop", "eng-chain", "MVT"]
    )
    def test_app_resolves_every_workload_name(self, name):
        """Hidden and differently cased names resolve as in get_workload."""
        from repro.workloads import get_workload

        def shape(app):
            return (
                app.describe(),
                sorted(app.kernels),
                [type(call).__name__ for call in app.trace],
                [call.num_tbs for call in app.trace.kernel_calls],
            )

        ctx = ExperimentContext()
        assert shape(ctx.app(name)) == shape(get_workload(name).build())
        assert ctx.app(name) is ctx.app(name)

    @pytest.mark.parametrize(
        "spellings", [("MVT", "mvt", "Mvt"), ("fuzz-7", "fuzz-007")]
    )
    def test_spellings_share_one_app(self, spellings):
        """Every spelling of a workload builds one app and one memo entry
        (the daemon resets its context by this count)."""
        ctx = ExperimentContext()
        apps = [ctx.app(name) for name in spellings]
        assert all(app is apps[0] for app in apps)
        assert len(ctx._apps) == 1


class TestRunner:
    def test_selected_experiments(self):
        from repro.experiments import runner

        stream = io.StringIO()
        results = runner.run_all(["tab1"], stream=stream)
        assert "tab1" in results
        assert "Table I" in stream.getvalue()

    def test_unknown_experiment_rejected(self, capsys):
        from repro.cli import main

        assert main(["experiments", "nope"]) == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err
