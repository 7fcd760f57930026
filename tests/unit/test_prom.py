"""Unit tests for the shared Prometheus exposition module.

:mod:`repro.obs.prom` backs two surfaces: the telemetry ``--prom``
export (PR 7, byte-format frozen) and the serve daemon's live
``/metrics`` endpoint.  These tests pin the exposition format — sample
lines, HELP/TYPE discipline, label escaping, summary quantiles — and
the dependency-free validator both CI jobs gate on.
"""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    PromWriter,
    escape_label_value,
    metric_name,
    render_registry,
    validate_exposition,
)


class TestEscaping:
    def test_plain_value_unchanged(self):
        assert escape_label_value("mvt") == "mvt"

    def test_backslash_quote_newline(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_metric_name_sanitizes_dots(self):
        assert metric_name("serve.cache.hits", "repro") == \
            "repro_serve_cache_hits"

    def test_metric_name_without_namespace(self):
        assert metric_name("makespan_ns", "") == "makespan_ns"


class TestPromWriter:
    def test_help_and_type_emitted_once_per_family(self):
        writer = PromWriter()
        writer.emit("repro_x", "help text", 1.0, labels='a="1"')
        writer.emit("repro_x", "help text", 2.0, labels='a="2"')
        text = writer.render()
        assert text.count("# HELP repro_x") == 1
        assert text.count("# TYPE repro_x") == 1
        assert text.count("repro_x{") == 2

    def test_sample_format_uses_float_repr(self):
        writer = PromWriter()
        writer.emit("repro_y", "h", 141713, labels='w="mvt"')
        assert 'repro_y{w="mvt"} 141713.0\n' in writer.render()

    def test_unlabeled_sample(self):
        writer = PromWriter()
        writer.emit("repro_z", "h", 2.5)
        assert "\nrepro_z 2.5\n" in "\n" + writer.render()

    def test_render_validates(self):
        writer = PromWriter()
        writer.emit("repro_a", "alpha", 1, labels='k="v"')
        writer.emit("repro_b", "beta", 2, metric_type="counter")
        assert validate_exposition(writer.render()) == []


class TestRenderRegistry:
    def _registry(self):
        metrics = MetricsRegistry()
        metrics.inc("serve.cache.hits", 3)
        metrics.set_gauge("serve.uptime_seconds", 12.5)
        for value in (1.0, 2.0, 3.0, 10.0):
            metrics.observe("serve.latency_ms.run", value)
        return metrics

    def test_counter_becomes_total_counter(self):
        text = render_registry(self._registry().snapshot())
        assert "# TYPE repro_serve_cache_hits_total counter" in text
        assert "repro_serve_cache_hits_total 3.0" in text

    def test_gauge_rendered(self):
        text = render_registry(self._registry().snapshot())
        assert "# TYPE repro_serve_uptime_seconds gauge" in text
        assert "repro_serve_uptime_seconds 12.5" in text

    def test_histogram_becomes_summary_with_quantiles(self):
        text = render_registry(self._registry().snapshot())
        assert "# TYPE repro_serve_latency_ms_run summary" in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert 'quantile="{}"'.format(quantile) in text
        assert "repro_serve_latency_ms_run_sum 16.0" in text
        assert "repro_serve_latency_ms_run_count 4.0" in text

    def test_const_labels_reach_every_sample(self):
        text = render_registry(
            self._registry().snapshot(),
            const_labels='service="repro-serve"',
        )
        samples = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert samples
        assert all('service="repro-serve"' in line for line in samples)

    def test_output_validates(self):
        text = render_registry(
            self._registry().snapshot(),
            const_labels='service="repro-serve"',
        )
        assert validate_exposition(text) == []

    def test_empty_registry_validates(self):
        assert validate_exposition(
            render_registry(MetricsRegistry().snapshot())
        ) == []


class TestValidateExposition:
    def test_sample_without_type_flagged(self):
        errors = validate_exposition("repro_orphan 1.0\n")
        assert any("TYPE" in error for error in errors)

    def test_duplicate_type_flagged(self):
        text = (
            "# TYPE repro_x gauge\nrepro_x 1.0\n"
            "# TYPE repro_x gauge\nrepro_x 2.0\n"
        )
        assert validate_exposition(text)

    def test_bad_metric_type_flagged(self):
        assert validate_exposition("# TYPE repro_x frobnicator\n")

    def test_summary_children_resolve_to_base_family(self):
        text = (
            "# TYPE repro_lat summary\n"
            'repro_lat{quantile="0.5"} 1.0\n'
            "repro_lat_sum 2.0\n"
            "repro_lat_count 2.0\n"
        )
        assert validate_exposition(text) == []

    def test_unparseable_sample_flagged(self):
        assert validate_exposition(
            "# TYPE repro_x gauge\nrepro_x not-a-number\n"
        )

    def test_commas_inside_quoted_label_values(self):
        text = (
            "# TYPE repro_x gauge\n"
            'repro_x{pair="k0->k1, k2",w="mvt"} 1.0\n'
        )
        assert validate_exposition(text) == []


class TestTelemetryIntegration:
    """The extracted module must leave telemetry output byte-identical."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.obs.journal import record_run
        from repro.obs.telemetry import build_report

        journal, stats = record_run("mvt", "consumer3")
        return build_report(stats, journal)

    def test_write_prometheus_validates(self, report):
        from repro.obs.telemetry import write_prometheus

        text = write_prometheus(report)
        assert validate_exposition(text) == []

    def test_write_prometheus_sample_format(self, report):
        from repro.obs.telemetry import write_prometheus

        text = write_prometheus(report)
        # the PR 7 byte format: repr(float), workload/model labels
        line = next(
            line for line in text.splitlines()
            if line.startswith("repro_makespan_ns{")
        )
        value = line.rsplit(" ", 1)[1]
        assert value == repr(float(value))
        assert 'workload="mvt"' in line
        assert not math.isnan(float(value))
