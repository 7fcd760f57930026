"""Unit tests for the persistent AnalysisCache (repro.analysis.cache)."""

import os

import pytest

from repro.analysis.analyzer import LaunchConfig, analyze_kernel
from repro.analysis.cache import (
    CACHE_DIR_ENV,
    AnalysisCache,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.core.runtime import BlockMaestroRuntime
from repro.obs import MetricsRegistry


def _launch(grid=4, block=64):
    return LaunchConfig.create(
        grid=grid, block=block,
        args={"A": 0, "B": 1 << 16, "C": 1 << 17, "N": 256},
    )


class TestDirectoryResolution:
    def test_default_is_user_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache", "repro"))

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"
        assert resolve_cache_dir() == "/tmp/elsewhere"

    def test_explicit_dir_beats_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/elsewhere")
        assert resolve_cache_dir("/tmp/mine") == "/tmp/mine"

    def test_disabled_resolves_to_none(self):
        assert resolve_cache_dir("/tmp/mine", enabled=False) is None


class TestKeys:
    def test_summary_key_is_stable_across_instances(self, vecadd_kernel, tmp_cache):
        launch = _launch()
        key1 = tmp_cache.sibling().summary_key(vecadd_kernel, launch, 64)
        key2 = tmp_cache.sibling().summary_key(vecadd_kernel, launch, 64)
        assert key1 == key2

    def test_summary_key_covers_every_input(self, vecadd_kernel, rowsum_kernel):
        cache = AnalysisCache("/tmp/unused")
        base = cache.summary_key(vecadd_kernel, _launch(), 64)
        assert cache.summary_key(rowsum_kernel, _launch(), 64) != base
        assert cache.summary_key(vecadd_kernel, _launch(grid=8), 64) != base
        assert cache.summary_key(vecadd_kernel, _launch(block=32), 64) != base
        assert cache.summary_key(vecadd_kernel, _launch(), 32) != base
        assert (
            cache.summary_key(vecadd_kernel, _launch(), 64, run_algorithm1=False)
            != base
        )

    def test_graph_key_covers_every_input(self):
        cache = AnalysisCache("/tmp/unused")
        base = cache.graph_key("p", "c", ("raw",), 8)
        assert cache.graph_key("q", "c", ("raw",), 8) != base
        assert cache.graph_key("p", "d", ("raw",), 8) != base
        assert cache.graph_key("p", "c", ("raw", "war"), 8) != base
        assert cache.graph_key("p", "c", ("raw",), 16) != base

    def test_kernel_text_hash_memoized_per_object(self, vecadd_kernel):
        cache = AnalysisCache("/tmp/unused")
        assert (
            cache.kernel_text_hash(vecadd_kernel)
            == cache.kernel_text_hash(vecadd_kernel)
        )
        assert id(vecadd_kernel) in cache._kernel_hashes


class TestStorage:
    def test_roundtrip_preserves_summary_behavior(self, vecadd_kernel, tmp_cache):
        metrics = MetricsRegistry()
        cache = tmp_cache.sibling(metrics)
        launch = _launch()
        summary = analyze_kernel(vecadd_kernel, launch)
        key = cache.summary_key(vecadd_kernel, launch, 64)

        assert cache.get_summary(key) is None  # cold
        assert cache.put_summary(key, summary)
        loaded = cache.get_summary(key)

        assert loaded is not summary
        assert loaded.kernel_name == summary.kernel_name
        assert loaded.exact == summary.exact
        assert loaded.launch == summary.launch
        for tb in range(summary.num_tbs):
            assert loaded.tb_reads(tb) == summary.tb_reads(tb)
            assert loaded.tb_writes(tb) == summary.tb_writes(tb)
        counters = metrics.snapshot()["counters"]
        assert counters["cache.summary.misses"] == 1
        assert counters["cache.summary.hits"] == 1
        assert counters["cache.summary.stores"] == 1

    def test_corrupt_entry_invalidates_and_self_heals(self, tmp_cache):
        metrics = MetricsRegistry()
        cache = tmp_cache.sibling(metrics)
        key = cache.graph_key("p", "c", ("raw",), 8)
        cache.put_graph(key, {"ok": True})
        path = cache._path("graph", key)
        with open(path, "wb") as handle:
            handle.write(b"definitely not a pickle")

        assert cache.get_graph(key) is None
        assert not os.path.exists(path)  # poisoned entry removed
        counters = metrics.snapshot()["counters"]
        assert counters["cache.invalidations"] == 1
        assert counters["cache.graph.misses"] == 1

    def test_put_degrades_gracefully_on_unwritable_dir(self, tmp_cache, monkeypatch):
        cache = tmp_cache

        def refuse(*args, **kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr(os, "makedirs", refuse)
        assert cache.put_graph("ab" * 32, {"x": 1}) is False

    def test_entry_count_and_counters(self, tmp_cache):
        metrics = MetricsRegistry()
        cache = tmp_cache.sibling(metrics)
        assert cache.entry_count() == 0
        cache.put_graph(cache.graph_key("a", "b", ("raw",), 8), 1)
        cache.put_graph(cache.graph_key("a", "c", ("raw",), 8), 2)
        assert cache.entry_count() == 2
        assert cache.counters() == {
            "cache.graph.stores": 2.0,
        }


class TestRuntimeIntegration:
    def test_warm_cache_skips_analysis_and_preserves_plan(self, tmp_cache, chain_app):
        cold_metrics = MetricsRegistry()
        cold = BlockMaestroRuntime(
            metrics=cold_metrics,
            cache=tmp_cache.sibling(cold_metrics),
        )
        plan_cold = cold.plan(chain_app, reorder=True, window=3)
        cold_counters = cold_metrics.snapshot()["counters"]
        assert cold_counters["cache.summary.misses"] > 0
        assert cold_counters["cache.graph.stores"] > 0

        warm_metrics = MetricsRegistry()
        warm = BlockMaestroRuntime(
            metrics=warm_metrics,
            cache=tmp_cache.sibling(warm_metrics),
        )
        plan_warm = warm.plan(chain_app, reorder=True, window=3)
        warm_counters = warm_metrics.snapshot()["counters"]
        assert "plan.kernels_analyzed" not in warm_counters  # all from disk
        assert "cache.summary.misses" not in warm_counters
        assert warm_counters["cache.summary.hits"] > 0
        assert warm_counters["cache.graph.hits"] > 0

        # the warm plan is indistinguishable from the cold one
        assert plan_warm.graph_plain_bytes == plan_cold.graph_plain_bytes
        assert plan_warm.graph_encoded_bytes == plan_cold.graph_encoded_bytes
        for kp_cold, kp_warm in zip(plan_cold.kernels, plan_warm.kernels):
            assert kp_warm.grandparent_barrier == kp_cold.grandparent_barrier
            assert kp_warm.traffic.total == kp_cold.traffic.total
            if kp_cold.encoded is None:
                assert kp_warm.encoded is None
            else:
                assert (
                    kp_warm.encoded.encoded_bytes == kp_cold.encoded.encoded_bytes
                )
                assert (
                    kp_warm.encoded.original_pattern.pattern
                    == kp_cold.encoded.original_pattern.pattern
                )
