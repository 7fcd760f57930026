"""Unit tests for the serve daemon's request plumbing.

Covers the pieces that must be correct *before* any HTTP is involved:
content-addressed request keys (canonicalization, schema binding),
the bounded LRU response cache, in-flight request coalescing
(leader/follower semantics, error propagation), endpoint parameter
normalization, the version surface, and the serve-bench report
schema.
"""

import asyncio
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import SERVE_SCHEMA_VERSION
from repro.serve.coalescer import Coalescer, ResponseCache, request_key
from repro.serve.handlers import ServeRequestError, normalize_params


class TestRequestKey:
    def test_deterministic(self):
        params = {"workload": "mvt", "model": "consumer3"}
        assert request_key("run", params) == request_key("run", params)

    def test_param_order_irrelevant(self):
        a = {"workload": "mvt", "model": "consumer3"}
        b = {"model": "consumer3", "workload": "mvt"}
        assert request_key("run", a) == request_key("run", b)

    def test_endpoint_in_key(self):
        params = {"workload": "mvt"}
        assert request_key("run", params) != request_key("compare", params)

    def test_params_in_key(self):
        assert request_key("run", {"workload": "mvt"}) != \
            request_key("run", {"workload": "bicg"})

    def test_sha256_format(self):
        key = request_key("run", {"workload": "mvt"})
        assert key.startswith("sha256:")
        assert len(key) == len("sha256:") + 64

    def test_schema_version_in_key(self, monkeypatch):
        before = request_key("run", {"workload": "mvt"})
        import repro.serve

        monkeypatch.setattr(
            repro.serve, "SERVE_SCHEMA_VERSION", SERVE_SCHEMA_VERSION + 1
        )
        assert request_key("run", {"workload": "mvt"}) != before


class TestResponseCache:
    def test_miss_then_hit(self):
        metrics = MetricsRegistry()
        cache = ResponseCache(capacity=4, metrics=metrics)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        counters = metrics.snapshot()["counters"]
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.stores"] == 1

    def test_lru_eviction_order(self):
        metrics = MetricsRegistry()
        cache = ResponseCache(capacity=2, metrics=metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")      # refresh a; b is now least-recent
        cache.put("c", 3)   # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert metrics.snapshot()["counters"]["serve.cache.evictions"] == 1

    def test_zero_capacity_stores_nothing(self):
        cache = ResponseCache(capacity=0)
        cache.put("k", 1)
        assert len(cache) == 0
        assert cache.get("k") is None


class TestCoalescer:
    def test_single_fetch_is_leader(self):
        metrics = MetricsRegistry()
        coalescer = Coalescer(metrics=metrics)

        async def scenario():
            return await coalescer.fetch("k", lambda: 42)

        payload, source = asyncio.run(scenario())
        assert (payload, source) == (42, "simulated")
        counters = metrics.snapshot()["counters"]
        assert counters["serve.coalesce.leaders"] == 1
        assert "serve.coalesce.followers" not in counters
        assert coalescer.inflight == 0

    def test_concurrent_identical_requests_compute_once(self):
        metrics = MetricsRegistry()
        coalescer = Coalescer(metrics=metrics)
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            release.wait(5.0)
            return "payload"

        async def scenario():
            first = asyncio.ensure_future(coalescer.fetch("k", compute))
            # let the leader occupy the key before the followers arrive
            while coalescer.inflight == 0:
                await asyncio.sleep(0.001)
            rest = [
                asyncio.ensure_future(coalescer.fetch("k", compute))
                for _ in range(4)
            ]
            await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(first, *rest)

        results = asyncio.run(scenario())
        assert len(calls) == 1          # exactly one simulation
        sources = sorted(source for _payload, source in results)
        assert sources == ["coalesced"] * 4 + ["simulated"]
        assert all(payload == "payload" for payload, _source in results)
        counters = metrics.snapshot()["counters"]
        assert counters["serve.coalesce.leaders"] == 1
        assert counters["serve.coalesce.followers"] == 4

    def test_different_keys_do_not_coalesce(self):
        coalescer = Coalescer(metrics=MetricsRegistry())

        async def scenario():
            return await asyncio.gather(
                coalescer.fetch("a", lambda: 1),
                coalescer.fetch("b", lambda: 2),
            )

        results = asyncio.run(scenario())
        assert [source for _payload, source in results] == \
            ["simulated", "simulated"]

    def test_leader_failure_propagates_to_followers(self):
        coalescer = Coalescer(metrics=MetricsRegistry())
        release = threading.Event()

        def explode():
            release.wait(5.0)
            raise RuntimeError("sim blew up")

        async def scenario():
            first = asyncio.ensure_future(coalescer.fetch("k", explode))
            while coalescer.inflight == 0:
                await asyncio.sleep(0.001)
            second = asyncio.ensure_future(coalescer.fetch("k", explode))
            await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(
                first, second, return_exceptions=True
            )

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)
        assert coalescer.inflight == 0

    def test_key_released_after_completion(self):
        coalescer = Coalescer(metrics=MetricsRegistry())

        async def scenario():
            await coalescer.fetch("k", lambda: 1)
            # the key is free again: a new fetch is a fresh leader
            return await coalescer.fetch("k", lambda: 2)

        payload, source = asyncio.run(scenario())
        assert (payload, source) == (2, "simulated")


class TestNormalizeParams:
    def test_defaults_applied(self):
        params = normalize_params("run", {"workload": "mvt"})
        assert params == {
            "workload": "mvt",
            "model": "consumer3",
            "engine": None,
            "journal": False,
            "tb_records": False,
        }

    def test_model_alias_canonicalized(self):
        a = normalize_params(
            "run", {"workload": "mvt", "model": "blockmaestro"}
        )
        b = normalize_params("run", {"workload": "mvt", "model": "consumer3"})
        assert a == b   # same canonical params => same request key

    def test_missing_required_param(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("run", {})
        assert err.value.status == 400
        assert "workload" in str(err.value)

    def test_unknown_param_rejected(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("run", {"workload": "mvt", "bogus": 1})
        assert err.value.status == 400
        assert "bogus" in str(err.value)

    def test_unknown_workload_404(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("run", {"workload": "nosuch"})
        assert err.value.status == 404

    def test_unknown_model_404(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("run", {"workload": "mvt", "model": "gpt5"})
        assert err.value.status == 404

    def test_bad_engine_400(self):
        for engine in ("warp-drive", "closed_form"):
            with pytest.raises(ServeRequestError) as err:
                normalize_params(
                    "run", {"workload": "mvt", "engine": engine}
                )
            assert err.value.status == 400

    def test_engine_alias_resolved(self):
        params = normalize_params(
            "run", {"workload": "mvt", "engine": "scalar"}
        )
        assert params["engine"] == "reference"

    def test_type_check(self):
        with pytest.raises(ServeRequestError):
            normalize_params("run", {"workload": "mvt", "journal": "yes"})
        with pytest.raises(ServeRequestError):
            normalize_params("bench", {"repeats": True})

    def test_unknown_endpoint(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("teleport", {})
        assert err.value.status == 404

    def test_non_dict_body(self):
        with pytest.raises(ServeRequestError):
            normalize_params("run", [1, 2, 3])

    def test_none_body_means_defaults(self):
        assert normalize_params("bench", None)["quick"] is True

    def test_bench_models_validated(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("bench", {"models": ["baseline", "gpt5"]})
        assert err.value.status == 404


class TestVersionSurface:
    def test_schema_families_present(self):
        from repro.version import schema_versions

        schemas = schema_versions()
        for family in ("bench", "critpath", "fuzz", "journal", "serve",
                       "serve_bench", "status", "telemetry"):
            assert family in schemas, family
            assert isinstance(schemas[family], int)

    def test_serve_entry_matches_package_constant(self):
        from repro.version import schema_versions

        assert schema_versions()["serve"] == SERVE_SCHEMA_VERSION

    def test_version_lines_shape(self):
        from repro.version import version_lines

        lines = version_lines()
        assert lines[0].startswith("repro ")
        assert lines[1].startswith("schemas: ")
        assert "serve={}".format(SERVE_SCHEMA_VERSION) in lines[1]


class TestServeBenchReport:
    def _minimal_payload(self):
        from repro.bench.serve import latency_block, run_serve_bench  # noqa: F401
        from repro.bench.serve import (
            SERVE_BENCH_KIND,
            SERVE_BENCH_SCHEMA_VERSION,
        )

        wall = latency_block([1.0, 2.0, 3.0])
        return {
            "kind": SERVE_BENCH_KIND,
            "schema_version": SERVE_BENCH_SCHEMA_VERSION,
            "created_utc": "2026-08-08T00:00:00Z",
            "host": {}, "git": {}, "daemon": {}, "config": {},
            "phases": {
                "warmup": {"requests": 3, "total_s": 0.5},
                "latency": {"requests": 3, "wall_ms": wall, "sources": {}},
                "throughput": {
                    "requests": 3, "concurrency": 2, "elapsed_s": 0.1,
                    "rps": 30.0, "wall_ms": wall, "sources": {},
                },
                "coalesce": {
                    "burst": 4, "completed": 4, "simulations": 1,
                    "coalesce_hit_rate": 0.75, "wall_ms": wall,
                    "sources": {"simulated": 1, "coalesced": 3},
                },
            },
            "cli_baseline": None,
        }

    def test_minimal_payload_validates(self):
        from repro.bench.serve import validate_serve_bench_report

        assert validate_serve_bench_report(self._minimal_payload()) == []

    def test_wrong_kind_flagged(self):
        from repro.bench.serve import validate_serve_bench_report

        payload = self._minimal_payload()
        payload["kind"] = "something-else"
        assert any(
            "kind" in error
            for error in validate_serve_bench_report(payload)
        )

    def test_missing_phase_flagged(self):
        from repro.bench.serve import validate_serve_bench_report

        payload = self._minimal_payload()
        del payload["phases"]["coalesce"]
        assert validate_serve_bench_report(payload)

    def test_incomplete_latency_block_flagged(self):
        from repro.bench.serve import validate_serve_bench_report

        payload = self._minimal_payload()
        del payload["phases"]["latency"]["wall_ms"]["p99"]
        assert any(
            "p99" in error
            for error in validate_serve_bench_report(payload)
        )

    def test_latency_block_quantiles_ordered(self):
        from repro.bench.serve import latency_block

        block = latency_block([5.0, 1.0, 3.0, 2.0, 4.0])
        assert block["min"] == 1.0
        assert block["max"] == 5.0
        assert block["p50"] == 3.0
        assert block["min"] <= block["p50"] <= block["p95"] <= block["p99"]
        assert block["count"] == 5

    def test_latency_block_empty(self):
        from repro.bench.serve import latency_block

        block = latency_block([])
        assert block["count"] == 0
        assert block["p50"] == 0.0

    def test_burst_workload_must_be_held_out(self):
        from repro.bench.serve import run_serve_bench

        with pytest.raises(ValueError):
            run_serve_bench(
                workloads=["mvt"], burst_workload="mvt", url="http://x:1"
            )

    def test_formatter_mentions_coalesce(self):
        from repro.bench.serve import format_serve_bench_report

        lines = format_serve_bench_report(self._minimal_payload())
        assert any("coalesce" in line for line in lines)
