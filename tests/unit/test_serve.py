"""Unit tests for the serve daemon's request plumbing.

Covers the pieces that must be correct *before* any HTTP is involved:
content-addressed request keys (canonicalization, schema binding),
the bounded LRU response cache, in-flight request coalescing
(leader/follower semantics, error propagation), endpoint parameter
normalization and the version surface.
"""

import argparse
import asyncio
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.ops import OPS, REQUIRED
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

    @pytest.mark.parametrize("endpoint", sorted(OPS))
    @pytest.mark.parametrize(
        "spellings", [("MVT", "mvt"), ("fuzz-007", "fuzz-7")]
    )
    def test_workload_spellings_share_one_key(self, endpoint, spellings):
        params = [
            normalize_params(endpoint, {"workload": name})
            for name in spellings
        ]
        assert params[0]["workload"] == spellings[-1]
        assert len({request_key(endpoint, p) for p in params}) == 1

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
        # the CLI's wording, roster and aliases included
        assert str(err.value) == (
            "unknown model 'gpt5'; available: baseline, ideal, prelaunch, "
            "producer, consumer2, consumer3, consumer4, blockmaestro, bm"
        )

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
            normalize_params("critpath", {"workload": True})

    def test_unknown_endpoint(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("teleport", {})
        assert err.value.status == 404

    def test_non_dict_body(self):
        with pytest.raises(ServeRequestError):
            normalize_params("run", [1, 2, 3])

    def test_none_body_means_defaults(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("compare", None)
        assert "missing required parameter 'workload'" in str(err.value)
        params = normalize_params("run", {"workload": "mvt", "model": None})
        assert params["model"] == "consumer3"

    def test_bench_endpoint_is_gone(self):
        with pytest.raises(ServeRequestError) as err:
            normalize_params("bench", {})
        assert err.value.status == 404


def _subparser(parser, *names):
    for name in names:
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return parser


class TestOpTable:
    """``repro.ops.OPS`` is the one declaration of each op's parameters:
    the client's subcommands and the daemon's normalizer both read it."""

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_client_subparser_matches_the_table(self, op):
        from repro.cli import build_parser

        parser = _subparser(build_parser(), "client", op)
        actions = [
            action for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        params = OPS[op].params
        assert [action.dest for action in actions] == \
            [param.name for param in params]
        for action, param in zip(actions, params):
            if param.default is REQUIRED:
                assert action.option_strings == []
                continue
            assert action.default == param.default
            if param.type is bool:
                assert action.const is True and action.nargs == 0
            else:
                assert tuple(action.choices or ()) == \
                    tuple(param.choices or ())

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_normalizer_rejects_every_other_name(self, op):
        own = {param.name for param in OPS[op].params}
        others = {
            param.name for row in OPS.values() for param in row.params
        } - own
        for name in sorted(others | {"bogus", "quick", "repeats"}):
            with pytest.raises(ServeRequestError) as err:
                normalize_params(op, {"workload": "mvt", name: True})
            assert err.value.status == 400
            assert name in str(err.value)


class TestWarmContext:
    def test_reset_once_it_holds_512_apps(self):
        from repro.serve.server import ReproServer

        server = ReproServer()
        first = server.warm_context()
        first._apps.update((str(i), None) for i in range(511))
        assert server.warm_context() is first
        first._apps["512th"] = None
        fresh = server.warm_context()
        assert fresh is not first
        assert fresh._apps == {}
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.context.resets"] == 1


class TestVersionSurface:
    def test_schema_families_present(self):
        from repro.version import schema_versions

        schemas = schema_versions()
        assert sorted(schemas) == ["critpath", "fuzz", "fuzz_case",
                                   "jdiff", "journal", "serve", "status",
                                   "telemetry"]
        assert all(isinstance(value, int) for value in schemas.values())

    def test_serve_entry_matches_package_constant(self):
        from repro.version import schema_versions

        assert schema_versions()["serve"] == SERVE_SCHEMA_VERSION

    def test_version_lines_shape(self):
        from repro.version import version_lines

        lines = version_lines()
        assert lines[0].startswith("repro ")
        assert lines[1].startswith("schemas: ")
        assert "serve={}".format(SERVE_SCHEMA_VERSION) in lines[1]

