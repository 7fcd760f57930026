"""Integration tests for the serve daemon over real loopback HTTP.

One in-process :class:`~repro.serve.server.ServeDaemon` (background
thread, ephemeral port) serves a module's worth of tests:

* the observability plane — ``/healthz``, ``/statusz`` (repro-status
  schema), ``/metrics`` (exposition-format validated), ``/events``
  (SSE), the structured access-log request ids;
* the coalescing contract — N concurrent identical requests perform
  exactly one simulation, counter-verified;
* **the differential gate** — for every registry workload and every
  roster model, the daemon's ``/v1/run`` result is byte-identical to
  the in-process CLI path (cold and warm cache);
* error discipline — 404/400/409 JSON errors, startup failures.
"""

import json
import socket
import threading
import time

import pytest

from repro.experiments.common import STANDARD_MODELS
from repro.obs.log import validate_status_snapshot
from repro.obs.prom import validate_exposition
from repro.serve import SERVE_KIND, SERVE_SCHEMA_VERSION
from repro.serve.client import ClientError, SchemaMismatchError, ServeClient
from repro.serve.server import ServeDaemon
from repro.version import schema_versions
from repro.workloads import all_workloads

MODEL_NAMES = [m[0] for m in STANDARD_MODELS]
WORKLOADS = [spec.name for spec in all_workloads()]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    status_file = str(
        tmp_path_factory.mktemp("serve") / "statusfile.json"
    )
    with ServeDaemon(heartbeat_s=0.2, status_file=status_file) as running:
        running.status_file_path = status_file
        yield running


@pytest.fixture()
def client(daemon):
    return ServeClient(daemon.base_url)


class TestObservabilityPlane:
    def test_healthz(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["pid"] > 0
        assert payload["uptime_s"] >= 0

    def test_statusz_is_valid_repro_status(self, client):
        payload = client.statusz()
        assert validate_status_snapshot(payload) == []
        assert payload["phase"] == "serve"
        assert payload["total"] >= payload["completed"]

    def test_version_handshake_surface(self, client):
        payload = client.version()
        assert payload["serve_schema_version"] == SERVE_SCHEMA_VERSION
        assert payload["schemas"]["serve"] == SERVE_SCHEMA_VERSION
        assert payload["schemas"] == schema_versions()

    def test_workloads_lists_registry(self, client):
        names = [entry["name"] for entry in client.workloads()]
        assert names == WORKLOADS

    def test_metrics_exposition_validates(self, client):
        # ensure at least one sim family exists
        client.call("run", workload="mvt")
        text = client.metrics()
        assert validate_exposition(text) == []
        assert "repro_serve_requests_post_run_total" in text
        assert "repro_serve_latency_ms_post_run" in text
        assert "repro_serve_uptime_seconds" in text
        assert 'service="repro-serve"' in text

    def test_status_file_written_and_valid(self, daemon, client):
        client.health()
        deadline = threading.Event()
        deadline.wait(0.5)  # at least one heartbeat interval
        with open(daemon.status_file_path) as handle:
            snapshot = json.load(handle)
        assert validate_status_snapshot(snapshot) == []
        assert snapshot["phase"] == "serve"

    def test_events_stream_sees_request_lifecycle(self, daemon, client):
        events = []
        collected = threading.Event()

        def tail():
            tail_client = ServeClient(daemon.base_url)
            for event in tail_client.events(max_events=8, timeout=15.0):
                events.append(event)
                kinds = {e["kind"] for e in events}
                if {"sim.start", "sim.done", "request"} <= kinds:
                    collected.set()
                    return

        thread = threading.Thread(target=tail, daemon=True)
        thread.start()
        threading.Event().wait(0.3)     # let the subscriber attach
        client.call("run", workload="bicg", model="ideal")
        collected.wait(15.0)
        kinds = {event["kind"] for event in events}
        assert "hello" in kinds or "heartbeat" in kinds
        assert {"sim.start", "sim.done", "request"} <= kinds
        done = next(e for e in events if e["kind"] == "sim.done")
        assert done["endpoint"] == "run"
        assert done["request_id"].startswith("r")

    def test_events_subscriber_disconnect_is_a_normal_end(self, capsys):
        """A subscriber that closes its socket makes a later heartbeat
        write fail; that ends the stream, it is not an internal error."""
        with ServeDaemon(heartbeat_s=0.05) as running:
            server = running.server
            with socket.create_connection(
                ("127.0.0.1", running.port), timeout=10.0
            ) as sock:
                sock.sendall(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
                received = b""
                while b"event: hello" not in received:
                    chunk = sock.recv(4096)
                    assert chunk, "stream closed before the hello frame"
                    received += chunk
            # at least two heartbeats, then until the stream has ended
            threading.Event().wait(0.1)
            deadline = time.monotonic() + 10.0
            while server._requests_finished < 1 and time.monotonic() < deadline:
                threading.Event().wait(0.05)
            counters = server.metrics.snapshot()["counters"]
        assert server._requests_finished == 1
        assert counters.get("serve.errors.internal", 0) == 0
        assert counters.get("serve.errors.get_events", 0) == 0
        assert '"GET /events" 200' in capsys.readouterr().err


class TestCachingAndCoalescing:
    def test_repeat_request_is_cached_with_same_key(self, client):
        first = client.call("run", workload="mvt", model="consumer3")
        second = client.call("run", workload="mvt", model="consumer3")
        assert first["key"] == second["key"]
        assert second["source"] == "cached"
        assert second["result"] == first["result"]

    def test_model_alias_shares_the_key(self, client):
        canonical = client.call("run", workload="mvt", model="consumer3")
        alias = client.call("run", workload="mvt", model="blockmaestro")
        assert alias["key"] == canonical["key"]
        assert alias["source"] == "cached"

    def test_concurrent_identical_requests_simulate_once(
        self, daemon, client, monkeypatch
    ):
        """The tentpole contract: N concurrent identical requests ->
        exactly one simulation, proven by sources AND counters."""
        from repro.serve import server

        workload, model = "lud", "prelaunch"     # a cold key
        burst = 6
        before = client.statusz()

        def counter(name):
            return daemon.server.metrics.snapshot()["counters"].get(name, 0)

        sim_runs_before = counter("serve.sim.run")
        followers = counter("serve.coalesce.followers") + burst - 1
        compute = server.op_result

        def held(*args):
            # the leader computes only once every follower has joined:
            # a follower arriving after it finished would hit the cache
            deadline = time.monotonic() + 30.0
            while (counter("serve.coalesce.followers") < followers
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return compute(*args)

        monkeypatch.setattr(server, "op_result", held)
        results = []
        barrier = threading.Barrier(burst)

        def fire():
            burst_client = ServeClient(daemon.base_url)
            barrier.wait(timeout=30.0)
            results.append(
                burst_client.call("run", workload=workload, model=model)
            )

        threads = [threading.Thread(target=fire) for _ in range(burst)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)

        assert len(results) == burst
        sources = sorted(entry["source"] for entry in results)
        assert sources.count("simulated") == 1
        assert sources.count("coalesced") == burst - 1
        assert len({entry["key"] for entry in results}) == 1
        payloads = {
            json.dumps(entry["result"], sort_keys=True)
            for entry in results
        }
        assert len(payloads) == 1        # every caller got the same answer

        after = client.statusz()
        assert after["coalesce_leaders"] - before["coalesce_leaders"] == 1
        assert (
            after["coalesce_followers"] - before["coalesce_followers"]
            == burst - 1
        )
        sim_runs_after = daemon.server.metrics.snapshot()["counters"][
            "serve.sim.run"
        ]
        assert sim_runs_after - sim_runs_before == 1


class TestErrorDiscipline:
    def test_unknown_workload_404(self, client):
        with pytest.raises(ClientError) as err:
            client.call("run", workload="nosuch")
        assert "unknown workload" in str(err.value)

    def test_unknown_model_404(self, client):
        with pytest.raises(ClientError) as err:
            client.call("run", workload="mvt", model="gpt5")
        assert "unknown model" in str(err.value)

    def test_unknown_parameter_400(self, client):
        with pytest.raises(ClientError) as err:
            client._request(
                "POST", "/v1/run", body={"workload": "mvt", "bogus": 1}
            )
        assert "bogus" in str(err.value)

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ClientError):
            client._request("POST", "/v1/teleport", body={})

    def test_unknown_path_404(self, client):
        with pytest.raises(ClientError):
            client._request("GET", "/nope")

    def test_method_not_allowed(self, client):
        with pytest.raises(ClientError):
            client._request("POST", "/healthz", body={})

    def test_schema_mismatch_409(self, daemon):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/v1/run",
                body=json.dumps({"workload": "mvt"}),
                headers={"X-Repro-Serve-Schema": "999"},
            )
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 409
        assert "schema mismatch" in body["error"]

    def test_client_handshake_rejects_mismatch(self, daemon, monkeypatch):
        # daemon and client share this process's modules, so fake the
        # daemon side: a /version that reports a different serve schema
        fresh = ServeClient(daemon.base_url)
        monkeypatch.setattr(
            fresh, "version",
            lambda: {"serve_schema_version": SERVE_SCHEMA_VERSION + 7},
        )
        with pytest.raises(SchemaMismatchError):
            fresh.call("run", workload="mvt")

    def test_error_body_shape(self, client):
        try:
            client._request("POST", "/v1/run", body={})
        except ClientError as exc:
            assert "workload" in str(exc)
        else:
            pytest.fail("expected ClientError")

    def test_daemon_survives_errors(self, client):
        for _ in range(3):
            with pytest.raises(ClientError):
                client.call("run", workload="nosuch")
        assert client.health()["status"] == "ok"


class TestStartupFailures:
    def test_port_in_use(self, daemon):
        clashing = ServeDaemon(port=daemon.port)
        from repro.serve.server import ServeStartupError

        with pytest.raises(ServeStartupError) as err:
            clashing.start()
        assert "cannot bind" in str(err.value)

    def test_unresolvable_host_preflight(self):
        from repro.serve.server import ServeStartupError, preflight_host

        with pytest.raises(ServeStartupError):
            preflight_host("no.such.host.invalid", 0)


class TestEndpointParity:
    """Non-run endpoints return the same schema-validated reports the
    CLI pipelines produce."""

    def test_critpath_report_schema(self, client):
        from repro.obs.critpath import validate_critpath_report

        envelope = client.call("critpath", workload="mvt")
        assert envelope["kind"] == SERVE_KIND
        assert validate_critpath_report(envelope["result"]) == []

    def test_telemetry_report_schema(self, client):
        from repro.obs.telemetry import validate_telemetry_report

        envelope = client.call("telemetry", workload="mvt")
        assert validate_telemetry_report(envelope["result"]) == []

    def test_compare_covers_roster(self, client):
        envelope = client.call("compare", workload="mvt")
        result = envelope["result"]
        assert [run["model"] for run in result["runs"]] == MODEL_NAMES
        assert result["baseline"] == "baseline"
        assert set(result["signatures"]) == set(MODEL_NAMES)

    def test_run_with_engine_pin(self, client):
        pinned = client.call(
            "run", workload="mvt", model="consumer3", engine="reference"
        )
        free = client.call("run", workload="mvt", model="consumer3")
        assert pinned["key"] != free["key"]     # engine is key material
        assert pinned["result"]["signature"] == \
            free["result"]["signature"]         # but changes nothing

    def test_run_with_journal_digest(self, client):
        envelope = client.call("run", workload="bicg", journal=True)
        journal = envelope["result"]["journal"]
        assert journal["digest"].startswith("sha256:")
        assert journal["num_events"] > 0


class TestDifferentialGate:
    """Every registry workload x roster model: the daemon's response is
    byte-identical to the in-process CLI path, cold and warm."""

    @pytest.mark.parametrize("wname", WORKLOADS)
    def test_daemon_matches_cli_path(self, wname, daemon, capsys):
        from repro.cli import main

        daemon_client = ServeClient(daemon.base_url)
        for model in MODEL_NAMES:
            # the in-process CLI path: `repro run --json -`
            assert main(["run", wname, "--model", model, "--json", "-"]) == 0
            local = json.loads(capsys.readouterr().out)

            cold = daemon_client.call("run", workload=wname, model=model)
            warm = daemon_client.call("run", workload=wname, model=model)
            assert warm["source"] == "cached"

            for envelope in (cold, warm):
                remote = dict(envelope["result"])
                signature = remote.pop("signature")
                remote.pop("workload")
                assert json.dumps(remote, sort_keys=True) == \
                    json.dumps(local, sort_keys=True), (
                        "daemon/{} response diverged from CLI for "
                        "{}/{}".format(envelope["source"], wname, model)
                    )
                # the signature the daemon attaches matches the
                # payload it attaches it to
                assert signature["makespan_ns"] == local["makespan_ns"]


#: op -> the daemon-only fields its result carries beside the CLI payload
DAEMON_ONLY_FIELDS = {"compare": ("signatures",), "critpath": (),
                      "telemetry": ()}


class TestAllOpDifferentialGate:
    """compare, critpath (with and without what-if) and telemetry: the
    daemon's result, minus its daemon-only fields, equals the in-process
    ``repro <op> W --json -`` payload."""

    @pytest.mark.parametrize("op", sorted(DAEMON_ONLY_FIELDS))
    @pytest.mark.parametrize(
        "wname",
        # eng-fc and fuzz-007 name an application other than themselves
        # (eng-fc-k6-n512, fuzz-7)
        ["mvt", "path", "fdtd-2d", "eng-fc", "fuzz-007"],
    )
    def test_daemon_matches_cli(self, wname, op, daemon, capsys):
        from repro.cli import main

        daemon_client = ServeClient(daemon.base_url)
        variants = [((), {})]
        if op == "critpath":
            variants.append((("--whatif",), {"whatif": True}))
        for flags, params in variants:
            argv = [op, wname, "--json", "-"] + list(flags)
            assert main(argv) == 0
            local = json.loads(capsys.readouterr().out)
            envelope = daemon_client._request(
                "POST", "/v1/{}".format(op),
                body=dict(params, workload=wname),
            )
            remote = dict(envelope["result"])
            for field in DAEMON_ONLY_FIELDS[op]:
                remote.pop(field)
            assert json.dumps(remote, sort_keys=True) == \
                json.dumps(local, sort_keys=True), (
                    "daemon {} diverged from `repro {}`".format(
                        op, " ".join(argv))
                )
