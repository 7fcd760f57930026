"""CLI-level tests for ``repro serve`` / ``repro client`` /
``repro bench serve`` / ``repro --version``.

Exercises the command surface the way a user does: in-process
``main([...])`` calls for argument validation and output shape, plus
one real subprocess daemon spawn (the ``repro bench serve`` path) to
prove the announce-line protocol end to end.
"""

import gc
import json
import sys
import warnings

import pytest

from repro.cli import main
from repro.serve import DEFAULT_PORT, SERVE_SCHEMA_VERSION
from repro.serve.server import ServeDaemon


@pytest.fixture(scope="module")
def daemon():
    with ServeDaemon(heartbeat_s=0.5) as running:
        yield running


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_version_output_shape(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("repro ")
        assert out[1].startswith("schemas: ")
        schemas = dict(
            token.split("=") for token in out[1].split()[1:]
        )
        for family in ("bench", "critpath", "fuzz", "journal", "serve",
                       "serve_bench", "status", "telemetry"):
            assert family in schemas, family
        assert schemas["serve"] == str(SERVE_SCHEMA_VERSION)


class TestServeStartupErrors:
    """Satellite: every startup failure is one line on stderr, exit 2,
    never a traceback."""

    def _assert_one_line_error(self, capsys, code, needle):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_non_integer_port(self, capsys):
        code = main(["serve", "--port", "banana"])
        self._assert_one_line_error(capsys, code, "--port")

    def test_out_of_range_port(self, capsys):
        code = main(["serve", "--port", "99999"])
        self._assert_one_line_error(capsys, code, "0..65535")

    def test_negative_port(self, capsys):
        code = main(["serve", "--port", "-1"])
        self._assert_one_line_error(capsys, code, "0..65535")

    def test_unresolvable_host(self, capsys):
        code = main(
            ["serve", "--host", "no.such.host.invalid", "--port", "0"]
        )
        self._assert_one_line_error(capsys, code, "cannot resolve")

    def test_port_in_use(self, daemon, capsys):
        code = main(["serve", "--port", str(daemon.port)])
        self._assert_one_line_error(capsys, code, "cannot bind")


class TestClientCli:
    def _client(self, daemon, capsys, *args):
        code = main(["client", "--url", daemon.base_url] + list(args))
        out = capsys.readouterr().out
        return code, out

    def test_health(self, daemon, capsys):
        code, out = self._client(daemon, capsys, "health")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_run_emits_envelope(self, daemon, capsys):
        code, out = self._client(
            daemon, capsys, "run", "mvt", "--model", "blockmaestro"
        )
        assert code == 0
        envelope = json.loads(out)
        assert envelope["kind"] == "repro-serve-response"
        assert envelope["schema_version"] == SERVE_SCHEMA_VERSION
        assert envelope["endpoint"] == "run"
        assert envelope["params"]["model"] == "consumer3"   # canonical
        assert envelope["result"]["signature"]["makespan_ns"] > 0

    def test_status(self, daemon, capsys):
        from repro.obs.log import validate_status_snapshot

        code, out = self._client(daemon, capsys, "status")
        assert code == 0
        assert validate_status_snapshot(json.loads(out)) == []

    def test_version(self, daemon, capsys):
        code, out = self._client(daemon, capsys, "version")
        assert code == 0
        assert json.loads(out)["schemas"]["serve"] == SERVE_SCHEMA_VERSION

    def test_metrics_raw_text(self, daemon, capsys):
        from repro.obs.prom import validate_exposition

        code, out = self._client(daemon, capsys, "metrics")
        assert code == 0
        assert validate_exposition(out) == []

    def test_workloads(self, daemon, capsys):
        code, out = self._client(daemon, capsys, "workloads")
        assert code == 0
        assert any(
            entry["name"] == "mvt" for entry in json.loads(out)
        )

    def test_unknown_workload_exit_2(self, daemon, capsys):
        code = main(
            ["client", "--url", daemon.base_url, "run", "nosuch"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown workload" in captured.err
        assert "Traceback" not in captured.err

    def test_daemon_down_exit_2(self, capsys):
        code = main(
            ["client", "--url", "http://127.0.0.1:1", "health"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot reach repro serve")

    def test_default_url_from_env(self, daemon, capsys, monkeypatch):
        from repro.serve import SERVE_URL_ENV

        monkeypatch.setenv(SERVE_URL_ENV, daemon.base_url)
        code = main(["client", "health"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_default_port_constant(self):
        from repro.serve.client import default_url

        assert default_url().endswith(str(DEFAULT_PORT))


class TestBenchServe:
    def test_bench_against_running_daemon(self, daemon, tmp_path, capsys):
        """`repro bench serve --url ...`: report written + validated,
        coalescing gate green, no daemon spawn needed."""
        out_path = str(tmp_path / "SERVEBENCH_test.json")
        code = main([
            "bench", "serve", "--url", daemon.base_url,
            "--requests", "6", "--concurrency", "2", "--burst", "4",
            "--baseline", "0", "-o", out_path,
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "coalesce" in captured.out
        with open(out_path) as handle:
            payload = json.load(handle)
        from repro.bench.serve import validate_serve_bench_report

        assert validate_serve_bench_report(payload) == []
        coalesce = payload["phases"]["coalesce"]
        assert coalesce["simulations"] == 1
        assert coalesce["completed"] == coalesce["burst"] == 4
        assert coalesce["counters"]["followers_delta"] == 3
        assert payload["phases"]["throughput"]["rps"] > 0

    def test_spawned_daemon_protocol(self):
        """The announce-line spawn protocol end to end (subprocess)."""
        from repro.bench.serve import SpawnedDaemon
        from repro.serve.client import ServeClient

        with SpawnedDaemon() as spawned:
            assert spawned.url.startswith("http://127.0.0.1:")
            client = ServeClient(spawned.url)
            assert client.health()["status"] == "ok"
            assert client.version()["schemas"]["serve"] == \
                SERVE_SCHEMA_VERSION

    def test_spawned_daemon_stop_closes_its_pipe(self):
        """With ResourceWarning raised as an error, starting and stopping
        a spawned daemon leaves no unclosed file behind."""
        from repro.bench.serve import SpawnedDaemon

        raised = []
        hook = sys.unraisablehook   # where errors in __del__ surface
        sys.unraisablehook = raised.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                spawned = SpawnedDaemon().start()
                process = spawned.process
                spawned.stop()
                assert process.stdout.closed
                del spawned, process
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [str(entry.exc_value) for entry in raised] == []
