"""Integration tests for the CLI's general contract.

``repro list --json`` is the machine-readable registry, and bad input
of any kind (unknown names, out-of-range counts, bad mode environment
variables, output paths that cannot be written) exits 2 with a
one-line message, never a traceback.
"""

import json

import pytest

from repro.cli import main


class TestListJson:
    def test_list_json_stdout(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 12
        names = [row["name"] for row in rows]
        assert "mvt" in names and "gaussian" in names
        assert all("suite" in row and "paper_kernels" in row for row in rows)

    def test_list_json_to_file(self, tmp_path):
        out = tmp_path / "wl.json"
        assert main(["list", "--json", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 12

    def test_list_table_unchanged(self, capsys):
        assert main(["list"]) == 0
        assert "Benchmark suite" in capsys.readouterr().out


class TestErrorExits:
    """Unknown names exit 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "nosuch"],
            ["analyze", "nosuch"],
            ["blame", "nosuch"],
            ["trace", "nosuch"],
            ["compare", "nosuch"],
        ],
    )
    def test_unknown_workload_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown workload" in err

    def test_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "mvt", "--model", "warpdrive"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--model: invalid choice: 'warpdrive'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "env, kind, value, argv",
        [
            pytest.param("REPRO_ENGINE", "engine", "bogus", ["run", "mvt"],
                         id="REPRO_ENGINE-engine"),
            pytest.param("REPRO_FASTPATH", "fastpath", "bogus",
                         ["run", "mvt"], id="REPRO_FASTPATH-fastpath"),
            pytest.param("REPRO_ENGINE", "engine", "closed_form",
                         ["run", "mvt"],
                         id="REPRO_ENGINE-engine-closed_form"),
            pytest.param("REPRO_ENGINE", "engine", "bogus",
                         ["client", "health"],
                         id="REPRO_ENGINE-engine-client"),
        ],
    )
    def test_bad_mode_env_var_exits_2(self, env, kind, value, argv,
                                      monkeypatch, capsys):
        monkeypatch.setenv(env, value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: {}: unknown {} mode {!r}".format(
            env, kind, value))
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "env, argv, source, level",
        [
            pytest.param(None, ["--log", "chatty", "list"], "--log",
                         "chatty", id="flag"),
            pytest.param("bogus", ["fuzz", "--count", "1"], "REPRO_LOG",
                         "bogus", id="env"),
            pytest.param("bogus", ["--log", "info:fuzz", "list"], "--log",
                         "info:fuzz", id="flag-with-subsystems"),
        ],
    )
    def test_unknown_log_level_exits_2(self, env, argv, source, level,
                                       monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("REPRO_LOG", raising=False)
        else:
            monkeypatch.setenv("REPRO_LOG", env)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: {}: unknown log level {!r}".format(source, level)
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["analyze", "mvt", "--window", "0"],
                         "--window: must be >= 1 (got 0)",
                         id="analyze-window-0"),
            pytest.param(["analyze", "mvt", "--window", "-1"],
                         "--window: must be >= 1 (got -1)",
                         id="analyze-window-negative"),
            pytest.param(["validate", "mvt", "--window", "0"],
                         "--window: must be >= 1 (got 0)",
                         id="validate-window-0"),
            pytest.param(["analyze", "mvt", "--limit", "-3"],
                         "--limit: must be >= 0 (got -3)",
                         id="analyze-limit-negative"),
            pytest.param(["jdiff", "a.jsonl", "b.jsonl", "--window", "-3"],
                         "--window: must be >= 0 (got -3)",
                         id="jdiff-window-negative"),
            pytest.param(["run", "mvt", "--engine", "closed_form"],
                         "--engine: invalid choice: 'closed_form'",
                         id="run-engine-closed_form"),
            pytest.param(["fuzz", "--count", "1", "--jobs", "-3"],
                         "--jobs: must be >= 1 (got -3)",
                         id="fuzz-jobs-negative"),
            # only fuzz has a pool: the other two run on one context
            pytest.param(["compare", "mvt", "--jobs", "2"],
                         "unrecognized arguments: --jobs 2",
                         id="compare-jobs-removed"),
            pytest.param(["experiments", "tab1", "--jobs", "2"],
                         "unrecognized arguments: --jobs 2",
                         id="experiments-jobs-removed"),
            # the engine sweep always checks auto against the oracle
            pytest.param(["fuzz", "--count", "1", "--engines", "none"],
                         "unrecognized arguments: --engines none",
                         id="fuzz-engines-removed"),
            # and the mode sweep checks the one fast path, auto
            pytest.param(["fuzz", "--count", "1", "--modes", "auto"],
                         "unrecognized arguments: --modes auto",
                         id="fuzz-modes-removed"),
            pytest.param(["dot", "mvt", "--pair", "-4"],
                         "--pair: must be >= 0 (got -4)",
                         id="dot-pair-negative"),
            pytest.param(["dot", "mvt", "--max-nodes", "-1"],
                         "--max-nodes: must be >= 1 (got -1)",
                         id="dot-max-nodes-negative"),
            pytest.param(["client", "events", "--count", "0"],
                         "--count: must be >= 1 (got 0)",
                         id="client-events-count-0"),
            pytest.param(["run", "mvt", "--width", "0"],
                         "--width: must be >= 1 (got 0)",
                         id="run-width-0"),
            pytest.param(["run", "mvt", "--width", "-5"],
                         "--width: must be >= 1 (got -5)",
                         id="run-width-negative"),
            pytest.param(["compare", "mvt", "--width", "0"],
                         "--width: must be >= 1 (got 0)",
                         id="compare-width-0"),
        ],
    )
    def test_out_of_range_argument_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "mvt", "--json", "BAD"],
        ["compare", "mvt", "--json", "BAD"],
        ["trace", "mvt", "-o", "BAD"],
        ["blame", "mvt", "--out", "BAD"],
        ["critpath", "mvt", "--json", "BAD"],
        ["journal", "mvt", "--out", "BAD"],
        ["telemetry", "mvt", "--prom", "BAD"],
        ["report", "mvt", "--out", "BAD"],
        ["fuzz", "--count", "1", "--json", "BAD"],
        ["experiments", "tab1", "--out", "BAD"],
        ["experiments", "tab1", "--status-file", "BAD"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_unwritable_output_path_exits_2(self, argv, tmp_path, capsys):
        # a path under a regular file: unwritable even for root, who
        # ignores directory permissions
        blocker = tmp_path / "file"
        blocker.write_text("")
        bad = str(blocker / "out")
        assert main([bad if arg == "BAD" else arg for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        # fuzz logs one progress line before it writes anything
        assert len(lines) == (2 if argv[0] == "fuzz" else 1), err
        assert lines[-1].startswith("error: cannot write {}".format(bad))

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiments", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: unknown experiment 'nosuch'; available: fig09, "
        )
        assert captured.err.count("\n") == 1
        assert captured.out == ""
