"""Integration tests for the bench CLI family and error-exit contract.

Covers the acceptance criteria: ``repro bench run`` emits a
schema-valid ``BENCH_*.json``; an injected artificial slowdown makes
``repro bench diff`` exit non-zero on the wall-clock band; any
simulated-metric change is flagged with zero tolerance; a file diffed
against itself passes; unknown workload/model names exit 2 with a
one-line message.
"""

import copy
import glob
import json
import os

import pytest

from repro.bench import validate_report
from repro.cli import main


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    """One real quick-suite run on the fastest workload, reused below."""
    out_dir = tmp_path_factory.mktemp("bench")
    code = main(
        [
            "bench", "run",
            "--filter", "mvt",
            "--models", "baseline", "blockmaestro",
            "--repeats", "2",
            "--warmup", "0",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    (path,) = glob.glob(str(out_dir / "BENCH_*.json"))
    with open(path) as handle:
        payload = json.load(handle)
    return path, payload


class TestBenchRun:
    def test_emits_schema_valid_report(self, bench_report):
        path, payload = bench_report
        assert os.path.basename(path).startswith("BENCH_")
        assert validate_report(payload) == []

    def test_report_contents(self, bench_report):
        _path, payload = bench_report
        models = payload["workloads"]["mvt"]["models"]
        assert set(models) == {"baseline", "consumer3"}
        baseline = models["baseline"]["simulated"]
        headline = models["consumer3"]["simulated"]
        assert baseline["speedup_vs_baseline"] == pytest.approx(1.0)
        assert headline["speedup_vs_baseline"] > 1.0
        assert headline["makespan_ns"] > 0
        # DLB/PCB occupancy counters from the hardware model
        assert any(key.startswith("hw.") for key in headline)
        wall = models["consumer3"]["wall"]
        assert wall["total_s"]["p50"] > 0
        assert wall["total_s"]["repeats"] == 2
        assert set(wall["phases"]) == {"parse", "analyze", "encode", "simulate"}
        assert wall["phases"]["simulate"]["p50"] > 0

    def test_git_and_host_metadata_present(self, bench_report):
        _path, payload = bench_report
        assert payload["host"]["python"]
        assert "commit" in payload["git"]

    def test_explicit_output_path(self, tmp_path, capsys):
        out = tmp_path / "custom.json"
        code = main(
            [
                "bench", "run", "--filter", "mvt", "--models", "baseline",
                "--repeats", "1", "--warmup", "0", "-o", str(out),
            ]
        )
        assert code == 0
        assert validate_report(json.loads(out.read_text())) == []
        assert "bench run" in capsys.readouterr().out

    def test_profile_embeds_hotspots(self, tmp_path):
        out = tmp_path / "profiled.json"
        code = main(
            [
                "bench", "run", "--filter", "mvt", "--models", "baseline",
                "--repeats", "1", "--warmup", "0", "--profile",
                "--profile-top", "5", "-o", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_report(payload) == []
        profile = payload["workloads"]["mvt"]["models"]["baseline"]["profile"]
        assert 0 < len(profile) <= 5
        assert profile[0]["cumtime_s"] >= profile[-1]["cumtime_s"]


class TestBenchDiff:
    def test_self_diff_passes(self, bench_report, capsys):
        path, _payload = bench_report
        assert main(["bench", "diff", path, path]) == 0
        assert "bench diff: OK" in capsys.readouterr().out

    def test_injected_slowdown_fails(self, bench_report, tmp_path, capsys):
        path, payload = bench_report
        slow = copy.deepcopy(payload)
        for model in slow["workloads"]["mvt"]["models"].values():
            block = model["wall"]["total_s"]
            for key in ("p50", "p95", "max", "mean"):
                # 3x, and by more than the differ's 10 ms absolute floor:
                # an mvt run takes only a few milliseconds
                block[key] = block[key] * 3.0 + 0.1
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        assert main(["bench", "diff", path, str(slow_path)]) == 1
        out = capsys.readouterr().out
        assert "WALL-CLOCK REGRESSIONS" in out
        # reversed order: the slowdown becomes an improvement, diff passes
        assert main(["bench", "diff", str(slow_path), path]) == 0

    def test_simulated_drift_zero_tolerance(self, bench_report, tmp_path, capsys):
        path, payload = bench_report
        drifted = copy.deepcopy(payload)
        sim = drifted["workloads"]["mvt"]["models"]["consumer3"]["simulated"]
        sim["makespan_ns"] += 1  # one nanosecond: still a failure
        drift_path = tmp_path / "drift.json"
        drift_path.write_text(json.dumps(drifted))
        assert main(["bench", "diff", path, str(drift_path)]) == 1
        assert "SIMULATED DRIFT" in capsys.readouterr().out

    def test_wide_tolerance_still_fails_on_drift(self, bench_report, tmp_path):
        path, payload = bench_report
        drifted = copy.deepcopy(payload)
        drifted["workloads"]["mvt"]["models"]["baseline"]["simulated"][
            "stall_median"
        ] = 0.123456
        drift_path = tmp_path / "d.json"
        drift_path.write_text(json.dumps(drifted))
        # tolerance bands apply to wall clock only, never simulated metrics
        assert main(
            ["bench", "diff", path, str(drift_path), "--tolerance", "9.9"]
        ) == 1

    def test_invalid_file_exits_2(self, bench_report, tmp_path, capsys):
        path, _payload = bench_report
        junk = tmp_path / "junk.json"
        junk.write_text("{\"kind\": \"nope\"}")
        assert main(["bench", "diff", path, str(junk)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchTrend:
    def test_trend_over_two_reports(self, bench_report, tmp_path, capsys):
        path, payload = bench_report
        first = tmp_path / "BENCH_20260804T000000Z.json"
        first.write_text(json.dumps(payload))
        second = copy.deepcopy(payload)
        second["created_utc"] = "2026-08-06T00:00:00Z"
        (tmp_path / "BENCH_20260806T000000Z.json").write_text(json.dumps(second))
        assert main(["bench", "trend", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bench trend" in out
        assert "consumer3" in out

    def test_unknown_metric_exits_2(self, tmp_path, capsys):
        assert main(["bench", "trend", str(tmp_path), "--metric", "vibes"]) == 2
        assert "error:" in capsys.readouterr().err


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
            ["bench", "run", "--filter", "nosuch"],
        ],
    )
    def test_unknown_workload_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown workload" in err or "no workload matches" in err

    def test_unknown_model_exits_2(self, capsys):
        assert main(["bench", "run", "--models", "warpdrive"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown model" in err

    @pytest.mark.parametrize(
        "env, kind, value",
        [
            pytest.param("REPRO_ENGINE", "engine", "bogus",
                         id="REPRO_ENGINE-engine"),
            pytest.param("REPRO_FASTPATH", "fastpath", "bogus",
                         id="REPRO_FASTPATH-fastpath"),
            pytest.param("REPRO_ENGINE", "engine", "closed_form",
                         id="REPRO_ENGINE-engine-closed_form"),
        ],
    )
    def test_bad_mode_env_var_exits_2(self, env, kind, value, monkeypatch,
                                      capsys):
        monkeypatch.setenv(env, value)
        assert main(["run", "mvt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: {}: unknown {} mode {!r}".format(
            env, kind, value))
        assert err.count("\n") == 1

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
        ],
    )
    def test_out_of_range_argument_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
