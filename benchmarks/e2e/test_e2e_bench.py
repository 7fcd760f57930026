"""Self-test of the end-to-end benchmark (not part of tier-1's testpaths).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import loads
import pace
import run

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = run.load_spec()


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=False,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_declared_metric(workload, trace, section):
    completed = _run("--workload", workload, "--smoke", "--seed", "1",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stderr
    report, last = completed.stdout.rstrip().rsplit("\n", 1)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    assert measured == declared
    printed = {}
    for text in report.splitlines():
        fields = text.split()
        if len(fields) == 3 and fields[0] in declared:
            printed[fields[0]] = fields[2]
    assert printed == declared
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("measure", [loads.sim_blockmaestro, loads.cli_cold])
def test_planted_signature_mismatch_counts_as_failed(measure):
    planted = dict(checks.load_golden())
    planted[checks.cell("mvt", "consumer3")] = "0" * 64
    job = loads.Job(seed=1, seconds=0.1, golden=planted, smoke=True, setups=1)
    measured = measure(job)
    assert 0 < measured.failed < measured.attempted
    assert any("mvt" in failure for failure in measured.failures)


def _cell_order(seed):
    import layers

    tracer = layers.SpanTracer()
    job = loads.Job(seed=seed, seconds=0.0, golden=checks.load_golden(), smoke=True,
                    setups=1, tracer=tracer)
    loads.sim_serial(job)
    return [(e["args"]["workload"], e["args"]["model"])
            for e in tracer.events(ph="X") if e["name"] == "sim.cell"]


def test_seed_changes_cell_order_but_not_the_cells():
    first, second = _cell_order(1), _cell_order(2)
    assert first != second
    assert sorted(first) == sorted(second)
    assert len(first) == len(set(first)) == 3 * len(loads.SMOKE_WORKLOADS)


def test_failed_cli_call_counts_as_failed(monkeypatch):
    real = loads.run_child

    def planted(mode, *args, **kwargs):
        if mode == "cli" and args[0] == "mvt":
            raise RuntimeError("child.py cli mvt exited 1")
        return real(mode, *args, **kwargs)

    monkeypatch.setattr(loads, "run_child", planted)
    job = loads.Job(seed=1, seconds=0.1, golden=checks.load_golden(), smoke=True,
                    setups=1)
    measured = loads.cli_cold(job)
    assert (measured.attempted, measured.failed) == (2, 1)
    assert "mvt" in measured.failures[0]


def test_pacer_leaves_calibration_out_of_program_time():
    with pace.Pacer(tick_s=0.02) as pacer:
        began = time.monotonic()
        while time.monotonic() - began < 0.3:
            pass
        wall_s, reference_s = pacer.read()
        now = time.monotonic()
    calibrating_s = sum(end - start for start, end in pacer.ticks)
    assert len(pacer.ticks) >= 5
    assert 0.3 <= wall_s + calibrating_s <= now - pacer.started
    assert reference_s > 0


def test_child_time_outside_its_pacer_counts_at_the_nearest_speed():
    report = {"started": 10.0, "first_scale": 0.5, "at": 12.0,
              "reference_s": 1.0, "scale": 2.0}
    assert pace.child_reference_s(9.0, report) == 1.5
    assert pace.child_reference_s(9.0, report, exited=13.0) == 3.5


def test_self_times_partition_each_operation():
    import layers

    tracer = layers.SpanTracer()
    origin = tracer.origin
    tracer.add("sweep", origin + 1.0, origin + 5.0, args={"workload": "mvt"})
    tracer.add("cli.interp", origin + 1.0, origin + 2.0)
    tracer.add("models.run", origin + 3.0, origin + 4.5)
    tracer.add("bench.pace", origin + 1.5, origin + 2.5, tid=1)
    spans = layers.analyse(tracer)
    own = {span.event["name"]: round(span.self_s, 6) for span in spans}
    assert own == {"sweep": 1.5, "cli.interp": 1.0, "models.run": 1.5,
                   "bench.pace": 1.0}
    assert {span.op for span in spans} == {1, 2}
    assert all(span.workload == "mvt" for span in spans if span.op == spans[0].op)
    assert layers.op_seconds(spans) == pytest.approx(5.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run("--workload", "sweep", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout == ""
