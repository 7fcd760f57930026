"""The four benchmark workloads.

Each workload function takes a :class:`Job` and returns a
:class:`Measured`: set-up times, the latency of each measured
operation, work done per second, peak memory, the outcome of the
output checks, and workload-specific numbers for the report.  Times
are reference seconds (see ``pace.py``), each taken by a pacer in the
process that does the work; the wall times are kept for the report.

Inputs are the fixed registry workloads.  ``Job.seed`` drives only the
order of cells and CLI calls, so every seed does the same work and the
same outputs are checked.  Every load comes from this process, one
operation at a time.
"""

import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import checks
import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

#: registry subset for ``--smoke`` (each is sub-second end to end)
SMOKE_WORKLOADS = ("mvt", "bicg", "path")
#: cli-cold: the registry workloads whose ``repro run`` is dominated
#: by process start rather than by analysis or simulation
CLI_WORKLOADS = ("mvt", "bicg", "path", "3mm", "hs", "fdtd-2d", "lud")
CLI_MODEL = "consumer3"
#: sim-*: the models on each side of the engine's tier choice
SIM_MODELS = {
    # fine-grain dependency tracking: 40 of 48 cells run the scalar engine
    "sim-blockmaestro": ("producer", "consumer2", "consumer3", "consumer4"),
    # device-serial models: every cell is served by the vectorized tier
    "sim-serial": ("baseline", "ideal", "prelaunch"),
}

#: samples a tail percentile must leave beyond it, and the highest one
TAIL_BEYOND = 10
TAIL_MAX_Q = 0.99


@dataclass
class Job:
    seed: int
    seconds: float
    golden: Dict[str, str]
    smoke: bool = False
    setups: int = 3
    #: a ``layers.SpanTracer`` for traced runs
    tracer: Optional[object] = None


@dataclass
class Measured:
    #: reference seconds of each set-up
    setup_s: List[float] = field(default_factory=list)
    #: reference and wall milliseconds of each measured operation
    latencies_ms: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)
    #: work items per reference second (cells, TBs or calls)
    throughput: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def operation(self, reference_s, wall_s):
        self.latencies_ms.append(reference_s * 1e3)
        self.wall_ms.append(wall_s * 1e3)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values, q):
    """The program's linear-interpolation percentile (0.0 when empty)."""
    from repro.obs.metrics import percentile as sorted_percentile

    return sorted_percentile(sorted(values), q)


def tail_q(samples):
    """The highest percentile (up to p99) with ``TAIL_BEYOND`` samples
    beyond it; the median when there are too few samples for a tail."""
    return min(TAIL_MAX_Q, max(0.5, 1.0 - TAIL_BEYOND / max(samples, 1)))


def timeboxed(seconds, minimum=1):
    """Yield 0, 1, ...: at least ``minimum`` times, then as long as one
    more iteration as long as the previous one ends within ``seconds``."""
    start = time.monotonic()
    last = 0.0
    index = 0
    while index < minimum or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        yield index
        last = time.monotonic() - began
        index += 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def run_child(*args, timeout=120):
    """Run ``child.py ARGS`` to completion.

    Returns ``(spawned, exited, payload, stdout)``: the wall clock
    around it, the JSON line it prints last, and what it printed before
    that line.  A child that fails raises, with its standard error."""
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, CHILD, *args], env=child_env(), capture_output=True,
        text=True, timeout=timeout, check=False,
    )
    exited = time.monotonic()
    stdout, _, last = completed.stdout.rstrip("\n").rpartition("\n")
    if completed.returncode != 0:
        raise RuntimeError("child.py {} exited {}: {}".format(
            " ".join(args), completed.returncode, completed.stderr[-2000:]))
    return spawned, exited, json.loads(last), stdout


def import_probe_s(module=None):
    """``(reference, wall)`` seconds of a fresh interpreter importing
    ``module`` (nothing without one), from spawn to exit."""
    spawned, exited, payload, _ = run_child("import", *([module] if module else []))
    return pace.child_reference_s(spawned, payload["done"], exited), exited - spawned


def children_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_span(tracer, name, **args):
    return tracer.span(name, args=args) if tracer else nullcontext()


def registry_names(smoke):
    from repro.workloads import workload_names

    return list(SMOKE_WORKLOADS) if smoke else workload_names()


def _import_setups(out, job, module):
    for _ in range(job.setups):
        reference_s, wall_s = import_probe_s(module)
        out.setup_s.append(reference_s)
        out.extra["setup_wall_s"] = wall_s


# ----------------------------------------------------------------------
# sweep: the paper's Fig. 9 reproduction in a fresh process
# ----------------------------------------------------------------------
def sweep(job):
    from repro.experiments.common import STANDARD_MODELS

    out = Measured()
    names = registry_names(job.smoke)
    models = [m[0] for m in STANDARD_MODELS]
    _import_setups(out, job, "repro.experiments.fig09_speedup")
    rng = random.Random(job.seed)
    tracer = job.tracer
    cells = 0
    for _ in timeboxed(job.seconds):
        order = rng.sample(names, len(names))
        spawned, _exited, payload, _ = run_child(
            "sweep", ",".join(order), *(["--trace"] if tracer else []))
        ready = payload["ready"]
        out.operation(pace.child_reference_s(spawned, ready), ready["at"] - spawned)
        signatures = payload["signatures"]
        out.check(len(signatures) == len(names) * len(models),
                  "sweep produced {} cells".format(len(signatures)))
        for key, value in sorted(signatures.items()):
            out.check(job.golden.get(key) == value, "sweep cell {}".format(key))
        cells += len(signatures)
        out.extra["geomean_consumer3"] = payload["geomean"]["consumer3"]
        if tracer:
            tracer.add("sweep", spawned, ready["at"], args={"order": order})
            tracer.add("cli.interp", spawned, payload["t_main"])
            tracer.merge(payload["trace"])
    out.throughput = cells / (sum(out.latencies_ms) / 1e3)
    out.peak_rss_mb = children_peak_rss_mb()
    out.extra["sweeps"] = len(out.latencies_ms)
    return out


# ----------------------------------------------------------------------
# sim-*: simulate only, plans built in set-up
# ----------------------------------------------------------------------
def simulate(job, models):
    from repro.experiments.common import (
        ExperimentContext,
        _make_model,
        _model_plan_params,
    )

    out = Measured()
    names = registry_names(job.smoke)
    tracer = job.tracer
    with pace.Pacer() as pacer:
        for _ in range(job.setups):
            plans = context = None
            gc.collect()
            _, before = pacer.read()
            with op_span(tracer, "setup"):
                context = ExperimentContext()
                plans = {
                    (name, model): context.plan_for(
                        context.app(name), *_model_plan_params(model))
                    for name in names for model in models
                }
            out.setup_s.append(pacer.read()[1] - before)
        cells = sorted(plans)
        rng = random.Random(job.seed)
        rates = []
        for _ in timeboxed(job.seconds):
            gc.collect()
            wall = reference = 0.0
            tbs = 0
            for name, model in rng.sample(cells, len(cells)):
                wall_0, reference_0 = pacer.read()
                with op_span(tracer, "sim.cell", workload=name, model=model):
                    stats = _make_model(model, context.gpu_config).run(
                        plans[(name, model)])
                wall_1, reference_1 = pacer.read()
                wall += wall_1 - wall_0
                reference += reference_1 - reference_0
                tbs += len(stats.tb_records)
                out.check(
                    job.golden.get(checks.cell(name, model))
                    == checks.digest(stats.simulated_signature()),
                    "sim cell {}/{}".format(name, model),
                )
                # free it before the next cell: peak memory is then one
                # cell's, whatever the order
                del stats
            out.operation(reference, wall)
            rates.append(tbs / reference)
            out.extra["tbs_per_pass"] = tbs
    if tracer:
        for start, end in pacer.ticks:
            tracer.add("bench.pace", start, end)
    out.throughput = percentile(rates, 0.5)
    out.peak_rss_mb = self_peak_rss_mb()
    out.extra["passes"] = len(rates)
    out.extra["cells_per_pass"] = len(cells)
    return out


def sim_blockmaestro(job):
    return simulate(job, SIM_MODELS["sim-blockmaestro"])


def sim_serial(job):
    return simulate(job, SIM_MODELS["sim-serial"])


# ----------------------------------------------------------------------
# cli-cold: one cold `repro run` process per call
# ----------------------------------------------------------------------
def cli_cold(job):
    out = Measured()
    names = ["mvt", "path"] if job.smoke else list(CLI_WORKLOADS)
    _import_setups(out, job, "repro.cli")
    rng = random.Random(job.seed)
    tracer = job.tracer
    for _ in timeboxed(job.seconds):
        for name in rng.sample(names, len(names)):
            try:
                spawned, exited, payload, stdout = run_child(
                    "cli", name, *(["--trace"] if tracer else []))
            except (RuntimeError, ValueError) as exc:
                out.check(False, "cli run {}: {}".format(name, exc))
                continue
            out.operation(pace.child_reference_s(spawned, payload["done"], exited),
                          exited - spawned)
            if tracer:
                tracer.add("cli", spawned, exited, args={"workload": name})
                tracer.add("cli.interp", spawned, payload["t_main"])
                tracer.merge(payload["trace"])
            try:
                signature = checks.signature_from_run_json(json.loads(stdout))
                ok = payload["code"] == 0 and job.golden.get(
                    checks.cell(name, CLI_MODEL)) == checks.digest(signature)
            except (ValueError, KeyError):
                ok = False
            out.check(ok, "cli run {}".format(name))
    out.throughput = len(out.latencies_ms) / (sum(out.latencies_ms) / 1e3)
    out.peak_rss_mb = children_peak_rss_mb()
    out.extra["calls"] = len(out.latencies_ms)
    return out


WORKLOADS = {
    "sweep": sweep,
    "sim-blockmaestro": sim_blockmaestro,
    "sim-serial": sim_serial,
    "cli-cold": cli_cold,
}
