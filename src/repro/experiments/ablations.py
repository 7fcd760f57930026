"""Ablation studies for BlockMaestro's design choices.

Beyond the paper's own figures, these sweeps isolate the contribution
of each mechanism:

* **window** — pre-launch depth 1..6: where does the paper's
  "diminishing returns past 3" come from, per benchmark class?
* **counter_bits** — the parent-counter width sets the fully-connected
  collapse threshold (Table I/III): storage vs. speedup trade-off.
* **reorder** — command-queue reordering and host un-blocking, the two
  halves of the paper's Fig. 5 mechanism, measured separately on a
  pipeline with memory traffic interleaved between kernels.  Finding:
  un-blocking the host is the dominant lever; once device commands are
  *dependency-gated* (as in this engine's relaxed mode), explicit
  reordering adds nothing and can even cost a little by serializing
  copies ahead of compute and delaying the first kernel's enqueue.
  Reordering matters for strictly position-ordered command processors —
  the regime the paper's Fig. 5 depicts.
* **jitter** — sensitivity of fine-grain benefits to thread-block
  duration variance (the substitute for warp-level timing; DESIGN.md).
* **hazards** — RAW-only (the paper) vs. full RAW+WAR+WAW tracking:
  the cost of airtight hazard coverage.
* **coalescing** — the opt-in transactions-per-warp memory model's
  effect on the headline speedups.
* **launch_overhead** — speedup vs. the kernel launch cost across the
  paper's cited 5-30 us range (launch-bound apps scale, compute-bound
  ones saturate).
"""

from dataclasses import replace

from repro.core.policy import SchedulingPolicy
from repro.experiments.common import STANDARD_MODELS, format_table, geomean
from repro.models import BlockMaestroModel, PrelaunchOnly

#: small-but-representative benchmark set for sweeps
DEFAULT_BENCHMARKS = ("3mm", "bicg", "fdtd-2d", "hs", "lud", "path")

_ROSTER = {m[0] for m in STANDARD_MODELS}


def _speedup(ctx, app, window=2):
    """Consumer-priority BlockMaestro at ``window`` over the serialized
    baseline: the roster's ``consumerN`` where it has one."""
    name = "consumer{}".format(window)
    if name in _ROSTER:
        bm = ctx.run_model(app, name)
    else:
        bm = BlockMaestroModel(
            ctx.gpu_config, window=window,
            policy=SchedulingPolicy.CONSUMER_PRIORITY,
        ).run(ctx.plan_for(app, True, window))
    return bm.speedup_over(ctx.run_model(app, "baseline"))


# ----------------------------------------------------------------------
def run_window_sweep(
    ctx, benchmarks=DEFAULT_BENCHMARKS, windows=(1, 2, 3, 4, 5, 6)
):
    """Speedup vs. pre-launch window depth."""
    rows = []
    for name in benchmarks:
        app = ctx.app(name)
        row = {"benchmark": name}
        for window in windows:
            row["w{}".format(window)] = _speedup(ctx, app, window)
        rows.append(row)
    summary = {"benchmark": "geomean"}
    for window in windows:
        key = "w{}".format(window)
        summary[key] = geomean([r[key] for r in rows])
    rows.append(summary)
    return rows


def format_window_sweep(rows):
    columns = ["benchmark"] + [k for k in rows[0] if k != "benchmark"]
    return format_table(rows, columns, title="Ablation: pre-launch window depth")


# ----------------------------------------------------------------------
def run_counter_bits_sweep(
    ctx, bits_options=(3, 4, 5, 6, 7, 8), benchmark="gaussian"
):
    """Parent-counter width: collapse threshold vs. storage and speedup."""
    app = ctx.app(benchmark)
    rows = []
    for bits in bits_options:
        hardware = replace(ctx.runtime.hardware_config, counter_bits=bits)
        variant = ctx.variant(hardware=hardware)
        plan = variant.plan_for(app, True, 3)
        collapsed = sum(
            1 for kp in plan.kernels if kp.encoded is not None and kp.encoded.collapsed
        )
        ratio = (
            plan.graph_encoded_bytes / plan.graph_plain_bytes
            if plan.graph_plain_bytes
            else None
        )
        rows.append(
            {
                "counter_bits": bits,
                "threshold": hardware.degree_threshold,
                "collapsed_graphs": collapsed,
                "storage_ratio": ratio,
                "speedup": _speedup(variant, app, 3),
            }
        )
    return rows


def format_counter_bits(rows):
    return format_table(
        rows,
        ["counter_bits", "threshold", "collapsed_graphs", "storage_ratio", "speedup"],
        title="Ablation: parent counter width (GAUSSIAN)",
    )


# ----------------------------------------------------------------------
class _BlockingHostPrelaunch(BlockMaestroModel):
    """Pre-launching BlockMaestro with *baseline* host semantics: the
    host still blocks on mallocs and copies.

    This isolates the paper's Fig. 5 motivation for queue reordering:
    with memory APIs interleaved between kernel launches, a blocked host
    cannot fill the command queue, so pre-launching starves — unless the
    reordering pass hoists the memory operations out of the way first.
    (The full BlockMaestro also un-blocks the host, which is why the
    reorder knob alone shows little effect under full BM semantics.)
    """

    def options(self):
        from dataclasses import replace

        return replace(super().options(), blockmaestro_host=False)


def build_streaming_app(stages=6, tbs=96, block=256, intensity=4.0):
    """A Fig. 5-style pipeline: each stage mallocs its own buffer and
    copies data in right before launching its kernel."""
    from repro.workloads.base import AppBuilder
    from repro.workloads import ptxgen

    b = AppBuilder("streaming")
    kernel = ptxgen.elementwise("stream_stage", num_inputs=2, alu=2)
    elems = tbs * block
    prev = b.alloc("IN", elems * 4)
    b.h2d(prev)
    for stage in range(stages):
        fresh = b.alloc("W{}".format(stage), elems * 4)
        b.h2d(fresh)  # blocking in the baseline: stalls the host mid-pipe
        out = b.alloc("OUT{}".format(stage), elems * 4)
        b.launch(
            kernel,
            grid=tbs,
            block=block,
            args={"IN0": prev, "IN1": fresh, "OUT": out},
            intensity=intensity,
            tag="stage{}".format(stage),
        )
        prev = out
    b.d2h(prev)
    return b.build()


def run_reorder_ablation(ctx, stages=6):
    """Queue reordering on/off, with and without host un-blocking."""
    app = build_streaming_app(stages=stages)
    base = ctx.simulate(app, "baseline")
    rows = []
    for host, model_cls in (
        ("blocking", _BlockingHostPrelaunch),
        ("non-blocking", BlockMaestroModel),
    ):
        for reorder in (False, True):
            plan = ctx.plan_for(app, reorder, 2)
            stats = model_cls(ctx.gpu_config, window=2).run(plan)
            rows.append(
                {
                    "host": host,
                    "reordered": "yes" if reorder else "no",
                    "speedup": stats.speedup_over(base),
                }
            )
    return rows


def format_reorder(rows):
    return format_table(
        rows,
        ["host", "reordered", "speedup"],
        title="Ablation: command queue reordering (streaming pipeline)",
    )


# ----------------------------------------------------------------------
def run_jitter_sweep(
    ctx, jitters=(0.0, 0.05, 0.15, 0.30), benchmarks=("hs", "path", "lud")
):
    """Fine-grain benefit (BlockMaestro over pre-launch-only) vs. the
    per-block duration spread."""
    rows = []
    for jitter in jitters:
        variant = ctx.variant(
            gpu_config=replace(ctx.gpu_config, duration_jitter=jitter)
        )
        gains = []
        for name in benchmarks:
            plan = variant.plan_for(ctx.app(name), True, 3)
            pre = PrelaunchOnly(variant.gpu_config, window=3).run(plan)
            bm = BlockMaestroModel(
                variant.gpu_config, window=3,
                policy=SchedulingPolicy.PRODUCER_PRIORITY,
            ).run(plan)
            gains.append(bm.speedup_over(pre))
        rows.append(
            {"jitter": jitter, "fine_grain_gain": geomean(gains)}
        )
    return rows


def format_jitter(rows):
    return format_table(
        rows,
        ["jitter", "fine_grain_gain"],
        title="Ablation: TB duration variance vs fine-grain benefit",
    )


# ----------------------------------------------------------------------
def run_hazard_ablation(ctx, benchmarks=DEFAULT_BENCHMARKS):
    """RAW-only (paper) vs. full RAW+WAR+WAW dependency tracking."""
    raw_ctx = ctx.variant(hazards=("raw",))
    full_ctx = ctx.variant(hazards=("raw", "war", "waw"))
    rows = []
    for name in benchmarks:
        app = ctx.app(name)
        raw_only = _speedup(raw_ctx, app)
        full = _speedup(full_ctx, app)
        rows.append(
            {
                "benchmark": name,
                "raw_only": raw_only,
                "full_hazards": full,
                "cost_pct": 100.0 * (1.0 - full / raw_only),
            }
        )
    return rows


def format_hazards(rows):
    return format_table(
        rows,
        ["benchmark", "raw_only", "full_hazards", "cost_pct"],
        title="Ablation: hazard classes tracked",
    )


# ----------------------------------------------------------------------
def run_launch_overhead_sweep(
    ctx, overheads_us=(1, 2, 5, 10, 20, 30), benchmarks=("gaussian", "nw", "hs")
):
    """Speedup vs. the kernel-launch overhead.

    The paper fixes the launch overhead at 5 us but cites measurements
    of 5-30 us [27]; this sweep shows how BlockMaestro's benefit scales
    with it — launch-bound applications (GAUSSIAN, NW) gain roughly
    linearly, compute-bound ones saturate.
    """
    rows = []
    for overhead_us in overheads_us:
        timing = replace(
            ctx.gpu_config.timing,
            kernel_launch_device_ns=overhead_us * 1000.0 - 1000.0,
            api_call_ns=1000.0,
        )
        variant = ctx.variant(gpu_config=replace(ctx.gpu_config, timing=timing))
        row = {"launch_us": overhead_us}
        for name in benchmarks:
            row[name] = _speedup(variant, ctx.app(name), 3)
        rows.append(row)
    return rows


def format_launch_overhead(rows):
    columns = ["launch_us"] + [k for k in rows[0] if k != "launch_us"]
    return format_table(
        rows, columns, title="Ablation: kernel launch overhead (us)"
    )


# ----------------------------------------------------------------------
def run_coalescing_ablation(ctx, benchmarks=DEFAULT_BENCHMARKS):
    """Effect of modelling memory coalescing (transactions per warp
    derived from inter-thread strides) on the headline speedups.

    The coalescing model stretches strided kernels (matrix columns,
    grouped reads) relative to contiguous ones; the *relative* ordering
    of the execution models should be robust to it — this sweep is the
    evidence.
    """
    off_ctx = ctx.variant(
        gpu_config=replace(ctx.gpu_config, model_coalescing=False)
    )
    on_ctx = ctx.variant(
        gpu_config=replace(ctx.gpu_config, model_coalescing=True)
    )
    rows = []
    for name in benchmarks:
        app = ctx.app(name)
        plan = on_ctx.plan_for(app, False, 1)
        factors = [
            kp.summary.coalescing_factor() for kp in plan.kernels
        ]
        rows.append(
            {
                "benchmark": name,
                "mean_coalescing": sum(factors) / len(factors),
                "speedup_off": _speedup(off_ctx, app),
                "speedup_on": _speedup(on_ctx, app),
            }
        )
    return rows


def format_coalescing(rows):
    return format_table(
        rows,
        ["benchmark", "mean_coalescing", "speedup_off", "speedup_on"],
        title="Ablation: memory coalescing model",
    )


# ----------------------------------------------------------------------
ABLATIONS = {
    "window": (run_window_sweep, format_window_sweep),
    "counter_bits": (run_counter_bits_sweep, format_counter_bits),
    "reorder": (run_reorder_ablation, format_reorder),
    "jitter": (run_jitter_sweep, format_jitter),
    "hazards": (run_hazard_ablation, format_hazards),
    "coalescing": (run_coalescing_ablation, format_coalescing),
    "launch_overhead": (run_launch_overhead_sweep, format_launch_overhead),
}
