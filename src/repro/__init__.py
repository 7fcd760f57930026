"""BlockMaestro (ISCA 2021) — a complete Python reproduction.

Programmer-transparent task-based execution for GPUs: kernel
pre-launching, command-queue reordering, launch-time extraction of
thread-block-level dependency graphs, and hardware dependency
resolution — plus every substrate the paper's evaluation needs (a
mini-PTX frontend, a thread-block-granularity GPU simulator, a
CUDA-like host model, the Table II benchmark suite, and the
CDP/Wireframe comparison models).

Quick tour::

    from repro import AppBuilder, BlockMaestroRuntime
    from repro.models import SerializedBaseline, BlockMaestroModel

    builder = AppBuilder("app")
    x = builder.alloc("X", 1 << 20)
    y = builder.alloc("Y", 1 << 20)
    builder.h2d(x)
    builder.launch(PTX_SOURCE, grid=128, block=256, args={"IN0": x, "OUT": y})
    app = builder.build()

    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=2)
    stats = BlockMaestroModel(window=2).run(plan)

See README.md for the full walkthrough, DESIGN.md for the paper-to-
module map and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

#: the quick-tour names, served on first access (PEP 562) so that
#: ``import repro.<anything>`` does not load the whole pipeline
_EXPORTS = {
    "AppBuilder": "repro.workloads.base",
    "Application": "repro.workloads.base",
    "BipartiteGraph": "repro.core.dependency_graph",
    "BlockMaestroRuntime": "repro.core.runtime",
    "DependencyPattern": "repro.core.patterns",
    "GPUConfig": "repro.sim.config",
    "LaunchConfig": "repro.analysis.analyzer",
    "RunStats": "repro.sim.stats",
    "RuntimePlan": "repro.core.runtime",
    "SchedulingPolicy": "repro.core.policy",
    "analyze_kernel": "repro.analysis.analyzer",
    "build_bipartite_graph": "repro.core.dependency_graph",
    "classify_pattern": "repro.core.patterns",
    "parse_kernel": "repro.ptx.parser",
    "parse_module": "repro.ptx.parser",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(__name__, name)
        )
    from importlib import import_module

    return getattr(import_module(_EXPORTS[name]), name)


__all__ = [*_EXPORTS, "__version__"]
