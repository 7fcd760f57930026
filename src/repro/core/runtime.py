"""The BlockMaestro launch-time pipeline.

:class:`BlockMaestroRuntime` performs everything the paper does at
kernel-launch time, for a whole API trace at once (the simulator's
equivalent of processing the command queue):

1. optionally reorder the command queue (:mod:`repro.core.reorder`);
2. run the value-range analysis on every kernel launch
   (:mod:`repro.analysis`);
3. build the bipartite dependency graph between each consecutive kernel
   pair (:mod:`repro.core.dependency_graph`);
4. choose each graph's hardware encoding, collapsing over-threshold
   degrees to fully connected (:mod:`repro.core.encoding`);
5. detect *grandparent* dependencies — reads from kernels more than one
   position back within the pre-launch window — which in-order
   completion turns into a coarse "predecessor-complete" barrier;
6. price the dependency-resolution memory traffic
   (:mod:`repro.core.hardware`) and per-TB durations
   (:mod:`repro.sim.cost`).

The result, a :class:`RuntimePlan`, is the single input every execution
model consumes.  Models that predate BlockMaestro (the serialized
baseline) use the same plan built without reordering — they simply
ignore the fine-grain information except for statistics.
"""

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.access import DEFAULT_MAX_INTERVALS
from repro.analysis.analyzer import KernelSummary, LaunchConfig, analyze_kernel
from repro.analysis.intervals import IntervalSet
from repro.core.dependency_graph import BipartiteGraph
from repro.core.encoding import EncodedGraph, encode_graph
from repro.core.hardware import DependencyHardware, HardwareConfig, PairTraffic
from repro.core.reorder import reorder_trace
from repro.host.api import KernelLaunchCall, kernel_param_directions
from repro.host.trace import compute_true_dependencies
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.sim.config import GPUConfig
from repro.sim.cost import CostModel

_INF = float("inf")


def jitter_factor(kernel_index, tb_id, jitter):
    """Deterministic per-block duration spread in ``[1-j, 1+j]``.

    A splitmix-style integer hash of ``(kernel_index, tb_id)`` keeps the
    factor stable across execution models and runs, so comparisons stay
    apples-to-apples and every simulation is reproducible.
    """
    h = (kernel_index * 0x9E3779B1 + tb_id * 0x85EBCA77 + 0x165667B1) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x045D9F3B) & 0xFFFFFFFF
    h ^= h >> 16
    unit = h / float(1 << 32)
    return 1.0 + jitter * (2.0 * unit - 1.0)


@dataclass
class KernelPlan:
    """Everything the scheduler needs about one kernel launch.

    Kernels form a *chain per stream*: ``chain_prev``/``chain_next`` are
    kernel indices of the same-stream neighbours (the paper's parent and
    child kernels), and the dependency graph is built against
    ``chain_prev``.  ``cross_stream_deps`` lists kernels in *other*
    streams whose data this kernel reads; those are enforced as coarse
    completion barriers (cross-stream fine-grain tracking is out of the
    paper's scope — it tracks consecutive kernels of one queue).
    """

    kernel_index: int  # position among kernels, in queue order
    order_position: int  # position in the (possibly reordered) queue
    call: KernelLaunchCall
    summary: KernelSummary
    stream: int = 0
    chain_prev: Optional[int] = None
    chain_next: Optional[int] = None
    #: same-stream kernel two back (in-order completion anchor for
    #: grandparent dependencies)
    chain_grandparent: Optional[int] = None
    #: graph to the same-stream predecessor (None for a chain head)
    encoded: Optional[EncodedGraph] = None
    #: TBs must additionally wait for chain_grandparent to complete
    grandparent_barrier: bool = False
    cross_stream_deps: Tuple[int, ...] = ()
    traffic: PairTraffic = field(default_factory=PairTraffic)
    kernel_memory_requests: float = 0.0
    _base_duration_ns: float = 0.0
    _duration_fn: Optional[Callable[[int], float]] = None
    _duration_scale_fn: Optional[Callable[[int], float]] = None
    _jitter: float = 0.0
    #: tb_durations_ns(), kept from its first call; a window variant's
    #: copy carries it over
    _durations: Optional[List[float]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def graph(self) -> Optional[BipartiteGraph]:
        """The effective (post-encoding) dependency graph."""
        return self.encoded.effective if self.encoded is not None else None

    @property
    def num_tbs(self):
        return self.call.num_tbs

    @property
    def threads_per_tb(self):
        return self.call.threads_per_tb

    @property
    def name(self):
        return self.call.tag or self.call.kernel.name

    def tb_duration_ns(self, tb_id):
        if self._duration_fn is not None:
            return float(self._duration_fn(tb_id))
        duration = self._base_duration_ns
        if self._duration_scale_fn is not None:
            duration *= float(self._duration_scale_fn(tb_id))
        if self._jitter:
            duration *= jitter_factor(self.kernel_index, tb_id, self._jitter)
        return duration

    def tb_durations_ns(self):
        """:meth:`tb_duration_ns` of every TB, in TB order.

        Computed and checked once per plan kernel, and the same list is
        returned to every caller (both engine tiers read it): do not
        mutate it.  A NaN, infinite or negative duration (from the
        launch's ``tb_duration_fn`` or ``tb_duration_scale_fn``) raises
        ``ValueError`` naming the kernel and the TB: no engine can
        schedule a finish at such a time.
        """
        if self._durations is None:
            durations = self._compute_durations()
            # min() misses a NaN after the first element and sum() does
            # not; a sum that overflows on finite durations rescans and
            # finds none
            if durations and not (
                min(durations) >= 0.0 and sum(durations) < _INF
            ):
                for tb, duration in enumerate(durations):
                    if not 0.0 <= duration < _INF:
                        raise ValueError(
                            "kernel {} ({}) TB {}: duration {!r} ns is not "
                            "a finite non-negative number".format(
                                self.kernel_index, self.name, tb, duration
                            )
                        )
            self._durations = durations
        return self._durations

    def _compute_durations(self):
        n = self.num_tbs
        if self._duration_fn is not None or self._duration_scale_fn is not None:
            return [self.tb_duration_ns(tb) for tb in range(n)]
        base = self._base_duration_ns
        if not self._jitter:
            return [base] * n
        # base * jitter_factor(kernel_index, tb, jitter) for every TB: the
        # same integer hash and float operations, one pass per step
        jitter = self._jitter
        h0 = (self.kernel_index * 0x9E3779B1 + 0x165667B1) & 0xFFFFFFFF
        hashes = [(h0 + tb * 0x85EBCA77) & 0xFFFFFFFF for tb in range(n)]
        hashes = [((h ^ (h >> 16)) * 0x045D9F3B) & 0xFFFFFFFF for h in hashes]
        return [
            base * (1.0 + jitter * (2.0 * ((h ^ (h >> 16)) / 4294967296.0) - 1.0))
            for h in hashes
        ]


@dataclass
class RuntimePlan:
    """Analyzed, ordered view of one application run."""

    application: str
    order: List[object]  # APICall objects in execution order
    deps: List[List[int]]  # per order position, prerequisite positions
    kernels: List[KernelPlan]
    kernel_at_position: Dict[int, int]  # order position -> kernel index
    graph_plain_bytes: int = 0
    graph_encoded_bytes: int = 0
    reordered: bool = False
    #: wall time spent in launch-time analysis + graph construction.
    #: In the real system this is JIT-compiler work performed while the
    #: previous kernel executes (the paper: "performed off the critical
    #: path and ... masked by the proposed kernel pre-launching"); it is
    #: reported for transparency, not charged to the simulated timeline.
    analysis_seconds: float = 0.0

    @property
    def num_kernels(self):
        return len(self.kernels)

    def analysis_seconds_per_kernel(self):
        if not self.kernels:
            return 0.0
        return self.analysis_seconds / len(self.kernels)

    def total_dependency_requests(self):
        return sum(k.traffic.total for k in self.kernels)

    def total_kernel_requests(self):
        return sum(k.kernel_memory_requests for k in self.kernels)


class BlockMaestroRuntime:
    """Builds :class:`RuntimePlan` objects from applications."""

    def __init__(
        self,
        config: GPUConfig = None,
        hardware: HardwareConfig = None,
        hazards=("raw",),
        window: int = 2,
        tracer=None,
        metrics=None,
        cache=None,
        fastpath=None,
    ):
        self.config = config or GPUConfig()
        self.hardware_config = hardware or HardwareConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.hardware = DependencyHardware(self.hardware_config, metrics=self.metrics)
        self.cost_model = CostModel(self.config)
        self.hazards = tuple(hazards)
        self.window = window
        #: optional persistent AnalysisCache (repro.analysis.cache);
        #: content-addressed, so sharing one across configs is safe
        self.cache = cache
        #: graph-construction policy (repro.analysis.fastpath): the
        #: closed form ("auto") or the scalar builder ("reference");
        #: ``None`` consults REPRO_FASTPATH, defaulting to "auto".  Both
        #: are differential-tested to produce identical graphs, so the
        #: mode never changes a plan — only how fast it is built — and
        #: cache entries interoperate across modes.
        # imported lazily: repro.analysis.fastpath builds on
        # repro.core.dependency_graph, whose package init loads this
        # module — a module-level import here would cycle
        from repro.analysis.fastpath import resolve_fastpath_mode

        self.fastpath = resolve_fastpath_mode(fastpath)
        #: (id(kernel), launch) -> (kernel, KernelSummary); see _analyze
        self._summary_cache = {}
        #: (id(parent summary), id(child summary), hazards, degree
        #: threshold) -> (parent summary, child summary, EncodedGraph);
        #: see _encoded_graph_for
        self._graph_cache = {}
        #: the degree thresholds _graph_cache holds encodings for
        self._graph_thresholds = set()
        #: (id(application), reorder) -> (application, {window:
        #: RuntimePlan}); see plan.  Never shared with a variant.
        self._plans = {}

    def variant(self, config=None, hardware=None, hazards=None):
        """This runtime under other timing, hardware or hazards.

        Unset arguments keep this runtime's values.  The variant shares
        this runtime's summary and pair-graph memos: each is keyed on
        everything its entries depend on, so one memo serves every
        configuration of a sweep.  Its plans are its own.
        """
        other = BlockMaestroRuntime(
            config or self.config,
            hardware or self.hardware_config,
            hazards or self.hazards,
            window=self.window,
            tracer=self.tracer,
            metrics=self.metrics,
            cache=self.cache,
            fastpath=self.fastpath,
        )
        other._summary_cache = self._summary_cache
        other._graph_cache = self._graph_cache
        other._graph_thresholds = self._graph_thresholds
        return other

    # ------------------------------------------------------------------
    def plan(self, application, reorder=True, window=None) -> RuntimePlan:
        """Analyze an application (anything with ``.name`` and ``.trace``).

        Memoized per (application object, reorder): a repeated window
        returns its plan, and a new window copies the first plan's
        kernels and decides only their grandparent barriers, the one
        field the window sets.  The entry pins the application, so its
        id stays its own.
        """
        window = window if window is not None else self.window
        key = (id(application), reorder)
        entry = self._plans.get(key)
        if entry is not None:
            plans = entry[1]
            if window not in plans:
                first = next(iter(plans.values()))
                plans[window] = self._window_variant(first, window)
            return plans[window]
        plan = self._plan(application, reorder, window)
        self._plans[key] = (application, {window: plan})
        return plan

    def _window_variant(self, first, window):
        """``first`` under another pre-launch window: its kernels copied,
        their grandparent barriers decided again."""
        start = time.perf_counter()
        with self._plan_span(first.application, first.reordered, window):
            # copied through __init__: on CPython 3.11 an instance made by
            # copy.copy keeps a materialized __dict__, and the engine's
            # per-TB reads of its fields run measurably slower
            kernels = [replace(kp) for kp in first.kernels]
            self._decide_barriers(kernels, window)
        self.metrics.inc("plan.window_variants")
        return replace(
            first, kernels=kernels, analysis_seconds=time.perf_counter() - start
        )

    def _plan_span(self, name, reorder, window):
        return self.tracer.span(
            "plan:{}".format(name),
            cat="plan",
            args={"application": name, "reorder": reorder, "window": window},
        )

    def _plan(self, application, reorder, window):
        tracer, metrics = self.tracer, self.metrics
        analysis_start = time.perf_counter()
        with self._plan_span(application.name, reorder, window):
            trace = application.trace
            with tracer.span("plan.validate", cat="plan"):
                trace.validate()
            with tracer.span("plan.reorder", cat="plan"):
                order = reorder_trace(trace) if reorder else list(trace.calls)
            with tracer.span("plan.true-deps", cat="plan"):
                deps = compute_true_dependencies(order)

            kernels: List[KernelPlan] = []
            kernel_at_position = {}
            chain_tail: Dict[int, int] = {}  # stream -> last kernel index
            with tracer.span("plan.analyze", cat="plan"):
                for position, call in enumerate(order):
                    if not call.is_kernel:
                        continue
                    summary = self._analyze(call)
                    coalescing = 1.0
                    if self.config.model_coalescing:
                        coalescing = summary.coalescing_factor(
                            warp_size=self.config.warp_size,
                            line_bytes=self.config.line_bytes,
                        )
                    plan = KernelPlan(
                        kernel_index=len(kernels),
                        order_position=position,
                        call=call,
                        summary=summary,
                        stream=call.stream_id,
                        kernel_memory_requests=self.cost_model.kernel_memory_requests(
                            summary.dynamic_mix,
                            call.threads_per_tb,
                            call.num_tbs,
                            coalescing=coalescing,
                        ),
                        _base_duration_ns=self.cost_model.tb_duration_ns(
                            summary.dynamic_mix,
                            call.threads_per_tb,
                            call.intensity,
                            coalescing=coalescing,
                        ),
                        _duration_fn=call.tb_duration_fn,
                        _duration_scale_fn=call.tb_duration_scale_fn,
                        _jitter=self.config.duration_jitter,
                    )
                    prev = chain_tail.get(call.stream_id)
                    if prev is not None:
                        plan.chain_prev = prev
                        plan.chain_grandparent = kernels[prev].chain_prev
                        kernels[prev].chain_next = plan.kernel_index
                    chain_tail[call.stream_id] = plan.kernel_index
                    kernel_at_position[position] = plan.kernel_index
                    kernels.append(plan)
            metrics.inc("plan.kernels", len(kernels))

            plain_total = 0
            encoded_total = 0
            with tracer.span("plan.graphs", cat="plan"):
                self._decide_barriers(kernels, window)
                for plan in kernels:
                    if plan.chain_prev is None:
                        continue
                    encoded = self._encoded_graph_for(
                        kernels[plan.chain_prev], plan
                    )
                    plan.encoded = encoded
                    plan.traffic = self.hardware.pair_traffic(encoded.effective)
                    plain_total += encoded.plain_bytes
                    encoded_total += encoded.encoded_bytes
                    metrics.inc("plan.graphs_built")
                    if encoded.collapsed:
                        metrics.inc("plan.graphs_collapsed")
                    if tracer.enabled:
                        tracer.instant(
                            "graph:{}".format(plan.name),
                            cat="plan.graph",
                            args={
                                "pattern": encoded.original_pattern.pattern.value,
                                "edges": encoded.original.num_edges,
                                "collapsed": encoded.collapsed,
                                "encoded_bytes": encoded.encoded_bytes,
                                "plain_bytes": encoded.plain_bytes,
                                "grandparent_barrier": plan.grandparent_barrier,
                            },
                        )

            with tracer.span("plan.cross-stream", cat="plan"):
                self._attach_cross_stream_deps(kernels, deps, kernel_at_position)

        analysis_seconds = time.perf_counter() - analysis_start
        metrics.set_gauge("plan.analysis_ms", analysis_seconds * 1e3)
        metrics.set_gauge("plan.graph_plain_bytes", plain_total)
        metrics.set_gauge("plan.graph_encoded_bytes", encoded_total)
        return RuntimePlan(
            application=application.name,
            order=order,
            deps=deps,
            kernels=kernels,
            kernel_at_position=kernel_at_position,
            graph_plain_bytes=plain_total,
            graph_encoded_bytes=encoded_total,
            reordered=reorder,
            analysis_seconds=analysis_seconds,
        )

    # ------------------------------------------------------------------
    def _analyze(self, call: KernelLaunchCall) -> KernelSummary:
        launch = LaunchConfig.create(
            grid=call.grid, block=call.block, args=call.arg_values()
        )
        # Identical launches (same kernel body and concrete parameters,
        # e.g. ping-pong iterations) share one analysis result.  The
        # entry pins the kernel, so its id stays its own.
        key = (id(call.kernel), launch)
        cached = self._summary_cache.get(key)
        if cached is not None:
            self.metrics.inc("plan.analysis_cache_hits")
            return cached[1]
        disk_key = None
        if self.cache is not None:
            disk_key = self.cache.summary_key(
                call.kernel, launch, DEFAULT_MAX_INTERVALS
            )
            summary = self.cache.get_summary(disk_key)
            if summary is not None:
                self._summary_cache[key] = (call.kernel, summary)
                return summary
        summary = analyze_kernel(call.kernel, launch, metrics=self.metrics)
        self._summary_cache[key] = (call.kernel, summary)
        if disk_key is not None:
            self.cache.put_summary(disk_key, summary)
        self.metrics.inc("plan.kernels_analyzed")
        if not summary.exact:
            self.metrics.inc("plan.analysis_fallbacks")
        return summary

    def _encoded_graph_for(self, parent_plan, child_plan):
        """The child's encoded dependency graph against its same-stream
        predecessor: from memory, from the persistent cache, re-encoded
        from memory, or built.

        An encoded graph is a pure function of the two summaries, the
        hazards and the degree threshold, and identical launches share
        one summary object, so one in-memory entry per summary pair,
        hazards and threshold serves every plan of this runtime and of
        its variants.  Only the encoding depends on the threshold, so a
        new threshold re-encodes the raw graph of an entry for another
        one rather than building it again.  The entry pins both
        summaries, so their ids stay theirs.
        """
        parent, child = parent_plan.summary, child_plan.summary
        threshold = self.hardware_config.degree_threshold
        key = (id(parent), id(child), self.hazards, threshold)
        entry = self._graph_cache.get(key)
        if entry is not None:
            self.metrics.inc("plan.graph_cache_hits")
            return entry[2]
        encoded = graph_key = None
        if self.cache is not None:
            graph_key = self.cache.graph_key(
                self.cache.summary_key(
                    parent_plan.call.kernel, parent.launch, DEFAULT_MAX_INTERVALS
                ),
                self.cache.summary_key(
                    child_plan.call.kernel, child.launch, DEFAULT_MAX_INTERVALS
                ),
                self.hazards,
                threshold,
            )
            encoded = self.cache.get_graph(graph_key)
        if encoded is None:
            graph = self._memoized_raw_graph(parent, child)
            if graph is None:
                from repro.analysis.fastpath import build_graph_fast

                graph, tier = build_graph_fast(
                    parent, child, hazards=self.hazards, mode=self.fastpath
                )
                self.metrics.inc("analysis.fastpath.%s" % tier)
            else:
                self.metrics.inc("plan.graph_cache_hits")
            encoded = encode_graph(graph, degree_threshold=threshold)
            if graph_key is not None:
                self.cache.put_graph(graph_key, encoded)
        self._graph_cache[key] = (parent, child, encoded)
        self._graph_thresholds.add(threshold)
        return encoded

    def _memoized_raw_graph(self, parent, child):
        """The raw pair graph memoized under another degree threshold,
        or None."""
        for threshold in self._graph_thresholds:
            entry = self._graph_cache.get(
                (id(parent), id(child), self.hazards, threshold)
            )
            if entry is not None:
                return entry[2].original
        return None

    def _decide_barriers(self, kernels, window):
        """Set every chained kernel's grandparent barrier for ``window``."""
        for plan in kernels:
            if plan.chain_prev is not None:
                plan.grandparent_barrier = self._has_grandparent_dep(
                    kernels, plan.kernel_index, window
                )

    def _has_grandparent_dep(self, kernels, i, window):
        """Does kernel ``i`` read data written by a same-stream kernel
        more than one chain position back that could still be running
        inside the window?

        With in-order completion and a pre-launch window of ``window``
        concurrent kernels per stream, a chain ancestor ``j`` can overlap
        kernel ``i`` iff it is fewer than ``window`` positions back;
        dependencies on the immediate predecessor are covered by the
        bipartite graph, so only positions 2..window-1 back need the
        coarse barrier (waiting for the grandparent's in-order completion
        point, which transitively covers all older chain members).
        """
        reads_i = self._footprint(kernels[i], "read")
        if reads_i.empty:
            return False
        ancestor = kernels[i].chain_grandparent
        hops = 2
        while ancestor is not None and hops < window:
            writes = self._footprint(kernels[ancestor], "write")
            if reads_i.overlaps(writes):
                return True
            ancestor = kernels[ancestor].chain_prev
            hops += 1
        return False

    def _attach_cross_stream_deps(self, kernels, deps, kernel_at_position):
        """Kernel-to-kernel data dependencies that cross streams become
        coarse completion barriers (fine-grain tracking is per queue)."""
        for plan in kernels:
            cross = []
            for dep_position in deps[plan.order_position]:
                dep_kernel = kernel_at_position.get(dep_position)
                if dep_kernel is None:
                    continue
                if kernels[dep_kernel].stream != plan.stream:
                    cross.append(dep_kernel)
            plan.cross_stream_deps = tuple(cross)

    def _footprint(self, plan: KernelPlan, kind) -> IntervalSet:
        """Kernel-level footprint; falls back to whole-buffer extents of
        the relevant pointer arguments when analysis fell back."""
        summary = plan.summary
        if summary.exact:
            return (
                summary.kernel_reads() if kind == "read" else summary.kernel_writes()
            )
        directions = kernel_param_directions(plan.call.kernel)
        names = directions.reads if kind == "read" else directions.writes
        intervals = []
        for name, buffer in plan.call.pointer_buffers().items():
            if name in names:
                intervals.append(buffer.interval())
        return IntervalSet(intervals)
