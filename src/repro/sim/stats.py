"""Simulation statistics.

:class:`RunStats` is the uniform result object every execution model
returns.  It records per-thread-block lifecycle timestamps — when data
dependencies were satisfied (``ready_ns``), when the block started
executing (``start_ns``) and finished (``finish_ns``) — from which the
paper's metrics derive:

* speedup: ratio of ``makespan_ns`` between two runs (Fig. 9, 12, 14);
* average TB concurrency: time-integral of running blocks divided by
  device-busy time (Fig. 10);
* dependency stall distribution: ``(start - ready) / duration`` per
  block (Fig. 11);
* memory request overhead: dependency-tracking requests vs. kernel
  requests (Fig. 13);
* dependency-graph storage: encoded vs. plain bytes (Table III).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import percentile


try:  # one record per simulated TB: slots make each one smaller
    _record = dataclass(slots=True)
except TypeError:  # Python < 3.10 has no dataclass slots
    _record = dataclass


@_record
class TBRecord:
    """Lifecycle of one thread block in one kernel launch."""

    kernel_index: int
    tb_id: int
    ready_ns: float
    start_ns: float
    finish_ns: float
    #: SM the block ran on (-1 when the engine did not record it)
    sm: int = -1

    @property
    def duration_ns(self):
        return self.finish_ns - self.start_ns

    @property
    def stall_ns(self):
        """Dependency stall: time spent ready-but-not-running."""
        return max(0.0, self.start_ns - self.ready_ns)

    @property
    def normalized_stall(self):
        """Stall normalized to the block's own execution time (Fig. 11)."""
        if self.duration_ns <= 0:
            return 0.0
        return self.stall_ns / self.duration_ns


@dataclass
class KernelRecord:
    """Lifecycle of one kernel launch."""

    index: int
    name: str
    num_tbs: int
    queued_ns: float = 0.0
    launch_begin_ns: float = 0.0
    resident_ns: float = 0.0  # launch overhead paid, TBs dispatchable
    first_tb_start_ns: float = 0.0
    all_tbs_done_ns: float = 0.0
    completed_ns: float = 0.0  # in-order completion point
    stream: int = 0


@dataclass
class RunStats:
    """Complete result of simulating one application under one model."""

    model: str
    application: str
    makespan_ns: float = 0.0
    tb_records: List[TBRecord] = field(default_factory=list)
    kernel_records: List[KernelRecord] = field(default_factory=list)
    #: integral over time of the number of concurrently running TBs
    concurrency_integral: float = 0.0
    #: wall time during which at least one TB was running
    busy_ns: float = 0.0
    #: baseline kernel global-memory requests
    kernel_memory_requests: float = 0.0
    #: extra requests from dependency list / parent counter traffic
    dependency_memory_requests: float = 0.0
    #: dependency graph storage for the whole run, bytes
    graph_plain_bytes: int = 0
    graph_encoded_bytes: int = 0
    #: free-form counters from models (deadlock retries, reorders, ...)
    counters: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def speedup_over(self, baseline):
        """Speedup of this run relative to ``baseline`` (>1 = faster)."""
        if self.makespan_ns <= 0:
            raise ValueError("run has no makespan")
        return baseline.makespan_ns / self.makespan_ns

    def avg_tb_concurrency(self):
        """Average number of concurrently executing thread blocks over
        the busy portion of the run (Fig. 10)."""
        if self.busy_ns <= 0:
            return 0.0
        return self.concurrency_integral / self.busy_ns

    def normalized_stalls(self):
        """Per-TB dependency stall normalized to execution time."""
        return [tb.normalized_stall for tb in self.tb_records]

    def stall_quartiles(self):
        """(q1, median, q3) of the normalized stall distribution."""
        values = sorted(self.normalized_stalls())
        if not values:
            return (0.0, 0.0, 0.0)
        return (
            percentile(values, 0.25),
            percentile(values, 0.50),
            percentile(values, 0.75),
        )

    def memory_overhead_fraction(self):
        """Figure 13: dependency-tracking requests as a fraction of
        kernel requests."""
        if self.kernel_memory_requests <= 0:
            return 0.0
        return self.dependency_memory_requests / self.kernel_memory_requests

    def storage_ratio(self):
        """Table III: encoded graph bytes over plain bytes (None when the
        application has no inter-kernel dependencies)."""
        if self.graph_plain_bytes <= 0:
            return None
        return self.graph_encoded_bytes / self.graph_plain_bytes

    def to_dict(self, include_tb_records=False):
        """JSON-safe dictionary form — the one serializer shared by
        ``repro run --json``, ``repro trace`` sidecars, and the
        experiment report artifacts (see :mod:`repro.obs.report`)."""
        from repro.obs.report import run_stats_dict

        return run_stats_dict(self, include_tb_records=include_tb_records)

    def simulated_signature(self):
        """Flat dict of the run's simulated metrics, for exact comparison.

        The timing model is deterministic, so two runs of the same code
        on the same workload must agree on every one of these values
        bit-for-bit — ``repro bench diff`` enforces that with zero
        tolerance.  Keep this free of anything wall-clock dependent.

        This dict (together with the ordered ``tb_records``) is also the
        differential contract for the engine fast tier: the
        :mod:`repro.models.fastengine` tier must reproduce it exactly
        against the scalar oracle, so any field added here is
        automatically covered by the engine gate and the fuzz sweep.
        """
        q1, median, q3 = self.stall_quartiles()
        return {
            "makespan_ns": self.makespan_ns,
            "busy_ns": self.busy_ns,
            "concurrency_integral": self.concurrency_integral,
            "avg_tb_concurrency": self.avg_tb_concurrency(),
            "num_tbs": len(self.tb_records),
            "num_kernels": len(self.kernel_records),
            "stall_q1": q1,
            "stall_median": median,
            "stall_q3": q3,
            "kernel_memory_requests": self.kernel_memory_requests,
            "dependency_memory_requests": self.dependency_memory_requests,
            "memory_overhead_fraction": self.memory_overhead_fraction(),
            "graph_plain_bytes": self.graph_plain_bytes,
            "graph_encoded_bytes": self.graph_encoded_bytes,
        }

    def validate_invariants(self):
        """Sanity checks every correct simulation must satisfy."""
        for tb in self.tb_records:
            if tb.start_ns + 1e-9 < tb.ready_ns:
                raise AssertionError(
                    "TB {}:{} started before its dependencies resolved".format(
                        tb.kernel_index, tb.tb_id
                    )
                )
            if tb.finish_ns < tb.start_ns:
                raise AssertionError("negative TB duration")
        previous_completion = {}
        for kr in self.kernel_records:
            prior = previous_completion.get(kr.stream, 0.0)
            if kr.completed_ns + 1e-6 < prior:
                raise AssertionError(
                    "kernel {} completed before its same-stream "
                    "predecessor".format(kr.index)
                )
            previous_completion[kr.stream] = kr.completed_ns
        return self
