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

A run simulates thousands of thread blocks, and most runs read none of
them one by one, so :class:`TBTable` keeps the lifecycles as six
parallel columns the engines append to and builds a :class:`TBRecord`
row only when one is read.
"""

from dataclasses import dataclass, field
from operator import sub
from typing import Dict, List

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


#: the columns of a :class:`TBTable`, in :class:`TBRecord` field order
TB_COLUMNS = ("kernel_index", "tb_id", "ready_ns", "start_ns", "finish_ns", "sm")


class TBTable:
    """Per-TB lifecycles of one run, as six parallel lists.

    Engines append to the columns directly.  Iterating or indexing
    yields :class:`TBRecord` rows built on the fly, and ``append`` takes
    one, so hand-built tables read and write like a list of records.
    """

    __slots__ = TB_COLUMNS

    def __init__(self, records=()):
        for name in TB_COLUMNS:
            setattr(self, name, [])
        for record in records:
            self.append(record)

    def columns(self):
        """The six lists, in :data:`TB_COLUMNS` order."""
        return [getattr(self, name) for name in TB_COLUMNS]

    def append(self, record):
        for name, column in zip(TB_COLUMNS, self.columns()):
            column.append(getattr(record, name))

    def __len__(self):
        return len(self.kernel_index)

    def __iter__(self):
        return map(TBRecord, *self.columns())

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = TBTable()
            for name, column in zip(TB_COLUMNS, self.columns()):
                setattr(part, name, column[index])
            return part
        return TBRecord(*[column[index] for column in self.columns()])

    def __eq__(self, other):
        if not isinstance(other, TBTable):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self):
        return "TBTable(<{} rows>)".format(len(self))


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
    tb_records: TBTable = field(default_factory=TBTable)
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

    def __post_init__(self):
        if not isinstance(self.tb_records, TBTable):  # rows, built by hand
            self.tb_records = TBTable(self.tb_records)

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
        t = self.tb_records
        durations = map(sub, t.finish_ns, t.start_ns)
        stalls = map(sub, t.start_ns, t.ready_ns)
        # TBRecord.normalized_stall; ``s if s > 0.0 else 0.0`` is max(0.0, s)
        return [
            0.0 if d <= 0 else (s if s > 0.0 else 0.0) / d
            for d, s in zip(durations, stalls)
        ]

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
        bit-for-bit — the golden and differential gates compare it with
        zero tolerance.  Keep this free of anything wall-clock
        dependent.

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
        t = self.tb_records
        for ki, tb, ready, start, finish in zip(
            t.kernel_index, t.tb_id, t.ready_ns, t.start_ns, t.finish_ns
        ):
            if start + 1e-9 < ready:
                raise AssertionError(
                    "TB {}:{} started before its dependencies resolved".format(
                        ki, tb
                    )
                )
            if finish < start:
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
