"""Thread-block scheduler hardware model (paper Fig. 7).

Two structures support runtime dependency resolution:

* **Dependency List Buffer (DLB)** — per actively-running thread block,
  the list of its child TB IDs.  896 entries (28 SMs x 32 TBs), 4 child
  IDs per entry; wider lists span multiple entries or spill to the
  global-memory copy.
* **Parent Counter Buffer (PCB)** — per pending child TB, a 6-bit
  saturating count of unresolved parents.  An entry is allocated when a
  parent's list is buffered and deallocated when the child is selected
  for execution.

The full dependency list and initial counters always live in global
memory; the buffers are caches.  Their traffic is the memory-request
overhead of Figure 13: fetching a scheduled TB's dependency-list entry,
fetching/writing back parent counters, all in 128-byte lines.

:class:`DependencyHardware` provides both the area/storage arithmetic
(Section IV-C, ~22KB) and the per-graph request accounting used by the
execution models.
"""

import math
from dataclasses import dataclass

from repro.core.dependency_graph import BipartiteGraph, GraphKind
from repro.obs import NULL_METRICS


@dataclass(frozen=True)
class HardwareConfig:
    dlb_entries: int = 896
    children_per_entry: int = 4
    pcb_entries: int = 896
    counter_bits: int = 6
    tb_id_bits: int = 32
    kernel_tag_bits: int = 2
    child_id_bits: int = 32
    line_bytes: int = 128

    @property
    def degree_threshold(self):
        """Maximum child in-degree the parent counter can represent."""
        return (1 << self.counter_bits)

    @property
    def dlb_entry_bits(self):
        """One DLB entry: tagged TB ID plus child ID slots."""
        return (
            self.tb_id_bits
            + self.kernel_tag_bits
            + self.children_per_entry * self.child_id_bits
        )

    @property
    def pcb_entry_bits(self):
        """One PCB entry: tagged TB ID plus the counter."""
        return self.tb_id_bits + self.kernel_tag_bits + self.counter_bits

    @property
    def total_storage_bytes(self):
        """Structure storage (the paper reports ~22KB total)."""
        bits = (
            self.dlb_entries * self.dlb_entry_bits
            + self.pcb_entries * self.pcb_entry_bits
        )
        return bits // 8


@dataclass
class PairTraffic:
    """Memory requests induced by one kernel-pair dependency graph."""

    list_fetch_requests: float = 0.0
    counter_requests: float = 0.0

    @property
    def total(self):
        return self.list_fetch_requests + self.counter_requests


class DependencyHardware:
    """Request accounting for the DLB/PCB against a dependency graph.

    When a :class:`~repro.obs.MetricsRegistry` is attached, every pair
    also feeds occupancy and spill counters: total DLB entries occupied
    (wide child lists span several entries — ``hw.dlb_spill_lists``
    counts those), PCB entries allocated, and pairs whose working set
    alone exceeds a buffer's capacity (``hw.*_overflow_pairs`` — the
    global-memory copy absorbs the spill).
    """

    def __init__(self, config: HardwareConfig = None, metrics=None):
        self.config = config or HardwareConfig()
        self.metrics = NULL_METRICS if metrics is None else metrics

    def pair_traffic(self, graph: BipartiteGraph) -> PairTraffic:
        """Requests to resolve one parent/child kernel pair.

        * independent: nothing to fetch.
        * fully connected (or collapsed): one metadata word describes
          the whole graph — a single request, no per-TB traffic.
        * explicit: each parent TB's child list is fetched when the TB
          is scheduled (ceil(4*out_degree / line) requests, at least one
          for any parent with children); the child kernel's parent
          counters are fetched once and written back as they decrement
          (2 * ceil(children_with_parents / counters_per_line)).
        """
        cfg = self.config
        m = self.metrics
        if graph.kind is GraphKind.INDEPENDENT:
            m.inc("hw.pairs_independent")
            return PairTraffic()
        if graph.kind is GraphKind.FULLY_CONNECTED:
            m.inc("hw.pairs_fully_connected")
            return PairTraffic(list_fetch_requests=1.0)
        list_requests = 0.0
        dlb_entries = 0
        spill_lists = 0
        max_out_degree = 0
        for p in range(graph.num_parents):
            out_degree = len(graph.children_of[p])
            if out_degree == 0:
                continue
            dlb_entries += self.dlb_entries_for(out_degree)
            if out_degree > cfg.children_per_entry:
                spill_lists += 1
            if out_degree > max_out_degree:
                max_out_degree = out_degree
            bytes_needed = 4 * out_degree
            list_requests += math.ceil(bytes_needed / cfg.line_bytes)
        counters_per_line = cfg.line_bytes  # 1 byte per 6-bit counter slot
        dependent_children = sum(1 for c in graph.parent_counts if c > 0)
        counter_requests = 2.0 * math.ceil(dependent_children / counters_per_line)
        if m.enabled:
            m.inc("hw.pairs_explicit")
            m.inc("hw.dlb_entries", dlb_entries)
            m.inc("hw.dlb_spill_lists", spill_lists)
            m.inc("hw.pcb_entries", dependent_children)
            m.inc("hw.list_fetch_requests", list_requests)
            m.inc("hw.counter_requests", counter_requests)
            if dlb_entries > cfg.dlb_entries:
                m.inc("hw.dlb_overflow_pairs")
            if dependent_children > cfg.pcb_entries:
                m.inc("hw.pcb_overflow_pairs")
            m.observe("hw.max_out_degree", max_out_degree)
            m.observe("hw.dependent_children", dependent_children)
        return PairTraffic(
            list_fetch_requests=list_requests, counter_requests=counter_requests
        )

    # ------------------------------------------------------------------
    # functional buffer model (used by tests and the scheduler model to
    # check capacity behaviour; timing impact is folded into the request
    # counts above)
    # ------------------------------------------------------------------
    def dlb_entries_for(self, out_degree):
        """DLB entries one parent TB occupies (wide lists span entries)."""
        if out_degree <= 0:
            return 1
        return math.ceil(out_degree / self.config.children_per_entry)
