"""Bipartite thread-block dependency graphs (paper Fig. 1).

A graph connects the thread blocks of a *parent* kernel to the thread
blocks of the *child* kernel launched immediately after it in the
command queue.  An edge ``p -> c`` means child block ``c`` reads at
least one byte that parent block ``p`` writes (a RAW dependency; WAR and
WAW hazards can optionally be tracked too).

Because BlockMaestro enforces in-order kernel completion, only
consecutive kernel pairs need a graph; dependencies on older kernels are
implicit (Section III-B.1) — the runtime adds a coarse
``grandparent barrier`` when it detects a read from a kernel more than
one position back inside the pre-launch window.

Fully connected and empty graphs are represented symbolically rather
than materialized, both because the hardware encodes them in O(1)
(Table I) and because materializing ``N*M`` edges for e.g. AlexNet's
fully-connected layers would be wasteful in the simulator too.
"""

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class GraphKind(str, Enum):
    INDEPENDENT = "independent"
    FULLY_CONNECTED = "fully_connected"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class BipartiteGraph:
    """Dependency graph between a parent and a child kernel.

    ``children_of`` / ``parent_counts`` are populated only for
    ``EXPLICIT`` graphs; the symbolic kinds answer queries analytically.
    """

    num_parents: int
    num_children: int
    kind: GraphKind
    children_of: Tuple[Tuple[int, ...], ...] = ()
    parent_counts: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def independent(cls, num_parents, num_children):
        return cls(num_parents, num_children, GraphKind.INDEPENDENT)

    @classmethod
    def fully_connected(cls, num_parents, num_children):
        return cls(num_parents, num_children, GraphKind.FULLY_CONNECTED)

    @classmethod
    def explicit(cls, num_parents, num_children, children_of):
        children_of = tuple(tuple(sorted(set(ch))) for ch in children_of)
        if len(children_of) != num_parents:
            raise ValueError("children_of must have one entry per parent")
        counts = [0] * num_children
        for children in children_of:
            for c in children:
                if not 0 <= c < num_children:
                    raise ValueError("child id %d out of range" % c)
                counts[c] += 1
        total = sum(counts)
        return cls.explicit_prebuilt(
            num_parents, num_children, children_of, tuple(counts), total
        )

    @classmethod
    def explicit_prebuilt(
        cls, num_parents, num_children, children_of, parent_counts, total
    ):
        """Explicit graph from already-canonical adjacency.

        ``children_of`` must be a tuple of sorted, duplicate-free tuples
        of in-range python ints, ``parent_counts`` the matching
        in-degree tuple and ``total`` the edge count — the closed-form
        graph builder produces adjacency in exactly this form
        and skip :meth:`explicit`'s O(E log E) re-canonicalization.  The
        same collapse rules apply, so the result is indistinguishable
        from :meth:`explicit` on equivalent input.
        """
        if total == 0:
            return cls.independent(num_parents, num_children)
        if total == num_parents * num_children:
            return cls.fully_connected(num_parents, num_children)
        return cls(
            num_parents,
            num_children,
            GraphKind.EXPLICIT,
            children_of=children_of,
            parent_counts=parent_counts,
        )

    # ------------------------------------------------------------------
    @property
    def is_independent(self):
        return self.kind is GraphKind.INDEPENDENT

    @property
    def is_fully_connected(self):
        return self.kind is GraphKind.FULLY_CONNECTED

    @property
    def num_edges(self):
        if self.kind is GraphKind.INDEPENDENT:
            return 0
        if self.kind is GraphKind.FULLY_CONNECTED:
            return self.num_parents * self.num_children
        return sum(len(ch) for ch in self.children_of)

    def children(self, parent_tb):
        if not 0 <= parent_tb < self.num_parents:
            raise IndexError("parent %d out of range" % parent_tb)
        if self.kind is GraphKind.INDEPENDENT:
            return ()
        if self.kind is GraphKind.FULLY_CONNECTED:
            return tuple(range(self.num_children))
        return self.children_of[parent_tb]

    def parent_count(self, child_tb):
        if not 0 <= child_tb < self.num_children:
            raise IndexError("child %d out of range" % child_tb)
        if self.kind is GraphKind.INDEPENDENT:
            return 0
        if self.kind is GraphKind.FULLY_CONNECTED:
            return self.num_parents
        return self.parent_counts[child_tb]

    def parents_of(self, child_tb):
        """Inverse adjacency (computed on demand; test/analysis helper)."""
        if self.kind is GraphKind.INDEPENDENT:
            return ()
        if self.kind is GraphKind.FULLY_CONNECTED:
            return tuple(range(self.num_parents))
        parents = []
        for p, children in enumerate(self.children_of):
            # children tuples are sorted: bisect beats the O(deg)
            # tuple-membership scan on wide fan-outs
            i = bisect.bisect_left(children, child_tb)
            if i < len(children) and children[i] == child_tb:
                parents.append(p)
        return tuple(parents)

    def max_child_in_degree(self):
        if self.kind is GraphKind.INDEPENDENT:
            return 0
        if self.kind is GraphKind.FULLY_CONNECTED:
            return self.num_parents
        return max(self.parent_counts)

    def max_parent_out_degree(self):
        if self.kind is GraphKind.INDEPENDENT:
            return 0
        if self.kind is GraphKind.FULLY_CONNECTED:
            return self.num_children
        return max((len(ch) for ch in self.children_of), default=0)

    def to_dot(self, parent_label="Kp", child_label="Kc", max_nodes=64):
        """Render the bipartite graph in Graphviz DOT (paper Fig. 1 style).

        Graphs wider than ``max_nodes`` on either side are truncated
        with an ellipsis node, keeping the output viewable.
        """
        lines = [
            "digraph dependencies {",
            "  rankdir=TB;",
            '  node [shape=box, fontsize=10];',
        ]
        n = min(self.num_parents, max_nodes)
        m = min(self.num_children, max_nodes)
        for p in range(n):
            lines.append('  "{}:{}" [rank=source];'.format(parent_label, p))
        if self.num_parents > max_nodes:
            lines.append('  "{}:...";'.format(parent_label))
        for c in range(m):
            lines.append('  "{}:{}";'.format(child_label, c))
        if self.num_children > max_nodes:
            lines.append('  "{}:...";'.format(child_label))
        if self.kind is GraphKind.FULLY_CONNECTED and (
            self.num_parents > max_nodes or self.num_children > max_nodes
        ):
            lines.append(
                '  "{}:0" -> "{}:0" [label="fully connected", style=bold];'.format(
                    parent_label, child_label
                )
            )
        else:
            for p in range(n):
                for c in self.children(p):
                    if c < m:
                        lines.append(
                            '  "{}:{}" -> "{}:{}";'.format(
                                parent_label, p, child_label, c
                            )
                        )
        lines.append("}")
        return "\n".join(lines)

    def edges(self):
        """Iterate ``(parent, child)`` pairs.  Avoid on symbolic FC graphs
        of large kernels — the edge set is quadratic by definition."""
        if self.kind is GraphKind.INDEPENDENT:
            return
        if self.kind is GraphKind.FULLY_CONNECTED:
            for p in range(self.num_parents):
                for c in range(self.num_children):
                    yield (p, c)
            return
        for p, children in enumerate(self.children_of):
            for c in children:
                yield (p, c)


class EdgeBudgetExceeded(Exception):
    """Internal: explicit construction crossed ``max_explicit_edges``."""


#: Default cap before an explicit graph collapses to fully connected.
DEFAULT_MAX_EXPLICIT_EDGES = 4_000_000


def build_bipartite_graph(
    parent_summary,
    child_summary,
    hazards=("raw",),
    max_explicit_edges=DEFAULT_MAX_EXPLICIT_EDGES,
):
    """Build the dependency graph between two analyzed kernel launches.

    ``hazards`` selects which hazard classes create edges:

    * ``raw`` — child reads vs. parent writes (the paper's choice);
    * ``waw`` — child writes vs. parent writes;
    * ``war`` — child writes vs. parent reads.

    If either kernel's analysis fell back, the graph is conservatively
    fully connected — the child cannot start until the parent finishes,
    exactly the paper's Algorithm 1 bail-out behaviour.  If the explicit
    edge count crosses ``max_explicit_edges`` the graph also collapses
    to fully connected (a legal over-approximation; the hardware would
    do the same via its degree threshold).
    """
    num_parents = parent_summary.num_tbs
    num_children = child_summary.num_tbs
    if parent_summary.fallback or child_summary.fallback:
        return BipartiteGraph.fully_connected(num_parents, num_children)

    pairs = []
    if "raw" in hazards:
        pairs.append(("write", "read"))
    if "waw" in hazards:
        pairs.append(("write", "write"))
    if "war" in hazards:
        pairs.append(("read", "write"))
    if not pairs:
        raise ValueError("at least one hazard class required")

    # Kernel-level prefilter: skip the per-TB sweep entirely when the
    # kernels touch disjoint memory.
    relevant = False
    for parent_kind, child_kind in pairs:
        parent_set = (
            parent_summary.kernel_writes()
            if parent_kind == "write"
            else parent_summary.kernel_reads()
        )
        child_set = (
            child_summary.kernel_reads()
            if child_kind == "read"
            else child_summary.kernel_writes()
        )
        if parent_set.overlaps(child_set):
            relevant = True
            break
    if not relevant:
        return BipartiteGraph.independent(num_parents, num_children)

    parent_kinds = {pk for pk, _ in pairs}
    child_kinds = {ck for _, ck in pairs}
    index = _ParentIntervalIndex(parent_summary, parent_kinds)

    children_of = [set() for _ in range(num_parents)]
    total_edges = 0
    try:
        for child_tb in range(num_children):
            child_intervals = []
            if "read" in child_kinds:
                child_intervals.extend(child_summary.tb_reads(child_tb))
            if "write" in child_kinds:
                child_intervals.extend(child_summary.tb_writes(child_tb))
            parents = index.overlapping_parents(child_intervals)
            for p in parents:
                if child_tb not in children_of[p]:
                    children_of[p].add(child_tb)
                    total_edges += 1
                    if total_edges > max_explicit_edges:
                        raise EdgeBudgetExceeded()
    except EdgeBudgetExceeded:
        return BipartiteGraph.fully_connected(num_parents, num_children)

    return BipartiteGraph.explicit(num_parents, num_children, children_of)


class _ParentIntervalIndex:
    """Sorted interval list with a prefix-max pruning array.

    Entries are ``(lo, hi, parent_tb)`` sorted by ``lo``; queries bisect
    to the last entry whose ``lo`` is below the probe's ``hi`` and walk
    left while the running maximum of ``hi`` still reaches the probe.
    """

    def __init__(self, parent_summary, kinds):
        entries = []
        for tb in range(parent_summary.num_tbs):
            sets = []
            if "write" in kinds:
                sets.append(parent_summary.tb_writes(tb))
            if "read" in kinds:
                sets.append(parent_summary.tb_reads(tb))
            for interval_set in sets:
                for iv in interval_set:
                    entries.append((iv.lo, iv.hi, tb))
        entries.sort()
        self._los = [e[0] for e in entries]
        self._entries = entries
        self._prefix_max_hi = []
        running = float("-inf")
        for _lo, hi, _tb in entries:
            running = max(running, hi)
            self._prefix_max_hi.append(running)

    def overlapping_parents(self, probe_intervals):
        found = set()
        for probe in probe_intervals:
            idx = bisect.bisect_left(self._los, probe.hi) - 1
            j = idx
            while j >= 0 and self._prefix_max_hi[j] > probe.lo:
                lo, hi, tb = self._entries[j]
                if hi > probe.lo and lo < probe.hi:
                    found.add(tb)
                j -= 1
        # deterministic result order regardless of set iteration /
        # PYTHONHASHSEED — callers consume parents in ascending TB order
        return tuple(sorted(found))
