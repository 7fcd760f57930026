"""Programmer-transparent command-queue reordering (paper Fig. 5).

The baseline command queue carries calls in program order; blocking
memory APIs interleaved between kernel launches prevent the queue from
holding several kernels at once, which is what kernel pre-launching
needs.  BlockMaestro reorders the queue — preserving every true data
dependency between API calls — so kernel launches sit adjacent to each
other and memory operations move as early as their dependencies allow.

Implementation: Kahn's algorithm over the trace's dependency DAG with a
priority that favours (a) memory/allocation calls feeding upcoming
kernels, then (b) kernel launches, then (c) trailing host-bound calls
(device-to-host copies, synchronizes).  Within a class, program order
breaks ties, keeping the result deterministic and stable.
"""

import heapq

from repro.host.api import DeviceSynchronize, KernelLaunchCall, MemcpyD2H
from repro.host.trace import APITrace


def reorder_trace(trace: APITrace):
    """Return the reordered call list (original call objects, new order).

    The output is always a valid topological order of
    :meth:`APITrace.true_dependencies`, so replaying it respects every
    RAW/WAR/WAW relation of the original program.
    """
    deps = [set(d) for d in trace.true_dependencies()]
    calls = trace.calls
    n = len(calls)
    # Kernel launches keep their relative program order: the reordering
    # pass moves *memory operations* around kernels (Fig. 5c), never
    # kernels around each other — kernel order defines the parent/child
    # chains the dependency graphs are built on.
    previous_kernel = None
    for i, call in enumerate(calls):
        if call.is_kernel:
            if previous_kernel is not None:
                deps[i].add(previous_kernel)
            previous_kernel = i
    dependents = [[] for _ in range(n)]
    indegree = [0] * n
    for i, prereqs in enumerate(deps):
        indegree[i] = len(prereqs)
        for p in prereqs:
            dependents[p].append(i)

    def priority(i):
        call = calls[i]
        if isinstance(call, KernelLaunchCall):
            klass = 1
        elif isinstance(call, (MemcpyD2H, DeviceSynchronize)):
            klass = 2
        else:
            klass = 0
        return (klass, i)

    heap = [priority(i) for i in range(n) if indegree[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _klass, i = heapq.heappop(heap)
        order.append(calls[i])
        for j in dependents[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, priority(j))
    if len(order) != n:
        raise RuntimeError("dependency cycle in API trace (bug)")
    return order
