"""Two-tier fast path for bipartite dependency-graph construction.

:func:`repro.core.dependency_graph.build_bipartite_graph` — the scalar
reference — lowers per-thread-block footprints one block at a time in
pure Python and probes each child block against a sorted parent interval
index.  That is exact but O(N·M-ish) interpreter work on large grids.
This module computes the *same* graph two cheaper ways and falls back to
the reference (kept as the oracle) whenever it cannot:

**Tier 1 — closed form** (:func:`_closed_form_graph`).  Every
:class:`~repro.analysis.access.AccessRecord` lowers to a fixed interval
*shape* translated per block by ``block_base`` (see
:meth:`AccessRecord.expansion`).  When all relevant records of a kernel
share one translation that is *linear in the linearized TB id* ``t``
(``shift(t) = k·t``), the whole per-TB footprint is a single shape
sliding at rate ``k``.  Overlap between parent block ``p`` and child
block ``c`` then depends only on the scalar ``d = k_c·c − k_p·p``:
precompute the set ``D`` of displacements at which the two shapes
intersect, and the Table-I graphs drop out analytically — O(1) for
independent / fully-connected (``k_p = k_c = 0``), O(N) contiguous
child-ranges per parent for 1-to-1 / 1-to-n / n-to-1 / bounded-overlap
windows — without materializing a single per-TB ``IntervalSet``.

**Tier 2 — vectorized** (:func:`_vectorized_graph`).  When the prover
declines (e.g. 2-D-grid group patterns whose shift is not linear in
``t``), lower *all* blocks at once as numpy ``(lo, hi, tb)`` arrays
(batched affine evaluation of ``block_base`` replacing the per-TB
``_lower`` loop) and compute the join with a sort + ``np.searchsorted``
prefix-max sweep — the exact vector analogue of the reference's
``_ParentIntervalIndex`` walk.

Both tiers replicate the reference's semantics precisely: the
kernel-level disjointness prefilter, the union-of-hazard-kinds probe
sets, the ``max_explicit_edges`` collapse to fully connected, and the
``explicit()`` canonicalization rules.  Differential tests
(``tests/integration/test_differential_fastpath.py``) and a hypothesis
property test hold them to bit-identical graphs; because the graphs are
identical, :class:`repro.analysis.cache.AnalysisCache` entries written
by either path interoperate with no key or schema change.

Tier selection is reported through the ``analysis.fastpath.*`` metrics
counters (see :func:`repro.core.runtime.BlockMaestroRuntime`).
"""

from typing import Optional, Tuple

from repro.analysis.intervals import IntervalSet
from repro.core.dependency_graph import (
    DEFAULT_MAX_EXPLICIT_EDGES,
    BipartiteGraph,
    build_bipartite_graph,
)
from repro.modes import FASTPATH_ENV, resolve_fastpath_mode  # noqa: F401 - public

#: Tier-1 gives up when the parent×child shape product would make the
#: displacement-domain construction itself quadratic-ish; tier 2 still
#: handles those exactly.
_MAX_DOMAIN_PAIRS = 4096

#: Tier-2 candidate pairs are enumerated in bounded chunks so peak
#: memory stays flat on adversarial overlap structures.
_JOIN_CHUNK = 1 << 22

#: Up to this many parent×child cells, tier 2 dedups edges with a flat
#: boolean bitmap (one byte per cell — cheap, and ``flatnonzero`` hands
#: back sorted keys); beyond it, chunked ``np.unique`` keeps memory flat.
_BITMAP_LIMIT = 1 << 26


def build_graph_fast(
    parent_summary,
    child_summary,
    hazards=("raw",),
    max_explicit_edges=DEFAULT_MAX_EXPLICIT_EDGES,
    mode="auto",
):
    """Build the pair graph via the cheapest applicable tier.

    Returns ``(graph, tier)`` where ``tier`` is one of ``closed_form``,
    ``vectorized`` or ``reference``; the graph is always ``==`` the one
    :func:`build_bipartite_graph` would produce for the same inputs.
    """
    mode = resolve_fastpath_mode(mode)
    if mode == "reference":
        graph = build_bipartite_graph(
            parent_summary, child_summary, hazards, max_explicit_edges
        )
        return graph, "reference"

    pairs = _hazard_pairs(hazards)
    num_parents = parent_summary.num_tbs
    num_children = child_summary.num_tbs
    if parent_summary.fallback or child_summary.fallback:
        # Algorithm-1 bail-out: same conservative verdict as the oracle.
        graph = BipartiteGraph.fully_connected(num_parents, num_children)
        return graph, "reference"

    if not _prefilter_relevant(parent_summary, child_summary, pairs):
        graph = BipartiteGraph.independent(num_parents, num_children)
        return graph, ("vectorized" if mode == "vectorized" else "closed_form")

    if mode in ("auto", "closed_form"):
        graph = _closed_form_graph(
            parent_summary, child_summary, pairs, max_explicit_edges
        )
        if graph is not None:
            return graph, "closed_form"
    if mode in ("auto", "vectorized"):
        graph = _vectorized_graph(
            parent_summary, child_summary, pairs, max_explicit_edges
        )
        if graph is not None:
            return graph, "vectorized"
    graph = build_bipartite_graph(
        parent_summary, child_summary, hazards, max_explicit_edges
    )
    return graph, "reference"


# ----------------------------------------------------------------------
# shared semantics (kept textually parallel to the reference builder)
# ----------------------------------------------------------------------
def _hazard_pairs(hazards):
    pairs = []
    if "raw" in hazards:
        pairs.append(("write", "read"))
    if "waw" in hazards:
        pairs.append(("write", "write"))
    if "war" in hazards:
        pairs.append(("read", "write"))
    if not pairs:
        raise ValueError("at least one hazard class required")
    return pairs


def _prefilter_relevant(parent_summary, child_summary, pairs):
    """Kernel-level disjointness prefilter, identical to the oracle's.

    This is load-bearing for identity, not just speed: the sweep probes
    the *union* of the hazard kinds, so on e.g. ``raw+war`` it would
    also connect read-read overlaps — the reference only ever reaches
    the sweep when some hazard pair's kernel bounding sets intersect.
    """
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
            return True
    return False


# ----------------------------------------------------------------------
# tier 1: closed form
# ----------------------------------------------------------------------
def _linear_stride(coeffs, grid):
    """``k`` such that ``block_base`` shifts by ``k·t`` over the
    x-major linearized TB id, or ``None`` when no such ``k`` exists.

    With ``t = bx + gx·(by + gy·bz)``, the shift ``cx·bx + cy·by +
    cz·bz`` equals ``k·t`` on the whole grid iff the coefficients match
    along every axis of extent > 1 (axes of extent 1 contribute
    nothing).  A 2-D group pattern (``cx = 0``, ``cy != 0``) has no such
    ``k`` and lands in tier 2.
    """
    cx, cy, cz = coeffs
    gx, gy, gz = grid
    if gx > 1:
        k = cx
    elif gy > 1:
        k = cy
    elif gz > 1:
        k = cz
    else:
        return 0  # a single block: any shift is trivially linear
    if gy > 1 and cy != k * gx:
        return None
    if gz > 1 and cz != k * gx * gy:
        return None
    return k


def _linear_profile(summary, kinds):
    """``(shape, k)`` when every relevant record slides linearly.

    ``shape`` is the merged footprint of block ``(0, 0, 0)`` as
    ``(lo, hi)`` tuples; block ``t``'s footprint is exactly ``shape``
    translated by ``k·t``.  ``None`` when the records disagree on ``k``
    or some record's shift is not linear in ``t``.
    """
    access = summary.access_sets
    records = [r for r in access.records if r.kind in kinds]
    if not records:
        return (), 0
    stride = None
    for record in records:
        k = _linear_stride(record.ctaid_coeffs, access.grid)
        if k is None:
            return None
        if stride is None:
            stride = k
        elif k != stride:
            return None
    intervals = []
    for record in records:
        ivs, _ = record.footprint(0, 0, 0, access.max_intervals)
        intervals.extend(ivs)
    shape = IntervalSet(intervals)
    return tuple((iv.lo, iv.hi) for iv in shape), stride


def _merge_closed(windows):
    """Merge closed integer intervals ``(lo, hi)``; touching ones fuse."""
    windows.sort()
    merged = []
    for lo, hi in windows:
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _overlap_domain(parent_shape, child_shape):
    """Displacements ``d`` at which ``child_shape + d`` intersects
    ``parent_shape``, as merged closed integer intervals.

    Half-open ``[a.lo, a.hi)`` meets ``[b.lo + d, b.hi + d)`` iff
    ``a.lo − b.hi < d < a.hi − b.lo``; over integers that is the closed
    window ``[a.lo − b.hi + 1, a.hi − b.lo − 1]`` (never empty for
    non-empty intervals).
    """
    windows = []
    for alo, ahi in parent_shape:
        for blo, bhi in child_shape:
            windows.append((alo - bhi + 1, ahi - blo - 1))
    return _merge_closed(windows)


def _domain_contains(domain, d):
    for dlo, dhi in domain:
        if dlo <= d <= dhi:
            return True
    return False


def _ceil_div(a, b):
    return -((-a) // b)


def _closed_form_graph(parent_summary, child_summary, pairs, max_explicit_edges):
    """Tier 1: the analytic Table-I graph, or ``None`` to decline."""
    parent_kinds = {pk for pk, _ in pairs}
    child_kinds = {ck for _, ck in pairs}
    parent_profile = _linear_profile(parent_summary, parent_kinds)
    child_profile = _linear_profile(child_summary, child_kinds)
    if parent_profile is None or child_profile is None:
        return None
    parent_shape, kp = parent_profile
    child_shape, kc = child_profile
    num_parents = parent_summary.num_tbs
    num_children = child_summary.num_tbs
    if not parent_shape or not child_shape:
        return BipartiteGraph.independent(num_parents, num_children)
    if len(parent_shape) * len(child_shape) > _MAX_DOMAIN_PAIRS:
        return None
    domain = _overlap_domain(parent_shape, child_shape)

    if kp == 0 and kc == 0:
        # every block covers the same bytes on both sides: O(1) verdict
        if _domain_contains(domain, 0):
            return BipartiteGraph.fully_connected(num_parents, num_children)
        return BipartiteGraph.independent(num_parents, num_children)

    # edge(p, c)  iff  kc·c − kp·p ∈ domain: per parent, each domain
    # window projects to one contiguous child range
    ranges_of = []
    total = 0
    shared = None  # kp == 0 makes the ranges parent-independent
    for p in range(num_parents):
        if shared is not None:
            ranges_of.append(shared)
            total += sum(hi - lo + 1 for lo, hi in shared)
            continue
        windows = []
        for dlo, dhi in domain:
            lo2, hi2 = dlo + kp * p, dhi + kp * p
            if kc == 0:
                # d is fixed at −kp·p: all children or none
                if lo2 <= 0 <= hi2:
                    windows.append((0, num_children - 1))
                continue
            if kc > 0:
                clo, chi = _ceil_div(lo2, kc), hi2 // kc
            else:
                clo, chi = _ceil_div(hi2, kc), lo2 // kc
            clo, chi = max(clo, 0), min(chi, num_children - 1)
            if clo <= chi:
                windows.append((clo, chi))
        merged = tuple(_merge_closed(windows))
        if kp == 0:
            shared = merged
        ranges_of.append(merged)
        total += sum(hi - lo + 1 for lo, hi in merged)

    if total == 0:
        return BipartiteGraph.independent(num_parents, num_children)
    if total > max_explicit_edges or total == num_parents * num_children:
        return BipartiteGraph.fully_connected(num_parents, num_children)

    # materialize adjacency; identical range-lists share one tuple
    memo = {}
    children_of = []
    in_degree_diff = [0] * (num_children + 1)
    for ranges in ranges_of:
        children = memo.get(ranges)
        if children is None:
            children = []
            for lo, hi in ranges:
                children.extend(range(lo, hi + 1))
            children = tuple(children)
            memo[ranges] = children
        children_of.append(children)
        for lo, hi in ranges:
            in_degree_diff[lo] += 1
            in_degree_diff[hi + 1] -= 1
    counts = []
    running = 0
    for c in range(num_children):
        running += in_degree_diff[c]
        counts.append(running)
    return BipartiteGraph.explicit_prebuilt(
        num_parents, num_children, tuple(children_of), tuple(counts), total
    )


# ----------------------------------------------------------------------
# tier 2: vectorized lowering + join
# ----------------------------------------------------------------------
_INT64_GUARD = 1 << 62


def _fits_int64(record, grid):
    # bound every *partial* sum, not just the corner addresses — int64
    # overflow wraps silently inside numpy elementwise arithmetic
    gx, gy, gz = grid
    cx, cy, cz = record.ctaid_coeffs
    reach = (
        abs(record.base)
        + abs(cx) * (gx - 1)
        + abs(cy) * (gy - 1)
        + abs(cz) * (gz - 1)
        + record.span_bytes()
    )
    return reach < _INT64_GUARD


def _lowered_arrays(summary, kinds):
    """Batched :meth:`TBAccessSets._lower` over the whole grid.

    Returns ``(lo, hi, tb)`` int64 arrays covering every interval of
    every block for the requested kinds, or ``None`` when some address
    could overflow int64 (the scalar oracle, on python ints, handles
    those).
    """
    import numpy as np

    access = summary.access_sets
    gx, gy, gz = access.grid
    t = np.arange(access.num_tbs, dtype=np.int64)
    bx = t % gx
    by = (t // gx) % gy
    bz = t // (gx * gy)
    los, his, tbs = [], [], []
    for record in access.records:
        if record.kind not in kinds:
            continue
        if not _fits_int64(record, access.grid):
            return None
        cx, cy, cz = record.ctaid_coeffs
        bases = record.base + cx * bx + cy * by + cz * bz
        offsets, run, _exact = record.expansion(access.max_intervals)
        if len(offsets) == 1:
            lo = bases + offsets[0]
            los.append(lo)
            his.append(lo + run)
            tbs.append(t)
            continue
        offs = np.asarray(offsets, dtype=np.int64)
        lo = (bases[:, None] + offs[None, :]).reshape(-1)
        los.append(lo)
        his.append(lo + run)
        tbs.append(np.repeat(t, offs.size))
    if not los:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate(los),
        np.concatenate(his),
        np.concatenate(tbs),
    )


def _segment_local_arange(reps):
    """``concatenate([arange(r) for r in reps])`` without the loop."""
    import numpy as np

    out = np.arange(int(reps.sum()), dtype=np.int64)
    seg_starts = np.cumsum(reps) - reps
    return out - np.repeat(seg_starts, reps)


def _vectorized_graph(parent_summary, child_summary, pairs, max_explicit_edges):
    """Tier 2: numpy join, or ``None`` to decline (overflow).

    numpy is imported here, at the first join that needs it, so plans
    whose pairs all take tier 1 never load it.
    """
    import numpy as np

    num_parents = parent_summary.num_tbs
    num_children = child_summary.num_tbs
    if num_parents * num_children >= _INT64_GUARD:
        return None
    parent_kinds = {pk for pk, _ in pairs}
    child_kinds = {ck for _, ck in pairs}
    parent_arrays = _lowered_arrays(parent_summary, parent_kinds)
    child_arrays = _lowered_arrays(child_summary, child_kinds)
    if parent_arrays is None or child_arrays is None:
        return None
    plo, phi, ptb = parent_arrays
    clo, chi, ctb = child_arrays
    if plo.size == 0 or clo.size == 0:
        return BipartiteGraph.independent(num_parents, num_children)

    order = np.argsort(plo, kind="stable")
    plo, phi, ptb = plo[order], phi[order], ptb[order]
    prefix_max_hi = np.maximum.accumulate(phi)

    # candidate window per probe: the same entries the reference's
    # prefix-max walk visits — [first j with prefmax > probe.lo,
    # first j with lo >= probe.hi)
    ends = np.searchsorted(plo, chi, side="left")
    starts = np.searchsorted(prefix_max_hi, clo, side="right")
    counts = np.maximum(ends - starts, 0)

    probe_ids = np.nonzero(counts)[0]
    bitmap = None
    if num_parents * num_children <= _BITMAP_LIMIT:
        bitmap = np.zeros(num_parents * num_children, dtype=bool)
    keys = np.empty(0, dtype=np.int64)
    if probe_ids.size:
        cumulative = np.cumsum(counts[probe_ids])
        chunk_start = 0
        while chunk_start < probe_ids.size:
            consumed = cumulative[chunk_start - 1] if chunk_start else 0
            chunk_end = int(
                np.searchsorted(cumulative, consumed + _JOIN_CHUNK, side="right")
            )
            chunk_end = max(chunk_end, chunk_start + 1)
            probes = probe_ids[chunk_start:chunk_end]
            reps = counts[probes]
            entry = np.repeat(starts[probes], reps) + _segment_local_arange(reps)
            hit = phi[entry] > np.repeat(clo[probes], reps)
            pair_keys = (
                ptb[entry][hit] * num_children + np.repeat(ctb[probes], reps)[hit]
            )
            if pair_keys.size:
                if bitmap is not None:
                    bitmap[pair_keys] = True
                else:
                    keys = np.unique(np.concatenate((keys, np.unique(pair_keys))))
                    if keys.size > max_explicit_edges:
                        return BipartiteGraph.fully_connected(
                            num_parents, num_children
                        )
            chunk_start = chunk_end
    if bitmap is not None:
        keys = np.flatnonzero(bitmap).astype(np.int64, copy=False)
        if keys.size > max_explicit_edges:
            return BipartiteGraph.fully_connected(num_parents, num_children)

    total = int(keys.size)
    if total == 0:
        return BipartiteGraph.independent(num_parents, num_children)
    if total == num_parents * num_children:
        return BipartiteGraph.fully_connected(num_parents, num_children)
    parent_of_edge = keys // num_children
    child_of_edge = keys % num_children
    bounds = np.searchsorted(
        parent_of_edge, np.arange(num_parents + 1, dtype=np.int64)
    )
    # .tolist() yields python ints so graphs compare/pickle exactly
    # like reference-built ones
    children_of = tuple(
        tuple(child_of_edge[bounds[p] : bounds[p + 1]].tolist())
        for p in range(num_parents)
    )
    counts_arr = np.bincount(child_of_edge, minlength=num_children)
    return BipartiteGraph.explicit_prebuilt(
        num_parents, num_children, children_of, tuple(counts_arr.tolist()), total
    )
