"""Closed-form construction of bipartite dependency graphs.

:func:`repro.core.dependency_graph.build_bipartite_graph` — the scalar
reference — lowers per-thread-block footprints one block at a time in
pure Python and probes each child block against a sorted parent interval
index.  That is exact but O(N·M-ish) interpreter work on large grids.
This module computes the *same* graph analytically; the reference stays
as its oracle and as its fallback for pairs whose footprint shapes are
too fragmented (``_MAX_DOMAIN_PAIRS``).

Every :class:`~repro.analysis.access.AccessRecord` lowers to a fixed
interval *shape* translated per block by ``block_base`` (see
:meth:`AccessRecord.expansion`).  Records with the same ``ctaid``
coefficients (axes of extent 1 zeroed: they add nothing) translate
together, so a kernel's per-TB footprint is the union of a few
*groups*, each one merged block-``(0, 0, 0)`` shape shifted by
``cx·bx + cy·by + cz·bz``.  Parent block ``p`` and child block ``c``
overlap iff, for some parent group ``g`` and child group ``h``,
``shift_h(c) − shift_g(p)`` lies in the set of displacements at which
the two shapes intersect (:func:`_overlap_domain`: a few closed
windows).  For one parent block each window bounds the child group's
shift, which selects

* one contiguous range of TB ids when the child group slides linearly
  in the x-major TB id ``t`` (``shift = k·t``: every 1-D grid and every
  row-major 2-D/3-D layout);
* otherwise one ``bx`` range per child ``(by, bz)`` row (2-D group
  layouts, such as ``cx = 0`` with ``cy != 0``).

The ranges of all group pairs merge into the parent's sorted child
ranges; when no parent group's shift depends on the block, one list
serves every parent.  Independent, fully connected and Table-I explicit
graphs all drop out of these ranges without materializing a single
per-TB ``IntervalSet``.

The construction replicates the reference's semantics precisely: the
kernel-level disjointness prefilter, the union-of-hazard-kinds probe
sets, the ``max_explicit_edges`` collapse to fully connected, and the
``explicit()`` canonicalization rules.  Differential tests
(``tests/integration/test_differential_fastpath.py``) and a hypothesis
property test hold it to bit-identical graphs; because the graphs are
identical, :class:`repro.analysis.cache.AnalysisCache` entries written
by either builder interoperate with no key or schema change.

The builder that served each pair is reported through the
``analysis.fastpath.*`` metrics counters (see
:func:`repro.core.runtime.BlockMaestroRuntime`).
"""

from itertools import product

from repro.analysis.intervals import IntervalSet
from repro.core.dependency_graph import (
    DEFAULT_MAX_EXPLICIT_EDGES,
    BipartiteGraph,
    build_bipartite_graph,
)
from repro.modes import FASTPATH_ENV, resolve_fastpath_mode  # noqa: F401 - public

#: The closed form gives up when the parent×child shape products would
#: make the displacement-domain construction itself quadratic-ish; the
#: reference builder handles those.
_MAX_DOMAIN_PAIRS = 4096


def build_graph_fast(
    parent_summary,
    child_summary,
    hazards=("raw",),
    max_explicit_edges=DEFAULT_MAX_EXPLICIT_EDGES,
    mode="auto",
):
    """Build the pair graph, in closed form unless told or forced not to.

    Returns ``(graph, tier)`` where ``tier`` is ``closed_form`` or
    ``reference``; the graph is always ``==`` the one
    :func:`build_bipartite_graph` would produce for the same inputs.  A
    fallen-back summary (Algorithm 1's bail-out) takes the reference's
    O(1) fully connected verdict.
    """
    if resolve_fastpath_mode(mode) == "auto" and not (
        parent_summary.fallback or child_summary.fallback
    ):
        graph = _closed_form_graph(
            parent_summary, child_summary, _hazard_pairs(hazards),
            max_explicit_edges,
        )
        if graph is not None:
            return graph, "closed_form"
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
# footprint groups
# ----------------------------------------------------------------------
def _linear_stride(coeffs, grid):
    """``k`` such that ``block_base`` shifts by ``k·t`` over the
    x-major linearized TB id, or ``None`` when no such ``k`` exists.

    With ``t = bx + gx·(by + gy·bz)``, the shift ``cx·bx + cy·by +
    cz·bz`` equals ``k·t`` on the whole grid iff the coefficients match
    along every axis of extent > 1 (axes of extent 1 contribute
    nothing).  A 2-D group pattern (``cx = 0``, ``cy != 0``) has no such
    ``k`` and slides row by row instead (:func:`_slide`).
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


def _groups(summary, kinds):
    """The relevant records of a kernel as ``[(coeffs, shape)]``.

    Records are grouped by their ``ctaid`` coefficients, axes of extent
    1 zeroed; ``shape`` is the group's merged block-``(0, 0, 0)``
    footprint as ``(lo, hi)`` tuples, and block ``(bx, by, bz)`` covers
    exactly ``shape`` translated by ``cx·bx + cy·by + cz·bz``.
    """
    access = summary.access_sets
    grid = access.grid
    intervals_of = {}
    for record in access.records:
        if record.kind not in kinds:
            continue
        coeffs = tuple(
            c if extent > 1 else 0
            for c, extent in zip(record.ctaid_coeffs, grid)
        )
        ivs, _ = record.footprint(0, 0, 0, access.max_intervals)
        intervals_of.setdefault(coeffs, []).extend(ivs)
    return [
        (coeffs, tuple((iv.lo, iv.hi) for iv in IntervalSet(ivs)))
        for coeffs, ivs in intervals_of.items()
    ]


def _slide(coeffs, grid):
    """How a child group's shift walks the TB ids: ``(k, n, rows)``.

    For each row ``(r, t0)``, block ``t0 + i`` (``0 <= i < n``) is
    shifted by ``k·i + r``.  A group sliding linearly in the TB id is
    one row over the whole grid; any other is one row per ``(by, bz)``,
    walked by ``bx``.
    """
    k = _linear_stride(coeffs, grid)
    gx, gy, gz = grid
    if k is not None:
        return k, gx * gy * gz, ((0, 0),)
    cx, cy, cz = coeffs
    rows = tuple(
        (cy * by + cz * bz, gx * (by + gy * bz))
        for bz in range(gz)
        for by in range(gy)
    )
    return cx, gx, rows


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


def _ceil_div(a, b):
    return -((-a) // b)


# ----------------------------------------------------------------------
# the closed form
# ----------------------------------------------------------------------
def _closed_form_graph(parent_summary, child_summary, pairs, max_explicit_edges):
    """The pair graph in closed form, or ``None`` to decline."""
    num_parents = parent_summary.num_tbs
    num_children = child_summary.num_tbs
    if not _prefilter_relevant(parent_summary, child_summary, pairs):
        return BipartiteGraph.independent(num_parents, num_children)
    parent_groups = _groups(parent_summary, {pk for pk, _ in pairs})
    child_groups = _groups(child_summary, {ck for _, ck in pairs})
    if sum(
        len(parent_shape) * len(child_shape)
        for _, parent_shape in parent_groups
        for _, child_shape in child_groups
    ) > _MAX_DOMAIN_PAIRS:
        return None
    child_grid = child_summary.access_sets.grid
    # one (parent coefficients, child slide, domain) per group pair
    terms = [
        (
            parent_coeffs,
            _slide(child_coeffs, child_grid),
            _overlap_domain(parent_shape, child_shape),
        )
        for parent_coeffs, parent_shape in parent_groups
        for child_coeffs, child_shape in child_groups
    ]

    def child_ranges(px, py, pz):
        # edge(p, c) iff shift_h(c) − shift_g(p) ∈ domain(g, h): each
        # domain window bounds the child shift, one TB range per row
        windows = []
        for (cx, cy, cz), (k, n, rows), domain in terms:
            shift = cx * px + cy * py + cz * pz
            for dlo, dhi in domain:
                for r, t0 in rows:
                    lo, hi = dlo + shift - r, dhi + shift - r
                    if k > 0:
                        first, last = _ceil_div(lo, k), hi // k
                    elif k < 0:
                        first, last = _ceil_div(hi, k), lo // k
                    elif lo <= 0 <= hi:
                        first, last = 0, n - 1  # fixed shift: all or none
                    else:
                        continue
                    if first < 0:
                        first = 0
                    if last >= n:
                        last = n - 1
                    if first <= last:
                        windows.append((t0 + first, t0 + last))
        return tuple(_merge_closed(windows))

    if all(coeffs == (0, 0, 0) for coeffs, _ in parent_groups):
        # no parent shift depends on the block: one list for all
        ranges_of = [child_ranges(0, 0, 0)] * num_parents
    else:
        gx, gy, gz = parent_summary.access_sets.grid
        ranges_of = [
            child_ranges(px, py, pz)
            for pz, py, px in product(range(gz), range(gy), range(gx))
        ]
    total = sum(hi - lo + 1 for ranges in ranges_of for lo, hi in ranges)

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
