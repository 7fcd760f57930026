"""Per-thread-block access footprints.

The forward interpreter summarizes every global load/store as an
:class:`AccessRecord`: a constant byte base, per-``ctaid`` coefficients
(the only per-thread-block varying part), and a list of strided
dimensions contributed by ``tid`` and loop symbols.  Lowering a record
for one thread block therefore costs only the evaluation of the base —
the strided dimensions are shared by all blocks of the kernel.

:class:`TBAccessSets` caches the lowered :class:`IntervalSet` per thread
block and exposes the read/write set queries used when building
bipartite dependency graphs.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.intervals import Interval, IntervalSet

#: Expansion budget: a strided access lowering to more than this many
#: dense intervals is replaced by its bounding interval (a safe
#: over-approximation for dependency detection).
DEFAULT_MAX_INTERVALS = 64


@dataclass(frozen=True)
class AccessRecord:
    """Summary of one static global memory instruction.

    Attributes:
        kind: ``"read"`` or ``"write"``.
        inst_index: index of the instruction in the kernel body.
        width: bytes accessed per executed instance.
        base: constant byte address component (params and launch
            constants folded in).
        ctaid_coeffs: byte stride per grid dimension ``(x, y, z)``.
        dims: per remaining symbol, ``(stride, count)`` — normalized to
            non-negative strides, sorted by descending stride.
        thread_stride: byte distance between the addresses of two
            threads adjacent in ``tid.x`` (the ``tid.x`` coefficient of
            the address expression).  Drives the memory-coalescing
            model: consecutive threads touching consecutive words
            coalesce into one transaction per warp; larger strides
            spread a warp across multiple cache lines.  ``None`` when
            unknown (interval-fallback records).
    """

    kind: str
    inst_index: int
    width: int
    base: int
    ctaid_coeffs: Tuple[int, int, int] = (0, 0, 0)
    dims: Tuple[Tuple[int, int], ...] = ()
    thread_stride: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("read", "write"):
            raise ValueError("kind must be read or write: %r" % self.kind)
        if self.width <= 0:
            raise ValueError("width must be positive")
        for stride, count in self.dims:
            if stride < 0 or count <= 0:
                raise ValueError("dims must be normalized: %r" % (self.dims,))

    @classmethod
    def normalized(
        cls, kind, inst_index, width, base, ctaid_coeffs, raw_dims,
        thread_stride=None,
    ):
        """Create a record from possibly negative-stride dimensions.

        Negative strides are folded into the base (the footprint of
        ``{base + s*k}`` for ``s < 0`` equals that of
        ``{base + s*(count-1) + |s|*k}``); zero-stride or single-count
        dimensions are dropped.
        """
        dims = []
        for stride, count in raw_dims:
            if count <= 0:
                count = 1
            if stride < 0:
                base += stride * (count - 1)
                stride = -stride
            if stride == 0 or count == 1:
                continue
            dims.append((stride, count))
        dims.sort(key=lambda d: -d[0])
        return cls(
            kind=kind,
            inst_index=inst_index,
            width=width,
            base=base,
            ctaid_coeffs=tuple(ctaid_coeffs),
            dims=tuple(dims),
            thread_stride=thread_stride,
        )

    # ------------------------------------------------------------------
    def block_base(self, bx, by=0, bz=0):
        cx, cy, cz = self.ctaid_coeffs
        return self.base + cx * bx + cy * by + cz * bz

    def span_bytes(self):
        """Footprint extent: distance from base to one-past-last byte."""
        extent = self.width
        for stride, count in self.dims:
            extent += stride * (count - 1)
        return extent

    def expansion(self, max_intervals=DEFAULT_MAX_INTERVALS):
        """The thread-block-invariant part of :meth:`footprint`.

        Returns ``(offsets, run, exact)``: the footprint of any block
        ``b`` is ``{[base(b) + off, base(b) + off + run) for off in
        offsets}``, where ``base(b)`` is :meth:`block_base` — only the
        translation varies with the block, never the interval shape.
        The fast-path graph builders rely on this invariance; keep
        :meth:`footprint` defined in terms of this method so both agree
        bit for bit.  ``exact=False`` means the expansion exceeded
        ``max_intervals`` and a single bounding run is returned.
        """
        # innermost-first: smallest strides coalesce into dense runs
        run = self.width
        remaining = []
        for stride, count in sorted(self.dims, key=lambda d: d[0]):
            if stride <= run:
                run = stride * (count - 1) + run
            else:
                remaining.append((stride, count))
        total = 1
        for _, count in remaining:
            total *= count
        if total > max_intervals:
            return (0,), self.span_bytes(), False
        offsets = [0]
        for stride, count in remaining:
            offsets = [off + stride * k for off in offsets for k in range(count)]
        return tuple(offsets), run, True

    def footprint(self, bx, by=0, bz=0, max_intervals=DEFAULT_MAX_INTERVALS):
        """Lower this record for one thread block.

        Returns ``(intervals, exact)``.  Dimensions whose stride does not
        exceed the dense extent of the inner dimensions coalesce into a
        single dense run; otherwise the expansion multiplies.  When the
        expansion would exceed ``max_intervals``, the bounding interval
        is returned with ``exact=False``.
        """
        base = self.block_base(bx, by, bz)
        offsets, run, exact = self.expansion(max_intervals)
        return [Interval(base + off, base + off + run) for off in offsets], exact


@dataclass
class TBAccessSets:
    """Lazily lowered per-thread-block read/write interval sets.

    ``grid`` is the ``(gx, gy, gz)`` grid dimension; thread block IDs
    are linearized x-major (``tb = bx + gx*(by + gy*bz)``), matching the
    hardware dispatch order assumed throughout the simulator.
    """

    grid: Tuple[int, int, int]
    records: Tuple[AccessRecord, ...]
    max_intervals: int = DEFAULT_MAX_INTERVALS
    #: ``(kind, tb_id)`` -> lowered set; ``tb_id`` None is the kernel set
    _cache: Dict[Tuple[str, Optional[int]], IntervalSet] = field(
        default_factory=dict
    )

    @property
    def num_tbs(self):
        gx, gy, gz = self.grid
        return gx * gy * gz

    def coords(self, tb_id):
        gx, gy, gz = self.grid
        if not 0 <= tb_id < self.num_tbs:
            raise IndexError("thread block %d out of range" % tb_id)
        bx = tb_id % gx
        by = (tb_id // gx) % gy
        bz = tb_id // (gx * gy)
        return bx, by, bz

    def _lower(self, kind, tb_id):
        key = (kind, tb_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        bx, by, bz = self.coords(tb_id)
        intervals = []
        for record in self.records:
            if record.kind != kind:
                continue
            ivs, _ = record.footprint(bx, by, bz, self.max_intervals)
            intervals.extend(ivs)
        result = IntervalSet(intervals)
        self._cache[key] = result
        return result

    def reads(self, tb_id):
        return self._lower("read", tb_id)

    def writes(self, tb_id):
        return self._lower("write", tb_id)

    def kernel_reads(self):
        """Union of read footprints across the whole grid (cheap: uses
        the per-record bounding box over ``ctaid``), computed once."""
        return self._kernel_set("read")

    def kernel_writes(self):
        return self._kernel_set("write")

    def _kernel_set(self, kind):
        key = (kind, None)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        gx, gy, gz = self.grid
        intervals = []
        for record in self.records:
            if record.kind != kind:
                continue
            bases = [
                record.block_base(bx, by, bz)
                for bx in (0, gx - 1)
                for by in (0, gy - 1)
                for bz in (0, gz - 1)
            ]
            lo, hi = min(bases), max(bases) + record.span_bytes()
            intervals.append(Interval(lo, hi))
        result = IntervalSet(intervals)
        self._cache[key] = result
        return result
