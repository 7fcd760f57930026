"""Dense byte-interval sets used for thread-block read/write sets.

An :class:`IntervalSet` is a normalized (sorted, disjoint, coalesced)
collection of half-open ``[lo, hi)`` integer intervals.  Read and write
sets are ultimately lowered to these before intersection, so overlap
tests between thread blocks reduce to sorted-list sweeps.
"""

import bisect
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open byte range ``[lo, hi)``; empty when ``hi <= lo``."""

    lo: int
    hi: int

    @property
    def empty(self):
        return self.hi <= self.lo

    def __len__(self):
        return max(0, self.hi - self.lo)

    def overlaps(self, other):
        return self.lo < other.hi and other.lo < self.hi

    def intersect(self, other):
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, value):
        return self.lo <= value < self.hi

    def covers(self, other):
        """True if this interval fully contains ``other``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return "[{}, {})".format(self.lo, self.hi)


class IntervalSet:
    """A normalized set of disjoint intervals with set-algebra operations.

    Construction normalizes the input: empty intervals are dropped,
    overlapping and adjacent intervals are merged, and the result is
    sorted by ``lo``.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals=()):
        items = sorted(
            (iv for iv in intervals if not iv.empty), key=lambda iv: (iv.lo, iv.hi)
        )
        merged = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                last = merged[-1]
                if iv.hi > last.hi:
                    merged[-1] = Interval(last.lo, iv.hi)
            else:
                merged.append(iv)
        self._intervals = tuple(merged)

    @classmethod
    def single(cls, lo, hi):
        return cls((Interval(lo, hi),))

    @classmethod
    def empty_set(cls):
        return _EMPTY

    @property
    def intervals(self):
        return self._intervals

    @property
    def empty(self):
        return not self._intervals

    def total_bytes(self):
        return sum(len(iv) for iv in self._intervals)

    def bounds(self):
        """The bounding interval, or ``None`` when empty."""
        if not self._intervals:
            return None
        return Interval(self._intervals[0].lo, self._intervals[-1].hi)

    def __len__(self):
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self):
        return hash(self._intervals)

    def __repr__(self):
        return "IntervalSet({})".format(
            ", ".join(str(iv) for iv in self._intervals)
        )

    def contains(self, value):
        return self.overlaps_interval(Interval(value, value + 1))

    def union(self, other):
        return IntervalSet(self._intervals + other._intervals)

    def intersect(self, other):
        """Set intersection via a two-pointer sweep (both are sorted)."""
        out = []
        a, b = self._intervals, other._intervals
        i = j = 0
        while i < len(a) and j < len(b):
            cut = a[i].intersect(b[j])
            if not cut.empty:
                out.append(cut)
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def overlaps(self, other):
        """Fast overlap predicate (no intersection materialized)."""
        a, b = self._intervals, other._intervals
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i].overlaps(b[j]):
                return True
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return False

    def overlaps_interval(self, interval):
        """Overlap test against one interval using bisection.

        Intervals are disjoint and sorted, so the only candidate is the
        first stored interval whose ``hi`` exceeds ``interval.lo``.
        """
        if interval.empty or not self._intervals:
            return False
        his = [iv.hi for iv in self._intervals]
        idx = bisect.bisect_right(his, interval.lo)
        if idx == len(self._intervals):
            return False
        return self._intervals[idx].lo < interval.hi


_EMPTY = IntervalSet(())
