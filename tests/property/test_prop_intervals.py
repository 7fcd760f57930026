"""Property tests: interval sets behave like sets of integers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.intervals import Interval, IntervalSet

interval_st = st.tuples(
    st.integers(-200, 200), st.integers(0, 50)
).map(lambda t: Interval(t[0], t[0] + t[1]))

intervals_st = st.lists(interval_st, max_size=8)


def as_points(interval_set):
    points = set()
    for iv in interval_set:
        points.update(range(iv.lo, iv.hi))
    return points


@given(intervals_st)
def test_normalization_preserves_points(intervals):
    raw_points = set()
    for iv in intervals:
        raw_points.update(range(iv.lo, iv.hi))
    assert as_points(IntervalSet(intervals)) == raw_points


@given(intervals_st)
def test_normalized_disjoint_and_sorted(intervals):
    s = IntervalSet(intervals)
    items = s.intervals
    for a, b in zip(items, items[1:]):
        assert a.hi < b.lo  # disjoint AND non-adjacent after coalescing


@given(intervals_st, intervals_st)
def test_union_is_set_union(a, b):
    sa, sb = IntervalSet(a), IntervalSet(b)
    assert as_points(sa.union(sb)) == as_points(sa) | as_points(sb)


@given(intervals_st, intervals_st)
def test_intersect_is_set_intersection(a, b):
    sa, sb = IntervalSet(a), IntervalSet(b)
    assert as_points(sa.intersect(sb)) == as_points(sa) & as_points(sb)


@given(intervals_st, intervals_st)
def test_overlaps_agrees_with_intersection(a, b):
    sa, sb = IntervalSet(a), IntervalSet(b)
    assert sa.overlaps(sb) == (not sa.intersect(sb).empty)


@given(intervals_st, interval_st)
def test_overlaps_interval_agrees(a, probe):
    sa = IntervalSet(a)
    expected = bool(as_points(sa) & set(range(probe.lo, probe.hi)))
    assert sa.overlaps_interval(probe) == expected


@given(intervals_st, st.integers(-250, 250))
def test_contains_agrees_with_points(a, value):
    sa = IntervalSet(a)
    assert sa.contains(value) == (value in as_points(sa))


@given(intervals_st)
def test_total_bytes_is_cardinality(a):
    sa = IntervalSet(a)
    assert sa.total_bytes() == len(as_points(sa))
