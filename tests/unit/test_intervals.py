"""Unit tests for dense interval sets."""

import pytest

from repro.analysis.intervals import Interval, IntervalSet


class TestInterval:
    def test_length(self):
        assert len(Interval(4, 10)) == 6

    def test_empty(self):
        assert Interval(5, 5).empty
        assert Interval(6, 5).empty
        assert not Interval(5, 6).empty

    def test_empty_length_zero(self):
        assert len(Interval(6, 5)) == 0

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))
        assert not Interval(0, 10).overlaps(Interval(10, 20))

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)

    def test_contains(self):
        iv = Interval(3, 7)
        assert iv.contains(3)
        assert iv.contains(6)
        assert not iv.contains(7)

    def test_covers(self):
        assert Interval(0, 10).covers(Interval(2, 8))
        assert not Interval(0, 10).covers(Interval(2, 12))


class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        s = IntervalSet([Interval(0, 5), Interval(3, 8)])
        assert s.intervals == (Interval(0, 8),)

    def test_normalization_merges_adjacent(self):
        s = IntervalSet([Interval(0, 5), Interval(5, 8)])
        assert s.intervals == (Interval(0, 8),)

    def test_normalization_keeps_gaps(self):
        s = IntervalSet([Interval(0, 5), Interval(6, 8)])
        assert len(s) == 2

    def test_drops_empty(self):
        s = IntervalSet([Interval(5, 5), Interval(1, 2)])
        assert s.intervals == (Interval(1, 2),)

    def test_sorting(self):
        s = IntervalSet([Interval(10, 12), Interval(0, 2)])
        assert s.intervals[0].lo == 0

    def test_total_bytes(self):
        s = IntervalSet([Interval(0, 4), Interval(8, 12)])
        assert s.total_bytes() == 8

    def test_bounds(self):
        s = IntervalSet([Interval(0, 4), Interval(8, 12)])
        assert s.bounds() == Interval(0, 12)

    def test_bounds_empty(self):
        assert IntervalSet().bounds() is None

    def test_union(self):
        a = IntervalSet([Interval(0, 4)])
        b = IntervalSet([Interval(4, 8)])
        assert a.union(b).intervals == (Interval(0, 8),)

    def test_intersect(self):
        a = IntervalSet([Interval(0, 10), Interval(20, 30)])
        b = IntervalSet([Interval(5, 25)])
        assert a.intersect(b).intervals == (Interval(5, 10), Interval(20, 25))

    def test_intersect_disjoint(self):
        a = IntervalSet([Interval(0, 4)])
        b = IntervalSet([Interval(4, 8)])
        assert a.intersect(b).empty

    def test_overlaps_true(self):
        a = IntervalSet([Interval(0, 4), Interval(100, 104)])
        b = IntervalSet([Interval(102, 103)])
        assert a.overlaps(b)
        assert b.overlaps(a)

    def test_overlaps_false(self):
        a = IntervalSet([Interval(0, 4), Interval(100, 104)])
        b = IntervalSet([Interval(4, 100)])
        assert not a.overlaps(b)

    def test_overlaps_interval(self):
        s = IntervalSet([Interval(0, 4), Interval(10, 14)])
        assert s.overlaps_interval(Interval(12, 13))
        assert s.overlaps_interval(Interval(3, 11))
        assert not s.overlaps_interval(Interval(4, 10))
        assert not s.overlaps_interval(Interval(20, 30))

    def test_overlaps_empty_probe(self):
        s = IntervalSet([Interval(0, 4)])
        assert not s.overlaps_interval(Interval(2, 2))

    def test_contains(self):
        s = IntervalSet([Interval(0, 4)])
        assert s.contains(0)
        assert not s.contains(4)

    def test_equality_and_hash(self):
        a = IntervalSet([Interval(0, 4), Interval(2, 8)])
        b = IntervalSet([Interval(0, 8)])
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_property(self):
        assert IntervalSet().empty
        assert IntervalSet.empty_set().empty
