"""Unit tests for access records and per-TB footprint lowering."""

import pytest

from repro.analysis.access import AccessRecord, TBAccessSets
from repro.analysis.intervals import Interval, IntervalSet


class TestAccessRecord:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            AccessRecord("load", 0, 4, 0)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            AccessRecord("read", 0, 0, 0)

    def test_normalized_drops_degenerate_dims(self):
        rec = AccessRecord.normalized(
            "read", 0, 4, 100, (0, 0, 0), [(0, 5), (4, 1)]
        )
        assert rec.dims == ()

    def test_normalized_folds_negative_stride(self):
        rec = AccessRecord.normalized(
            "read", 0, 4, 100, (0, 0, 0), [(-4, 5)]
        )
        assert rec.base == 100 - 4 * 4
        assert rec.dims == ((4, 5),)

    def test_normalized_sorts_dims_descending(self):
        rec = AccessRecord.normalized(
            "read", 0, 4, 0, (0, 0, 0), [(4, 8), (64, 2)]
        )
        assert rec.dims == ((64, 2), (4, 8))

    def test_block_base(self):
        rec = AccessRecord.normalized("read", 0, 4, 10, (100, 1000, 0), [])
        assert rec.block_base(2, 3) == 10 + 200 + 3000

    def test_span_bytes(self):
        rec = AccessRecord.normalized("read", 0, 4, 0, (0, 0, 0), [(8, 4)])
        assert rec.span_bytes() == 8 * 3 + 4

    def test_footprint_dense(self):
        rec = AccessRecord.normalized("read", 0, 4, 0, (256, 0, 0), [(4, 64)])
        ivs, exact = rec.footprint(1)
        assert exact
        assert ivs == [Interval(256, 256 + 256)]

    def test_footprint_sparse_enumerates(self):
        rec = AccessRecord.normalized("read", 0, 4, 0, (0, 0, 0), [(16, 3)])
        ivs, exact = rec.footprint(0)
        assert exact
        assert ivs == [Interval(0, 4), Interval(16, 20), Interval(32, 36)]

    def test_footprint_budget_bounding(self):
        rec = AccessRecord.normalized("read", 0, 4, 0, (0, 0, 0), [(16, 100)])
        ivs, exact = rec.footprint(0, max_intervals=10)
        assert not exact
        assert ivs == [Interval(0, 16 * 99 + 4)]

    def test_footprint_two_dims_coalesce(self):
        # inner dense dim (4,16) makes runs of 64B; outer stride 64 adjacent
        rec = AccessRecord.normalized(
            "read", 0, 4, 0, (0, 0, 0), [(64, 4), (4, 16)]
        )
        ivs, exact = rec.footprint(0)
        assert exact
        assert ivs == [Interval(0, 256)]

    def test_footprint_two_dims_sparse(self):
        rec = AccessRecord.normalized(
            "read", 0, 4, 0, (0, 0, 0), [(128, 2), (4, 8)]
        )
        ivs, exact = rec.footprint(0)
        assert exact
        assert ivs == [Interval(0, 32), Interval(128, 160)]


class TestTBAccessSets:
    def _sets(self):
        records = (
            AccessRecord.normalized("read", 0, 4, 0, (256, 0, 0), [(4, 64)]),
            AccessRecord.normalized(
                "write", 1, 4, 1 << 16, (256, 0, 0), [(4, 64)]
            ),
        )
        return TBAccessSets(grid=(4, 2, 1), records=records)

    def test_num_tbs(self):
        assert self._sets().num_tbs == 8

    def test_coords_x_major(self):
        sets = self._sets()
        assert sets.coords(0) == (0, 0, 0)
        assert sets.coords(1) == (1, 0, 0)
        assert sets.coords(4) == (0, 1, 0)
        assert sets.coords(7) == (3, 1, 0)

    def test_coords_out_of_range(self):
        with pytest.raises(IndexError):
            self._sets().coords(8)

    def test_reads_and_writes_separate(self):
        sets = self._sets()
        assert sets.reads(0) == IntervalSet([Interval(0, 256)])
        assert sets.writes(0) == IntervalSet([Interval(1 << 16, (1 << 16) + 256)])

    def test_caching_returns_same_object(self):
        sets = self._sets()
        assert sets.reads(3) is sets.reads(3)

    def test_kernel_reads_bounding(self):
        sets = self._sets()
        kernel_reads = sets.kernel_reads()
        assert kernel_reads.overlaps_interval(Interval(0, 4))
        assert kernel_reads.overlaps_interval(Interval(3 * 256, 3 * 256 + 4))

    def test_kernel_writes_exclude_reads(self):
        sets = self._sets()
        assert not sets.kernel_writes().overlaps_interval(Interval(0, 256))

    def test_kernel_sets_computed_once(self):
        sets = self._sets()
        reads, writes = sets.kernel_reads(), sets.kernel_writes()
        assert sets.kernel_reads() is reads
        assert sets.kernel_writes() is writes
        # the per-TB entries share the dict and stay apart
        assert sets.reads(0) is not reads
        fresh = self._sets()
        assert reads == fresh.kernel_reads()
        assert writes == fresh.kernel_writes()
