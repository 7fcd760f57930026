"""The columnar per-TB table behind ``RunStats.tb_records``.

:class:`~repro.sim.stats.TBTable` keeps a run's TB lifecycles as six
parallel lists and builds :class:`~repro.sim.stats.TBRecord` rows only
when read.  These tests hold it to the list-of-rows contract its
consumers rely on, hold the column readers (stalls, invariants, the
engine's histograms) to the per-row definitions, and check that both
engine tiers leave complete columns behind.
"""

import math
import pickle
import struct

import pytest

from repro.experiments.common import (
    ExperimentContext,
    _make_model,
    _model_plan_params,
)
from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram, percentile
from repro.obs.render import record_engine_metrics
from repro.sim.stats import TB_COLUMNS, RunStats, TBRecord, TBTable

ROWS = [
    TBRecord(0, 0, ready_ns=0.0, start_ns=10.0, finish_ns=20.0, sm=3),
    TBRecord(0, 1, ready_ns=5.0, start_ns=5.0, finish_ns=15.0, sm=4),
    TBRecord(1, 0, ready_ns=20.0, start_ns=40.0, finish_ns=50.0),
]


def _stats(rows=ROWS):
    return RunStats(model="m", application="a", tb_records=list(rows))


def _bits(value):
    """The float's bytes: tells +0.0 from -0.0."""
    return struct.pack("<d", value)


class TestRows:
    def test_rows_round_trip(self):
        table = TBTable(ROWS)
        assert list(table) == ROWS
        assert [type(r) for r in table] == [TBRecord] * 3

    def test_run_stats_converts_a_row_list(self):
        stats = _stats()
        assert isinstance(stats.tb_records, TBTable)
        assert list(stats.tb_records) == ROWS
        assert isinstance(RunStats(model="m", application="a").tb_records,
                          TBTable)

    def test_append_fills_every_column(self):
        table = TBTable()
        table.append(ROWS[1])
        assert {name: getattr(table, name) for name in TB_COLUMNS} == {
            "kernel_index": [0], "tb_id": [1], "ready_ns": [5.0],
            "start_ns": [5.0], "finish_ns": [15.0], "sm": [4],
        }

    def test_len_and_truth(self):
        assert len(TBTable()) == 0 and not TBTable()
        assert len(TBTable(ROWS)) == 3 and TBTable(ROWS)

    def test_indexing(self):
        table = TBTable(ROWS)
        assert [table[i] for i in range(3)] == ROWS
        assert table[-1] == ROWS[-1]
        assert table[2].sm == -1
        with pytest.raises(IndexError):
            table[3]

    def test_slicing_returns_a_table(self):
        table = TBTable(ROWS)
        assert table[1:] == TBTable(ROWS[1:])
        assert table[::-1] == TBTable(ROWS[::-1])
        assert list(table[:0]) == []

    def test_equality_compares_columns(self):
        assert TBTable(ROWS) == TBTable(list(ROWS))
        assert TBTable(ROWS) != TBTable(ROWS[:2])
        assert TBTable(ROWS[:2]) != TBTable([ROWS[1], ROWS[0]])
        assert TBTable(ROWS) != ROWS  # one representation
        assert _stats() == _stats()
        changed = _stats()
        changed.tb_records.finish_ns[0] = 21.0
        assert changed != _stats()

    def test_pickles(self):
        stats = _stats()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(stats, protocol))
            assert copy == stats
            assert list(copy.tb_records) == ROWS


class TestNormalizedStalls:
    CASES = [
        TBRecord(0, 0, 0.0, 10.0, 20.0),    # stalled
        TBRecord(0, 1, 10.0, 10.0, 20.0),   # ready == start: +0.0
        TBRecord(0, 2, 15.0, 10.0, 20.0),   # ready after start
        TBRecord(0, 3, 0.0, 10.0, 10.0),    # zero duration
        TBRecord(0, 4, 0.0, 10.0, 5.0),     # negative duration
        TBRecord(0, 5, 0.1, 0.3, 0.7),      # inexact float operations
        TBRecord(0, 6, -0.0, 0.0, 1.0),     # signed zeros
    ]

    def test_bit_identical_to_rows(self):
        stalls = _stats(self.CASES).normalized_stalls()
        assert [_bits(v) for v in stalls] == [
            _bits(r.normalized_stall) for r in self.CASES
        ]

    def test_ready_equal_to_start_is_positive_zero(self):
        value = _stats(self.CASES[1:2]).normalized_stalls()[0]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_quartiles_of_the_row_values(self):
        values = sorted(r.normalized_stall for r in self.CASES)
        assert _stats(self.CASES).stall_quartiles() == tuple(
            percentile(values, q) for q in (0.25, 0.50, 0.75)
        )


class TestValidateInvariants:
    def _message(self, rows):
        with pytest.raises(AssertionError) as info:
            _stats(rows).validate_invariants()
        return str(info.value)

    def test_clean_table_passes(self):
        stats = _stats()
        assert stats.validate_invariants() is stats

    def test_appended_bad_record_fails_as_before(self):
        # the record tests/unit/test_sim.py appends to its stats
        stats = _stats()
        stats.tb_records.append(
            TBRecord(1, 1, ready_ns=10.0, start_ns=5.0, finish_ns=8.0)
        )
        with pytest.raises(AssertionError, match=(
            r"^TB 1:1 started before its dependencies resolved$"
        )):
            stats.validate_invariants()

    def test_first_bad_tb_in_record_order(self):
        late = TBRecord(2, 7, ready_ns=9.0, start_ns=5.0, finish_ns=8.0)
        negative = TBRecord(3, 1, ready_ns=0.0, start_ns=5.0, finish_ns=4.0)
        assert self._message(ROWS + [negative, late]) == (
            "negative TB duration"
        )
        assert self._message(ROWS + [late, negative]) == (
            "TB 2:7 started before its dependencies resolved"
        )

    def test_ready_check_before_duration_check_in_one_tb(self):
        both = TBRecord(4, 2, ready_ns=9.0, start_ns=5.0, finish_ns=1.0)
        assert self._message([both]) == (
            "TB 4:2 started before its dependencies resolved"
        )

    def test_tolerance_is_unchanged(self):
        # within 1e-9 ns of ready counts as started on time
        _stats([TBRecord(0, 0, 5.0 + 5e-10, 5.0, 6.0)]).validate_invariants()
        assert self._message([TBRecord(0, 0, 5.0 + 1e-8, 5.0, 6.0)]) == (
            "TB 0:0 started before its dependencies resolved"
        )


# ----------------------------------------------------------------------
# both engine tiers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


#: (workload, model, the engine tier that serves the cell); nw's 16,384
#: TBs overflow the histogram reservoir, so its sampling is compared too
CELLS = [("nw", "baseline", "vectorized"), ("nw", "consumer3", "reference")]


def _run(context, workload, model, metrics=None):
    plan = context.plan_for(context.app(workload), *_model_plan_params(model))
    return _make_model(model, context.gpu_config).run(plan, metrics=metrics)


def _histograms(metrics):
    """count, total, min, max and the reservoir of the TB histograms"""
    return {
        name: (h.count, h.total, h.min, h.max, list(h._samples))
        for name in ("engine.tb_stall_ns", "engine.tb_duration_ns")
        for h in [metrics.histogram(name)]
    }


def _row_fed(rows):
    """The TB histograms fed row by row, as the engines fed them before
    the columns."""
    metrics = MetricsRegistry()
    for tb in rows:
        metrics.observe("engine.tb_stall_ns", tb.stall_ns)
        metrics.observe("engine.tb_duration_ns", tb.duration_ns)
    return metrics


@pytest.mark.parametrize("workload,model,tier", CELLS)
def test_engine_histograms_match_row_iteration(context, workload, model,
                                               tier):
    metrics = MetricsRegistry()
    stats = _run(context, workload, model, metrics)
    assert metrics.snapshot()["counters"]["engine.tier." + tier] == 1
    assert _histograms(metrics) == _histograms(_row_fed(stats.tb_records))
    assert metrics.histogram("engine.tb_stall_ns").count == (
        len(stats.tb_records)
    ) > Histogram.RESERVOIR_SIZE


def test_histograms_of_hand_built_rows():
    # ready after start and zero or negative durations, which no engine
    # records
    rows = TestNormalizedStalls.CASES
    metrics = MetricsRegistry()
    record_engine_metrics(metrics, _stats(rows), events_processed=0,
                          peak_pending=0)
    assert _histograms(metrics) == _histograms(_row_fed(rows))


def test_empty_run_creates_no_histograms():
    metrics = MetricsRegistry()
    record_engine_metrics(metrics, RunStats(model="m", application="a"),
                          events_processed=0, peak_pending=0)
    assert metrics.snapshot()["histograms"] == {}


@pytest.mark.parametrize("workload,model", [cell[:2] for cell in CELLS])
def test_engines_fill_every_column(context, workload, model):
    stats = _run(context, workload, model)
    table = stats.tb_records
    assert type(table) is TBTable
    lengths = {name: len(getattr(table, name)) for name in TB_COLUMNS}
    assert set(lengths.values()) == {len(table)}, lengths
    assert sum(kr.num_tbs for kr in stats.kernel_records) == len(table)
    for name in TB_COLUMNS:
        assert {type(v) for v in getattr(table, name)} <= {int, float}
    assert pickle.loads(pickle.dumps(stats)) == stats
