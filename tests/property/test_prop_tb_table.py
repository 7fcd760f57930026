"""Property tests: the columnar TB table reads like a list of rows.

:class:`~repro.sim.stats.TBTable` stores a run's TB lifecycles as six
columns.  On random tables — including equal, signed-zero, NaN and
infinite times, zero and negative durations and ready-after-start
rows — its rows, slices and pickles must round-trip, its
``normalized_stalls`` must equal the per-row ``normalized_stall`` bit for
bit, and ``validate_invariants`` must fail exactly when, and with the
message, the per-row check fails on the first bad TB.
"""

import pickle
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RunStats, TBRecord, TBTable

#: few distinct times, so ties (ready == start, finish == start) and
#: values within the 1e-9 tolerance come up often
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 2.5, 40.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ROWS = st.lists(
    st.builds(
        TBRecord,
        st.integers(0, 5), st.integers(0, 9), TIMES, TIMES, TIMES,
        st.integers(-1, 7),
    ),
    max_size=30,
)


def _bits(value):
    return struct.pack("<d", value)


def _row_verdict(rows):
    """The per-row check: the message of the first bad TB, or None."""
    for tb in rows:
        if tb.start_ns + 1e-9 < tb.ready_ns:
            return "TB {}:{} started before its dependencies resolved".format(
                tb.kernel_index, tb.tb_id
            )
        if tb.finish_ns < tb.start_ns:
            return "negative TB duration"
    return None


def _key(rows):
    """Rows as tuples in which a NaN time equals itself."""
    return [
        (r.kernel_index, r.tb_id, _bits(r.ready_ns), _bits(r.start_ns),
         _bits(r.finish_ns), r.sm)
        for r in rows
    ]


@given(ROWS, st.integers(-35, 35), st.integers(-35, 35))
@settings(max_examples=200, deadline=None)
def test_rows_slices_and_pickles_round_trip(rows, lo, hi):
    table = TBTable(rows)
    assert len(table) == len(rows)
    assert _key(table) == _key(rows)
    indexed = [table[i] for i in range(-len(rows), len(rows))]
    assert _key(indexed) == _key(rows + rows)
    assert _key(table[lo:hi]) == _key(rows[lo:hi])
    assert _key(table[::-1]) == _key(rows[::-1])
    assert _key(pickle.loads(pickle.dumps(table))) == _key(rows)
    appended = TBTable()
    for row in rows:
        appended.append(row)
    assert _key(appended) == _key(rows)


@given(ROWS)
@settings(max_examples=300, deadline=None)
def test_normalized_stalls_bit_identical_to_rows(rows):
    stalls = RunStats(model="m", application="a",
                      tb_records=rows).normalized_stalls()
    assert list(map(_bits, stalls)) == [
        _bits(r.normalized_stall) for r in rows
    ]


@given(ROWS)
@settings(max_examples=300, deadline=None)
def test_validate_invariants_fails_like_the_row_check(rows):
    stats = RunStats(model="m", application="a", tb_records=rows)
    expected = _row_verdict(rows)
    try:
        stats.validate_invariants()
    except AssertionError as error:
        assert str(error) == expected
    else:
        assert expected is None
