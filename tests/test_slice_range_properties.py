"""slice_range and aggregate_cell against reference copies of their straightforward bodies.

slice_range picks rows by the aligned bounds of the range; the reference
tests every slice against its own end. aggregate_cell skips the sum for a
cell of one entry; the reference always sums. Generated tables are built
by hand, so they may hold a slice of another granularity, rows out of date
order, and columns whose report ids or cells disagree with each other.
"""

import datetime as dt
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from chronofuse import (
    Aggregator,
    Cell,
    CellEntry,
    ColumnDescriptor,
    Granularity,
    TemporalTable,
    TimePoint,
    aggregate_cell,
    slice_for,
    slice_range,
)
from chronofuse.errors import InvertedRange

FIRST_DAY = dt.date(2020, 12, 1)
METRICS = ("a", "b", "c", "d")
SOURCES = ("r1", "r2", "r3")


def reference_slice_range(table: TemporalTable, start: TimePoint, end: TimePoint) -> TemporalTable:
    """slice_range as it tested every slice against its end."""
    if start.sort_key > end.sort_key:
        raise InvertedRange(f"range start {start.isoformat()} is after end {end.isoformat()}")
    kept = {
        ts: dict(row)
        for ts, row in table.rows.items()
        if ts.start_date <= end.date and ts.end_date > start.date
    }
    entries: dict[str, list[tuple[CellEntry, ...]]] = {}
    for row in kept.values():
        for metric, cell in row.items():
            entries.setdefault(metric, []).append(cell.entries)
    columns = tuple(
        replace(column, source_reports=frozenset({e.source for es in entries[column.metric] for e in es}))
        for column in table.columns
        if column.metric in entries
    )
    return TemporalTable(granularity=table.granularity, columns=columns, rows=kept)


def reference_aggregate_cell(cell: Cell, aggregator: Aggregator) -> float:
    """aggregate_cell as it summed and sorted every cell, whatever its size."""
    values = cell.values
    if aggregator is Aggregator.MEAN:
        return math.fsum(values) / len(values)
    if aggregator is Aggregator.MEDIAN:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2
    if aggregator is Aggregator.FIRST:
        return min(cell.entries, key=lambda e: (e.source, e.value)).value
    return max(cell.entries, key=lambda e: (e.source, e.value)).value


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.25]),
                   st.floats(-1e300, 1e300))  # sums of three stay finite
ENTRIES = st.lists(st.builds(CellEntry, VALUES, st.sampled_from(SOURCES)), min_size=1, max_size=3)
CELLS = st.builds(lambda entries: Cell(tuple(entries)), ENTRIES)
DAYS = st.integers(0, 200).map(lambda k: FIRST_DAY + dt.timedelta(days=k))


@st.composite
def tables(draw):
    """A hand-built table, with at most one slice of another granularity."""
    granularity = draw(st.sampled_from(list(Granularity)))
    starts = {slice_for(TimePoint.day(day), granularity) for day in draw(st.lists(DAYS, max_size=12))}
    if draw(st.booleans()):
        other = draw(st.sampled_from([g for g in Granularity if g is not granularity]))
        starts.add(slice_for(TimePoint.day(draw(DAYS)), other))
    slices = draw(st.permutations(sorted(starts, key=lambda ts: (ts.start_date, ts.granularity.value))))
    rows = {
        ts: draw(st.dictionaries(st.sampled_from(METRICS), CELLS, min_size=1, max_size=3))
        for ts in slices
    }
    columns = tuple(
        ColumnDescriptor(metric, draw(st.sampled_from(["", "u"])), None,
                         frozenset(draw(st.lists(st.sampled_from(SOURCES), max_size=3))))
        for metric in draw(st.lists(st.sampled_from(METRICS), unique=True))
    )
    return TemporalTable(granularity, columns, rows)


@st.composite
def time_points(draw):
    day = draw(st.integers(-40, 240).map(lambda k: FIRST_DAY + dt.timedelta(days=k)))
    if draw(st.booleans()):
        return TimePoint.day(day)
    return TimePoint.minute(day, dt.time(draw(st.integers(0, 23)), draw(st.integers(0, 59))))


@settings(max_examples=300, deadline=None)
@given(tables(), time_points(), time_points())
def test_slice_range_equals_the_end_tested_reference(table, start, end):
    try:
        expected = reference_slice_range(table, start, end)
    except InvertedRange as exc:
        try:
            slice_range(table, start, end)
        except InvertedRange as got:
            assert str(got) == str(exc)
            return
        raise AssertionError("slice_range accepted an inverted range")
    sliced = slice_range(table, start, end)
    assert sliced.granularity is table.granularity
    assert list(sliced.rows.items()) == list(expected.rows.items())
    for ts, row in sliced.rows.items():
        assert row is not table.rows[ts]
    assert sliced.columns == expected.columns
    assert all(type(column) is ColumnDescriptor for column in sliced.columns)


@settings(max_examples=300, deadline=None)
@given(CELLS, st.sampled_from(list(Aggregator)))
def test_aggregate_cell_equals_the_summing_reference(cell, aggregator):
    # repr, not ==: the sign of a zero must match too
    assert repr(aggregate_cell(cell, aggregator)) == repr(reference_aggregate_cell(cell, aggregator))
