"""Fusion of observations into a time-keyed dynamic-column table.

Rows are time slices (day, week, or month buckets), columns are metrics
created on demand as new reports introduce them. Tables are immutable
values: fuse and add_report build new tables, and every sequence is kept
in a canonical order (rows chronological, columns lexicographic, cell
entries by source, value, then sign) so that fusion is order-independent.
"""

from __future__ import annotations

import datetime as dt
import math
import operator
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    EmptyCell,
    FinerGranularity,
    InvertedRange,
    MalformedStore,
    NonFiniteValue,
    OutputWriteError,
    UnitConflict,
    VersionMismatch,
    read_text,
)
from .ingest import _RESERVED_NAME_CHARS, Observation, RefRange, TimePoint

STORE_MAGIC = "chronofuse-table"
STORE_VERSION = 1


class Granularity(str, Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"


class Aggregator(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    FIRST = "first"
    LAST = "last"


@dataclass(frozen=True, slots=True)
class TimeSlice:
    """A fixed-granularity time bucket; start is aligned to the bucket."""

    start: TimePoint
    granularity: Granularity

    def __init__(self, start: TimePoint, granularity: Granularity):
        if start.date != slice_start(start.date, granularity) or start.time_of_day is not None:
            raise ValueError(f"slice start {start.isoformat()} not aligned to {granularity.value}")
        _set_start(self, start)
        _set_granularity(self, granularity)

    def __hash__(self):
        # equal slices have equal start dates; hashing the date skips the generated
        # hash's calls into TimePoint and the granularity enum
        return hash(self.start.date)

    @property
    def start_date(self) -> dt.date:
        return self.start.date

    @property
    def end_date(self) -> dt.date:
        """Exclusive end of the slice."""
        return _slice_end(self.start.date, self.granularity)


@dataclass(frozen=True, slots=True)
class CellEntry:
    value: float
    source: str

    def __init__(self, value: float, source: str):
        _set_value(self, value)
        _set_source(self, source)


@dataclass(frozen=True, slots=True)
class Cell:
    """All values observed for one metric in one slice, source-tagged.

    Colliding readings are kept rather than overwritten; aggregation is
    deferred to chart building.
    """

    entries: tuple[CellEntry, ...]

    def __init__(self, entries: tuple[CellEntry, ...]):
        if not entries:
            raise ValueError("cells must hold at least one entry")
        _set_entries(self, entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.entries)


# The slot setters the __init__s above store through: a dataclass's generated
# __init__ pays one object.__setattr__ per field.
_set_start = TimeSlice.start.__set__
_set_granularity = TimeSlice.granularity.__set__
_set_value = CellEntry.value.__set__
_set_source = CellEntry.source.__set__
_set_entries = Cell.entries.__set__


@dataclass(frozen=True)
class ColumnDescriptor:
    metric: str
    unit: str = ""
    reference_range: RefRange | None = None
    source_reports: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True, eq=True)
class TemporalTable:
    """Dynamic-column relational table keyed by time slices.

    Treated as an immutable value: fuse, add_report, and slice_range all
    return fresh tables, so instances are safe to share read-only.
    """

    granularity: Granularity
    columns: tuple[ColumnDescriptor, ...]
    rows: dict[TimeSlice, dict[str, Cell]]

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(c.metric for c in self.columns)

    def column_for(self, metric: str) -> ColumnDescriptor | None:
        for column in self.columns:
            if column.metric == metric:
                return column
        return None


def slice_start(date: dt.date, granularity: Granularity) -> dt.date:
    """Align a date to its bucket start (weeks start Monday, months on day 1)."""
    if granularity is Granularity.DAY:
        return date
    if granularity is Granularity.WEEK:
        return date - dt.timedelta(days=date.weekday())
    return date.replace(day=1)


def _slice_end(start: dt.date, granularity: Granularity) -> dt.date:
    """The exclusive end of the slice that starts on `start`."""
    if granularity is Granularity.DAY:
        return start + dt.timedelta(days=1)
    if granularity is Granularity.WEEK:
        return start + dt.timedelta(days=7)
    if start.month == 12:
        return dt.date(start.year + 1, 1, 1)
    return dt.date(start.year, start.month + 1, 1)


def slice_for(time: TimePoint, granularity: Granularity) -> TimeSlice:
    return TimeSlice(TimePoint.day(slice_start(time.date, granularity)), granularity)


def column_count_formula(m: int, r: int) -> int:
    """Upper-bound column count for r reports of up to m metrics each.

    Evaluates sum(k * r for k in 1..m) = r * m * (m + 1) / 2 exactly. The
    real table column count is the union of metric names, which this bounds.
    """
    if m < 0 or r < 0:
        raise ValueError("m and r must be non-negative")
    return r * m * (m + 1) // 2


def fuse(
    observations: Iterable[Observation],
    granularity: Granularity = Granularity.DAY,
    *,
    ranges: Mapping[str, RefRange] | None = None,
) -> tuple[TemporalTable, list[str]]:
    """Fuse observations from any number of reports into one table.

    Each observation lands in the slice containing its time point; new
    metrics create new columns; colliding (metric, slice) readings
    accumulate in one cell. The result does not depend on input order.

    `ranges` optionally supplies per-metric reference ranges (typically
    the lexicon's) for the column descriptors.

    Raises UnitConflict when one metric arrives with two different
    non-empty units.
    """
    acc = _Accumulator(granularity, ranges=ranges)
    acc.add_observations(observations)
    return acc.table(), acc.warnings()


def _merge_unit(units: dict[str, str], metric: str, unit: str) -> None:
    current = units.get(metric, "")
    if unit and current and unit != current:
        raise UnitConflict(f"metric {metric!r} has conflicting units {current!r} and {unit!r}")
    if unit and not current:
        units[metric] = unit
    else:
        units.setdefault(metric, current)


def _check_finite(obs: Observation) -> None:
    if type(obs.value) is not float:  # an int or a bool, which repr writes without a '.'
        raise ValueError(f"value {obs.value!r} for {obs.metric} from {obs.source} is not a float")
    if not math.isfinite(obs.value):
        raise NonFiniteValue(f"non-finite value for {obs.metric} from {obs.source}")


def _entry_order(entry: CellEntry) -> tuple[str, float, float]:
    """Canonical cell entry order: by source, then value, then sign (-0.0 before 0.0)."""
    return (entry.source, entry.value, math.copysign(1.0, entry.value))


class _Accumulator:
    """Collects cell entries by slice start date and metric, then builds a table.

    Entries are keyed by `datetime.date` rather than `TimeSlice`, so a
    slice is built (and hashed) once per output row, not once per entry.
    Columns start from `columns` (their units, sources and ranges) and grow
    with the observations added; `ranges` override the columns' ranges.
    """

    def __init__(
        self,
        granularity: Granularity,
        columns: Iterable[ColumnDescriptor] = (),
        ranges: Mapping[str, RefRange] | None = None,
    ):
        self.granularity = granularity
        self.entries: dict[dt.date, dict[str, list[CellEntry]]] = {}
        self.units: dict[str, str] = {}
        self.sources: dict[str, set[str]] = {}
        self.ranges: dict[str, RefRange] = {}
        for c in columns:
            self.units[c.metric] = c.unit
            self.sources[c.metric] = set(c.source_reports)
            if c.reference_range is not None:
                self.ranges[c.metric] = c.reference_range
        self.ranges.update(ranges or {})
        self.flagged: dict[str, dict[str, int]] = {}

    def add_observations(self, observations: Iterable[Observation]) -> None:
        rows: dict[dt.date, dict[str, list[CellEntry]]] = {}  # by observation date
        # a (metric, unit) merged once cannot conflict again: the unit it leaves stays
        merged: set[tuple[str, str, str]] = set()  # (metric, unit, source)
        for obs in observations:
            if type(obs.value) is not float or not math.isfinite(obs.value):
                _check_finite(obs)
            row = rows.get(obs.time.date)
            if row is None:
                start = slice_start(obs.time.date, self.granularity)
                row = rows[obs.time.date] = self.entries.setdefault(start, {})
            row.setdefault(obs.metric, []).append(CellEntry(obs.value, obs.source))
            if (obs.metric, obs.unit, obs.source) not in merged:
                merged.add((obs.metric, obs.unit, obs.source))
                _merge_unit(self.units, obs.metric, obs.unit)
                self.sources.setdefault(obs.metric, set()).add(obs.source)
            if obs.flags:
                counts = self.flagged.setdefault(obs.metric, {})
                for flag in obs.flags:
                    counts[flag] = counts.get(flag, 0) + 1

    def add_rows(self, start: dt.date, rows: Iterable[Mapping[str, Cell]]) -> None:
        """Feed existing cells (whose columns were given at construction) to slice `start`."""
        target = self.entries.setdefault(start, {})
        for row in rows:
            for metric, cell in row.items():
                target.setdefault(metric, []).extend(cell.entries)

    def table(self, base: Mapping[TimeSlice, Mapping[str, Cell]] | None = None) -> TemporalTable:
        """Build the table; with `base`, merge into its rows and share the rest."""
        columns = tuple(
            ColumnDescriptor(
                metric=metric,
                unit=self.units[metric],
                reference_range=self.ranges.get(metric),
                source_reports=frozenset(self.sources[metric]),
            )
            for metric in sorted(self.units)
        )
        rows: dict[TimeSlice, dict[str, Cell]] = dict(base) if base else {}
        last = next(reversed(rows)).start.date if rows else None
        out_of_order = False
        for day in sorted(self.entries):
            ts = TimeSlice(TimePoint.day(day), self.granularity)
            old = rows.get(ts, {}) if base else {}
            cells = dict(old)
            for metric, entries in self.entries[day].items():
                if metric in old:
                    entries = [*old[metric].entries, *entries]
                cells[metric] = Cell(tuple(entries) if len(entries) == 1
                                     else tuple(sorted(entries, key=_entry_order)))
            if not old and last is not None and day < last:
                out_of_order = True
            rows[ts] = {metric: cells[metric] for metric in sorted(cells)}
        if out_of_order:
            rows = dict(sorted(rows.items(), key=lambda item: item[0].start.date))
        return TemporalTable(granularity=self.granularity, columns=columns, rows=rows)

    def warnings(self) -> list[str]:
        warnings = []
        for metric in sorted(self.flagged):
            for flag in sorted(self.flagged[metric]):
                count = self.flagged[metric][flag]
                warnings.append(f"metric {metric}: {count} observation(s) flagged {flag}")
        for day in sorted(self.entries):
            row = self.entries[day]
            for metric in sorted(row):
                n = len(row[metric])
                if n > 1:
                    warnings.append(f"slice {day.isoformat()} metric {metric}: {n} entries accumulated")
        return warnings


def add_report(
    table: TemporalTable,
    observations: Iterable[Observation],
    *,
    ranges: Mapping[str, RefRange] | None = None,
) -> TemporalTable:
    """Fold additional observations into an existing table.

    Equivalent to re-fusing the union of everything the table holds with
    the new observations; columns grow dynamically as before. Only the
    slices the observations touch are rebuilt: every other row, and every
    untouched cell of a touched row, is shared with the input table.
    """
    acc = _Accumulator(table.granularity, table.columns, ranges)
    acc.add_observations(observations)
    return acc.table(base=table.rows)


_source = operator.attrgetter("source")  # a cell entry's report id


def slice_range(table: TemporalTable, start: TimePoint, end: TimePoint) -> TemporalTable:
    """Restrict a table to slices intersecting [start, end] (dates inclusive).

    A time of day on either end is ignored. Each kept row is a fresh dict.
    Columns left without cells are dropped and surviving descriptors get
    their source sets recomputed from the surviving entries.

    Every slice is aligned to its own granularity, so it intersects the
    range exactly when its start date lies between the start of the slice
    of that granularity holding `start` and `end`'s date.
    """
    if start.sort_key > end.sort_key:
        raise InvertedRange(f"range start {start.isoformat()} is after end {end.isoformat()}")
    first = {granularity: slice_start(start.date, granularity) for granularity in Granularity}
    last = end.date
    kept = {
        ts: dict(row)
        for ts, row in table.rows.items()
        if first[ts.granularity] <= ts.start.date <= last
    }
    entries: defaultdict[str, list[tuple[CellEntry, ...]]] = defaultdict(list)
    for row in kept.values():
        for metric, cell in row.items():
            entries[metric].append(cell.entries)
    columns = tuple(
        ColumnDescriptor(column.metric, column.unit, column.reference_range,
                         frozenset(map(_source, chain.from_iterable(entries[column.metric]))))
        for column in table.columns
        if column.metric in entries
    )
    return TemporalTable(granularity=table.granularity, columns=columns, rows=kept)


def rebucket(table: TemporalTable, granularity: Granularity) -> TemporalTable:
    """Re-key a table to a coarser (or equal) granularity.

    The output rows of the last call are kept, by slice start, with the
    metrics and cells of the input rows each was built from: all an output
    row depends on. An output slice whose input rows have the same metrics
    in the same order, with every cell the identical object (`is`, not
    `==`: `0.0 == -0.0`), gets its kept row back; only the other slices are
    accumulated again, so after an append only the touched slice is
    rebuilt. The returned row dicts are fresh, so the caller may change
    them. One table's slices are kept at most, replaced whole when the call
    ends, so concurrent calls are safe; a process that alternates between
    tables gains nothing from this.
    """
    order = [Granularity.DAY, Granularity.WEEK, Granularity.MONTH]
    if order.index(granularity) < order.index(table.granularity):
        raise FinerGranularity(
            f"cannot rebucket {table.granularity.value} table to {granularity.value}"
        )
    if granularity is table.granularity:
        rows = {ts: dict(row) for ts, row in table.rows.items()}
        return TemporalTable(granularity, table.columns, rows)
    groups: dict[dt.date, list[dict[str, Cell]]] = {}  # input rows by output slice
    start = end = None
    for ts, row in table.rows.items():
        day = ts.start.date
        if end is None or not start <= day < end:  # rows are usually in date order: few lookups
            start = slice_start(day, granularity)
            end = _slice_end(start, granularity)
            rows = groups.setdefault(start, [])
        rows.append(row)
    known_granularity, known = _memory.buckets
    if known_granularity is not granularity:
        known = {}
    acc = _Accumulator(granularity, table.columns)
    buckets: dict[dt.date, _Bucket] = {}
    missed: dict[dt.date, tuple[tuple[str, ...], tuple[Cell, ...]]] = {}
    for start, rows in groups.items():
        metrics = tuple(chain.from_iterable(rows))
        cells = tuple(chain.from_iterable(row.values() for row in rows))
        kept = known.get(start)
        if (kept is not None and kept.metrics == metrics
                # as many cells as metrics; `is`, not ==: 0.0 == -0.0
                and all(map(operator.is_, kept.cells, cells))):
            buckets[start] = kept
        else:
            acc.add_rows(start, rows)
            missed[start] = metrics, cells
    built = acc.table()
    for ts, row in built.rows.items():
        buckets[ts.start.date] = _Bucket(*missed[ts.start.date], ts, row)
    buckets = {start: buckets[start] for start in sorted(buckets)}
    _memory.buckets = (granularity, buckets)
    rows = {bucket.ts: dict(bucket.row) for bucket in buckets.values()}
    return TemporalTable(granularity=granularity, columns=built.columns, rows=rows)


def aggregate_cell(cell: Cell, aggregator: Aggregator = Aggregator.MEAN) -> float:
    """Collapse a cell's entries to one value.

    first/last follow source report id order (entries are kept sorted by
    source then value, so ties within one report resolve by value). A cell
    of one entry gives its value as the general case would, without
    summing: mean adds 0.0, which turns -0.0 into 0.0 as fsum does, and
    median, first and last give the value as it is.
    """
    entries = cell.entries
    if len(entries) == 1:
        value = entries[0].value
        return value + 0.0 if aggregator is Aggregator.MEAN else value
    if not entries:
        raise EmptyCell("cannot aggregate an empty cell")
    values = cell.values
    if aggregator is Aggregator.MEAN:
        return math.fsum(values) / len(values)
    if aggregator is Aggregator.MEDIAN:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2
    # first/last hold for any entry order, not just canonically sorted cells
    if aggregator is Aggregator.FIRST:
        return min(cell.entries, key=lambda e: (e.source, e.value)).value
    return max(cell.entries, key=lambda e: (e.source, e.value)).value


# --- persistence ---
#
# Store grammar (one self-describing UTF-8 text file):
#
#   chronofuse-table 1
#   granularity <day|week|month>
#   columns <count>
#   col <metric>|<unit>|<low..high or empty>|<range unit>|<sources comma-sep>
#   rows <count>
#   row <start ISO date>|<metric>=<value>@<source>[;<value>@<source>...]|...
#   end
#
# Values are written with repr() so the round trip is bit exact. The loaders read each
# token through its writer (_Cursor.parse), so a file that loads saves to the same bytes.


def _writable_token(text: str, what: str = "name") -> str:
    # the store grammar cannot escape its separators, so refuse them up front
    if not _RESERVED_NAME_CHARS.isdisjoint(text):
        raise ValueError(
            f"{what} {text!r} contains a reserved store character (| ; = @ or a line break)"
        )
    return text


def save_table(table: TemporalTable, path: str | Path) -> None:
    """Write a table to its line-oriented store file (atomic replace).

    Refuses, before writing, a table whose store load_table would reject:
    NonFiniteValue for a non-finite cell value, ValueError for anything
    else. A row whose cells are the very objects that the module remembers
    for its slice is written as the remembered line, which is the text
    formatting it would give, so after a load or a save only the rows
    changed since are formatted. Once the file is written, its text and
    rows are what the module remembers (see load_table).
    """
    path = Path(path)
    lines = [f"{STORE_MAGIC} {STORE_VERSION}", f"granularity {table.granularity.value}"]
    lines.append(f"columns {len(table.columns)}")
    sources: dict[str, frozenset[str]] = {}
    for column in table.columns:
        if column.metric in sources:
            raise ValueError(f"column {column.metric!r} comes twice")
        _writable_token(column.metric, "metric")
        _writable_token(column.unit, "unit")
        for source in column.source_reports:
            _writable_token(source, "report id")
            # a col record lists report ids comma-separated, and a cell entry needs one
            if not source or "," in source:
                raise ValueError(f"report id {source!r} is empty or contains ','")
        rng, rng_unit = "", ""
        if column.reference_range is not None:
            rng = _range_text(column.reference_range)
            rng_unit = _writable_token(column.reference_range.unit, "range unit")
        sources[column.metric] = column.source_reports
        names = ",".join(sorted(column.source_reports))
        lines.append(f"col {column.metric}|{column.unit}|{rng}|{rng_unit}|{names}")
    lines.append(f"rows {len(table.rows)}")
    _, known_granularity, known_columns, known = _memory.store
    # the loader or the saver checked the remembered cells against known_columns, so they hold here too
    reusable = known_granularity is table.granularity and all(
        c.metric in sources and c.source_reports <= sources[c.metric] for c in known_columns
    )
    present: defaultdict[str, set[str]] = defaultdict(set)  # report ids in the rows formatted
    unused: list[dict[str, Cell]] = []  # the cells of the remembered rows not reused
    reused = False
    remembered = iter(known.items() if reusable else ())  # in date order, like the rows
    text, (known_ts, cells) = next(remembered, _NO_ROW)
    written: dict[str, tuple[TimeSlice, dict[str, Cell]]] = {}  # what load_table would parse
    previous: dt.date | None = None
    for ts, row in table.rows.items():
        day = ts.start.date
        if type(day) is not dt.date:  # a datetime is written with its time, which no loader reads
            raise ValueError(f"slice start {day!r} is not a date")
        if ts.granularity is not table.granularity:
            raise ValueError(f"slice {day} is a {ts.granularity.value} slice "
                             f"in a {table.granularity.value} table")
        if previous is not None and day <= previous:
            raise ValueError(f"row {day} comes after row {previous}")
        previous = day
        while known_ts is not None and known_ts.start.date < day:
            unused.append(cells)
            text, (known_ts, cells) = next(remembered, _NO_ROW)
        if (known_ts is not None and known_ts.start.date == day and len(row) == len(cells)
                and all(map(operator.is_, row, cells))  # the same metrics in the same order
                and all(map(operator.is_, row.values(), cells.values()))):  # not ==: 0.0 == -0.0
            lines.append("row " + text)
            written[text] = known_ts, cells
            reused = True
            text, (known_ts, cells) = next(remembered, _NO_ROW)
        else:
            body = _row_text(day.isoformat(), row, sources, present)
            lines.append("row " + body)
            written[body] = ts, {metric: row[metric] for metric in sorted(row)}
    # each report id a column names must be in one of its cells. The loader, or the save that
    # wrote them, found each one of a remembered column in a remembered row, which is here
    # unless it was not reused. With none reused, none is here: a remembered column's ids are
    # its cells' ids
    kept: dict[str, frozenset[str]] = {}
    if reused:
        unused.append(cells)
        unused.extend(rest for _, (_, rest) in remembered)
        lost: defaultdict[str, set[str]] = defaultdict(set)
        for row_cells in unused:
            _add_sources(lost, row_cells)
        kept = {c.metric: c.source_reports - lost[c.metric] for c in known_columns}
    for column in table.columns:
        missing = column.source_reports - present[column.metric] - kept.get(column.metric, set())
        if missing:  # cells edited since the load may have dropped them: look at every row
            missing -= {entry.source for row in table.rows.values() if column.metric in row
                        for entry in row[column.metric].entries}
        if missing:
            raise ValueError(f"column {column.metric!r} names report ids {sorted(missing)} "
                             f"that none of its cells has")
    lines.append("end")
    data = "\n".join(lines) + "\n"
    atomic_write_text(path, data)
    _memory.store = (data, table.granularity, tuple(table.columns), written)


def _row_text(day: str, row: Mapping[str, Cell], sources: Mapping[str, frozenset[str]],
              present: defaultdict[str, set[str]]) -> str:
    """The body of a row record, refusing the cells load_table would reject; adds their ids to `present`."""
    if not row:
        raise ValueError(f"slice {day} has no cells")
    fields = [day]
    for metric in sorted(row):
        column_sources = sources.get(metric)
        if column_sources is None:
            raise ValueError(f"slice {day} metric {metric!r} has no column")
        found = present[metric]
        texts = []
        previous = None
        for entry in row[metric].entries:
            value, source = entry.value, entry.source
            if type(value) is not float:  # an int or a bool is written as text no loader reads
                raise ValueError(f"slice {day} metric {metric!r} has value {value!r} from {source}, "
                                 f"which is not a float")
            if not math.isfinite(value):
                raise NonFiniteValue(f"non-finite value for {metric} from {source} in slice {day}")
            if source not in column_sources:
                raise ValueError(f"slice {day} metric {metric!r} has report id {source!r}, "
                                 f"which its column does not list")
            # _entry_order, with the sign compared only between equal values
            key = (source, value)
            if previous is not None and key <= previous and (
                key < previous or math.copysign(1.0, value) < math.copysign(1.0, previous[1])
            ):
                raise ValueError(f"slice {day} metric {metric!r} has cell entries not sorted by "
                                 f"(source, value, sign)")
            previous = key
            found.add(source)
            texts.append(f"{value!r}@{source}")
        fields.append(f"{metric}={';'.join(texts)}")
    return "|".join(fields)


def _add_sources(sources: defaultdict[str, set[str]], row: Mapping[str, Cell]) -> None:
    for metric, cell in row.items():
        sources[metric].update(entry.source for entry in cell.entries)


class _Bucket(NamedTuple):
    """An output slice of rebucket and the input cells it was built from."""

    metrics: tuple[str, ...]  # the input rows' metrics and cells, row after row
    cells: tuple[Cell, ...]
    ts: TimeSlice
    row: dict[str, Cell]


class _Memory:
    """What this module keeps between calls, one table's worth of each.

    `store` is the last store load_table read or save_table wrote: its whole
    text, its granularity, its columns and, for each row text in file order,
    the (slice, cells) it holds; the text is what save_table writes for
    those cells. `buckets` is the last rebucket's target granularity and its
    output slices by start date. Each is replaced whole, in one assignment,
    never changed in place, so a concurrent call sees the old or the new
    value, never the text of one store with the rows of another.
    """

    def __init__(self):
        self.store: tuple[
            str | None,
            Granularity | None,
            tuple[ColumnDescriptor, ...],
            dict[str, tuple[TimeSlice, dict[str, Cell]]],
        ] = (None, None, (), {})
        self.buckets: tuple[Granularity | None, dict[dt.date, _Bucket]] = (None, {})


_memory = _Memory()
_NO_ROW = (None, (None, {}))  # save_table's stand-in past the last remembered row


def load_table(path: str | Path) -> TemporalTable:
    """Read a store file back into a table.

    Raises VersionMismatch for unsupported schema versions and
    MalformedStore for any other text that save_table does not write, such
    as `1.50` for `1.5` or a truncated file (a missing `end` sentinel).

    The text and the rows of the last store loaded or saved are kept. A
    file whose text is the kept text is not parsed: it gets the kept
    columns and fresh copies of the kept rows, which is what parsing would
    give, since save_table refuses every table whose store this would
    reject. Any other text is read through every check, but a row line
    whose text was kept, under the same granularity, is not parsed again,
    so reloading a store after an append parses only the new or changed
    rows. Every check that depends on the rest of the file (col records,
    col source sets, row order) runs on every row. save_table writes a kept
    row's text again while the row is unchanged.
    """
    path = Path(path)
    text = read_text(path, MalformedStore, "table store")
    known_text, known_granularity, known_columns, known = _memory.store
    if text == known_text:
        return TemporalTable(granularity=known_granularity, columns=known_columns,
                             rows={ts: dict(row) for ts, row in known.values()})
    cursor = _Cursor(text, path.name, STORE_MAGIC, STORE_VERSION, "table store")
    granularity = cursor.parse(Granularity, cursor.expect_field("granularity"), "granularity",
                               lambda g: g.value)
    sources: dict[str, set[str]] = {}
    columns = []
    for fields in cursor.records("columns", "col", 5):
        column = _parse_column(fields, cursor)
        if column.metric in sources:
            cursor.fail(f"duplicate col for metric {column.metric!r}")
        sources[column.metric] = set()
        columns.append(column)
    if known_granularity is not granularity:
        known = {}
    parsed: dict[str, tuple[TimeSlice, dict[str, Cell]]] = {}
    rows: dict[TimeSlice, dict[str, Cell]] = {}
    previous: dt.date | None = None
    for _ in range(cursor.expect_count("rows")):
        line = cursor.expect_field("row")
        ts, row = parsed[line] = known.get(line) or _parse_row(line.split("|"), granularity, cursor)
        for metric, cell in row.items():  # parsed or known, each row is checked against this file
            cell_sources = sources.get(metric)
            if cell_sources is None:
                cursor.fail(f"cell for metric {metric!r} has no col record")
            for entry in cell.entries:
                cell_sources.add(entry.source)
        # add_report re-sorts only the rows it touches, so loaded rows must be canonical
        if previous is not None and ts.start_date <= previous:
            if ts.start_date == previous:
                cursor.fail(f"duplicate row for slice {previous.isoformat()}")
            cursor.fail(f"row {ts.start_date.isoformat()} comes after row {previous.isoformat()}")
        previous = ts.start_date
        rows[ts] = dict(row)  # the caller may change its rows; the kept ones stay as parsed
    for column in columns:
        if column.source_reports != sources[column.metric]:
            cursor.fail(f"col {column.metric!r} names sources {sorted(column.source_reports)}, "
                        f"its cells come from {sorted(sources[column.metric])}")
    cursor.end()
    columns = tuple(columns)
    _memory.store = (text, granularity, columns, parsed)
    return TemporalTable(granularity=granularity, columns=columns, rows=rows)


class _Cursor:
    """Reads line records (`<key> <body>`) from a table store or an observation archive.

    Every grammar violation raises MalformedStore naming the file and line.
    """

    def __init__(self, text: str, name: str, magic: str, version: int, what: str):
        """A cursor on the text of file `name`, past its checked `<magic> <version>` line.

        `what` names the format.
        """
        self.lines = text.split("\n")  # the savers end every line with '\n' and nothing else
        self.name = name
        self.pos = 0
        found, sep, version_text = self.next().partition(" ")
        if found != magic or not sep:
            raise MalformedStore(f"{name}: not a chronofuse {what}")
        if self.parse(int, version_text, f"{what} version", str) != version:
            raise VersionMismatch(f"{name}: unsupported {what} version {version_text!r}")

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise MalformedStore(f"{self.name}: unexpected end of file (truncated?)")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str):
        raise MalformedStore(f"{self.name}:{self.pos}: {message}")

    def parse(self, convert, text: str, what: str, write, message: str | None = None):
        """convert(text) if `write`, the savers' writer, gives `text` back; else fail with `message`."""
        try:
            value = convert(text)
            if write(value) == text:
                return value
        except ValueError:
            pass
        self.fail(message or f"bad {what} {text!r}")

    def expect_field(self, key: str) -> str:
        line = self.next()
        prefix = key + " "
        if not line.startswith(prefix):
            self.fail(f"expected '{key} ...', got {line!r}")
        return line[len(prefix):]

    def expect_count(self, key: str) -> int:
        text = self.expect_field(key)
        # str() writes a count; abs(), because int() also reads a '-1' that str() would give back
        return self.parse(int, text, key, lambda count: str(abs(count)),
                          f"expected integer {key} count, got {text!r}")

    def records(self, count_key: str, key: str, n_fields: int) -> Iterator[list[str]]:
        """The `|`-split bodies of the `key` records counted by the `count_key` line."""
        for _ in range(self.expect_count(count_key)):
            fields = self.expect_field(key).split("|")
            if len(fields) != n_fields:
                self.fail(f"{key} record needs {n_fields} fields, got {len(fields)}")
            yield fields

    def end(self) -> None:
        if self.next() != "end":
            raise MalformedStore(f"{self.name}: missing end sentinel (truncated file?)")
        if self.lines[self.pos:] != [""]:
            self.fail("expected '\\n' after end and nothing more")


def _items(text: str) -> tuple[str, ...]:
    # the writers never write an empty item, so dropping them makes the text fail their check
    return tuple(item for item in text.split(",") if item)


def _parse_column(parts: list[str], cursor: _Cursor) -> ColumnDescriptor:
    metric, unit, rng_text, rng_unit, sources_text = parts
    if rng_unit and not rng_text:
        cursor.fail(f"range unit {rng_unit!r} without a reference range")
    reference_range = _parse_range(rng_text, rng_unit, cursor) if rng_text else None
    sources = cursor.parse(lambda t: frozenset(_items(t)), sources_text, "report ids",
                           lambda ids: _writable_token(",".join(sorted(ids)), "report ids"))
    for name, what in ((metric, "metric"), (unit, "unit")):
        cursor.parse(str, name, what, _writable_token)
    return ColumnDescriptor(metric, unit, reference_range, sources)


def _parse_row(parts: list[str], granularity: Granularity, cursor: _Cursor):
    """Parse one row into (slice, cells); load_table checks the cells against the col records."""
    start = cursor.parse(dt.date.fromisoformat, parts[0], "slice date", dt.date.isoformat)
    try:
        ts = TimeSlice(TimePoint.day(start), granularity)
    except ValueError as exc:
        cursor.fail(str(exc))
    if len(parts) == 1:
        cursor.fail(f"row {parts[0]} has no cells")
    row: dict[str, Cell] = {}
    previous: str | None = None
    for cell_text in parts[1:]:
        metric, sep, entries_text = cell_text.partition("=")
        if not sep or not entries_text:
            cursor.fail(f"bad cell record {cell_text!r}")
        if previous is not None and metric <= previous:
            if metric == previous:
                cursor.fail(f"duplicate cell for metric {metric!r}")
            cursor.fail(f"cell for metric {metric!r} comes after {previous!r}")
        previous = metric
        entries = []
        for entry_text in entries_text.split(";"):
            value_text, sep2, source = entry_text.partition("@")
            value = _finite_float(value_text, "cell value", cursor)
            if not sep2 or not source:
                cursor.fail(f"bad cell entry {entry_text!r}")
            # one string per report id, however many rows are kept
            entry = CellEntry(value, sys.intern(source))
            if entries and _entry_order(entry) < _entry_order(entries[-1]):
                cursor.fail(f"cell entries for metric {metric!r} are not sorted by (source, value, sign)")
            entries.append(entry)
        row[metric] = Cell(tuple(entries))
    return ts, row


def _parse_range(text: str, unit: str, cursor: _Cursor) -> RefRange:
    low_text, sep, high_text = text.partition("..")
    if not sep:
        cursor.fail(f"bad reference range {text!r}")
    low = _finite_float(low_text, "reference range bound", cursor)
    high = _finite_float(high_text, "reference range bound", cursor)
    try:
        return RefRange(low, high, cursor.parse(str, unit, "range unit", _writable_token))
    except ValueError as exc:
        cursor.fail(f"bad reference range {text!r}: {exc}")


def _range_text(rng: RefRange) -> str:
    """`low..high` as the savers write a reference range; refuses bounds that are not floats."""
    for bound in (rng.low, rng.high):
        if type(bound) is not float:  # repr writes an int or a bool without a '.'
            raise ValueError(f"reference range bound {bound!r} is not a float")
    return f"{rng.low!r}..{rng.high!r}"


def _finite_float(text: str, what: str, cursor: _Cursor) -> float:
    """A float as repr() writes it; nan and the infinities, which no saver writes, fail."""
    value = cursor.parse(float, text, what, repr)
    if not math.isfinite(value):
        cursor.fail(f"bad {what} {text!r}")
    return value


# Observation archive grammar (output of the ingest stage):
#
#   chronofuse-observations 1
#   ranges <count>
#   range <metric>|<low..high>|<range unit>
#   observations <count>
#   obs <source>|<metric>|<value>|<unit>|<date[ HH:MM]>|<flags comma-sep>
#   end

ARCHIVE_MAGIC = "chronofuse-observations"
ARCHIVE_VERSION = 1


def save_observations(
    observations: list[Observation],
    path: str | Path,
    *,
    ranges: Mapping[str, RefRange] | None = None,
) -> None:
    """Archive extracted observations with the reference ranges they carry.

    Refuses, before writing, what load_observations would reject or read
    back as something else: ValueError (NonFiniteValue for a value that is
    not finite) for a reserved character in a name, a value that is not a
    float, a date that is a datetime, or a time of day with seconds or a
    time zone.
    """
    path = Path(path)
    ranges = ranges or {}
    lines = [f"{ARCHIVE_MAGIC} {ARCHIVE_VERSION}", f"ranges {len(ranges)}"]
    for metric in sorted(ranges):
        rng = ranges[metric]
        for token, what in ((metric, "metric"), (rng.unit, "range unit")):
            _writable_token(token, what)
        lines.append(f"range {metric}|{_range_text(rng)}|{rng.unit}")
    lines.append(f"observations {len(observations)}")
    writable: set[tuple[str, str, str]] = set()  # (source, metric, unit): a handful repeat over all
    flag_texts: dict[frozenset[str], str] = {}  # and a handful of flag sets
    for obs in observations:
        names = (obs.source, obs.metric, obs.unit)
        if names not in writable:
            for token, what in zip(names, ("report id", "metric", "unit")):
                _writable_token(token, what)
            writable.add(names)
        if type(obs.value) is not float or not math.isfinite(obs.value):
            _check_finite(obs)  # load_observations rejects the same values
        flags = flag_texts.get(obs.flags)
        if flags is None:
            flags = flag_texts[obs.flags] = ",".join(sorted(obs.flags))
        when = obs.time.isoformat()
        if len(when) != 10:  # not a bare YYYY-MM-DD: check what _time_point would read back
            _check_time(obs.time)
        lines.append(f"obs {obs.source}|{obs.metric}|{obs.value!r}|{obs.unit}|{when}|{flags}")
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_observations(path: str | Path) -> tuple[list[Observation], dict[str, RefRange]]:
    """Read an observation archive back; inverse of save_observations."""
    path, what = Path(path), "observation archive"
    cursor = _Cursor(read_text(path, MalformedStore, what), path.name, ARCHIVE_MAGIC,
                     ARCHIVE_VERSION, what)
    ranges: dict[str, RefRange] = {}
    for metric, rng_text, rng_unit in cursor.records("ranges", "range", 3):
        if ranges and metric <= next(reversed(ranges)):  # written in metric order, once each
            cursor.fail(f"range for metric {metric!r} comes after {next(reversed(ranges))!r}")
        cursor.parse(str, metric, "metric", _writable_token)
        ranges[metric] = _parse_range(rng_text, rng_unit, cursor)
    observations: list[Observation] = []
    names: set[str] = set()  # a handful of names repeat over every observation
    for fields in cursor.records("observations", "obs", 6):
        source, metric, value_text, unit, time_text, flags_text = fields
        for name, what in ((source, "report id"), (metric, "metric"), (unit, "unit")):
            if name not in names:
                names.add(cursor.parse(str, name, what, _writable_token))
        value = _finite_float(value_text, "observation value", cursor)
        time = cursor.parse(_time_point, time_text, "observation time", TimePoint.isoformat)
        flags = cursor.parse(lambda t: frozenset(_items(t)), flags_text, "flags",
                             lambda flags: ",".join(sorted(flags)))
        observations.append(Observation(metric, value, unit, time, source, flags))
    cursor.end()
    return observations, ranges


def _check_time(time: TimePoint) -> None:
    """Refuses a time point that TimePoint.isoformat writes as text _time_point reads otherwise."""
    if type(time.date) is not dt.date:  # a datetime is written with its time, which no loader reads
        raise ValueError(f"observation date {time.date!r} is not a date")
    tod = time.time_of_day
    if type(tod) is not dt.time or tod.second or tod.microsecond or tod.tzinfo is not None:
        raise ValueError(f"observation time of day {tod!r} is not a whole minute without a time zone")


def _time_point(text: str) -> TimePoint:
    """TimePoint.isoformat's inverse on what it writes: a date, or a date and `HH:MM`."""
    date_text, sep, time_text = text.partition(" ")
    date = dt.date.fromisoformat(date_text)
    return TimePoint.minute(date, dt.time.fromisoformat(time_text)) if sep else TimePoint.day(date)


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files.

    The temp file is created exclusively under a random name in the
    target's directory, so two writers never share it and it gets the mode
    a plain write would (0666 less the umask); it is removed if the write
    fails after creating it. An OSError becomes an OutputWriteError naming path.
    """
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc.strerror or exc}") from exc
