"""Fusion of observations into a time-keyed dynamic-column table.

Rows are time slices (day, week, or month buckets), columns are metrics
created on demand as new reports introduce them. Tables are immutable
values: fuse and add_report build new tables, and every sequence is kept
in a canonical order (rows chronological, columns lexicographic, cell
entries by source, value, then sign) so that fusion is order-independent.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import (
    EmptyCell,
    FinerGranularity,
    InvertedRange,
    MalformedStore,
    NonFiniteValue,
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


@dataclass(frozen=True)
class TimeSlice:
    """A fixed-granularity time bucket; start is aligned to the bucket."""

    start: TimePoint
    granularity: Granularity

    def __post_init__(self):
        aligned = slice_start(self.start.date, self.granularity)
        if self.start.date != aligned or self.start.time_of_day is not None:
            raise ValueError(f"slice start {self.start} not aligned to {self.granularity.value}")

    @property
    def start_date(self) -> dt.date:
        return self.start.date

    @property
    def end_date(self) -> dt.date:
        """Exclusive end of the slice."""
        d = self.start.date
        if self.granularity is Granularity.DAY:
            return d + dt.timedelta(days=1)
        if self.granularity is Granularity.WEEK:
            return d + dt.timedelta(days=7)
        if d.month == 12:
            return dt.date(d.year + 1, 1, 1)
        return dt.date(d.year, d.month + 1, 1)


@dataclass(frozen=True)
class CellEntry:
    value: float
    source: str


@dataclass(frozen=True)
class Cell:
    """All values observed for one metric in one slice, source-tagged.

    Colliding readings are kept rather than overwritten; aggregation is
    deferred to chart building.
    """

    entries: tuple[CellEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("cells must hold at least one entry")

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(e.value for e in self.entries)


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

    @property
    def slices(self) -> tuple[TimeSlice, ...]:
        return tuple(self.rows)


def slice_start(date: dt.date, granularity: Granularity) -> dt.date:
    """Align a date to its bucket start (weeks start Monday, months on day 1)."""
    if granularity is Granularity.DAY:
        return date
    if granularity is Granularity.WEEK:
        return date - dt.timedelta(days=date.weekday())
    return date.replace(day=1)


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
        for obs in observations:
            _check_finite(obs)
            row = self.entries.setdefault(slice_start(obs.time.date, self.granularity), {})
            row.setdefault(obs.metric, []).append(CellEntry(obs.value, obs.source))
            _merge_unit(self.units, obs.metric, obs.unit)
            self.sources.setdefault(obs.metric, set()).add(obs.source)
            for flag in obs.flags:
                counts = self.flagged.setdefault(obs.metric, {})
                counts[flag] = counts.get(flag, 0) + 1

    def add_rows(self, rows: Mapping[TimeSlice, Mapping[str, Cell]]) -> None:
        """Feed existing cells (whose columns were given at construction)."""
        for ts, row in rows.items():
            target = self.entries.setdefault(slice_start(ts.start.date, self.granularity), {})
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
                cells[metric] = Cell(tuple(sorted(entries, key=_entry_order)))
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


def slice_range(table: TemporalTable, start: TimePoint, end: TimePoint) -> TemporalTable:
    """Restrict a table to slices intersecting [start, end] (dates inclusive).

    Columns left without cells are dropped and surviving descriptors get
    their source sets recomputed from the surviving entries.
    """
    if start.sort_key > end.sort_key:
        raise InvertedRange(f"range start {start.isoformat()} is after end {end.isoformat()}")
    kept = {
        ts: dict(row)
        for ts, row in table.rows.items()
        if ts.start_date <= end.date and ts.end_date > start.date
    }
    sources: dict[str, set[str]] = {}
    for row in kept.values():
        for metric, cell in row.items():
            sources.setdefault(metric, set()).update(e.source for e in cell.entries)
    columns = tuple(
        replace(column, source_reports=frozenset(sources[column.metric]))
        for column in table.columns
        if column.metric in sources
    )
    return TemporalTable(granularity=table.granularity, columns=columns, rows=kept)


def rebucket(table: TemporalTable, granularity: Granularity) -> TemporalTable:
    """Re-key a table to a coarser (or equal) granularity."""
    order = [Granularity.DAY, Granularity.WEEK, Granularity.MONTH]
    if order.index(granularity) < order.index(table.granularity):
        raise FinerGranularity(
            f"cannot rebucket {table.granularity.value} table to {granularity.value}"
        )
    if granularity is table.granularity:
        return table
    acc = _Accumulator(granularity, table.columns)
    acc.add_rows(table.rows)
    return acc.table()


def aggregate_cell(cell: Cell, aggregator: Aggregator = Aggregator.MEAN) -> float:
    """Collapse a cell's entries to one value.

    first/last follow source report id order (entries are kept sorted by
    source then value, so ties within one report resolve by value).
    """
    if not cell.entries:
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
# Values are written with repr() so the round trip is bit exact.


def _writable_token(text: str, what: str) -> str:
    # the store grammar cannot escape its separators, so refuse them up front
    if any(ch in _RESERVED_NAME_CHARS for ch in text):
        raise ValueError(
            f"{what} {text!r} contains a reserved store character (| ; = @ or a line break)"
        )
    return text


def save_table(table: TemporalTable, path: str | Path) -> None:
    """Write a table to its line-oriented store file (atomic replace)."""
    path = Path(path)
    lines = [f"{STORE_MAGIC} {STORE_VERSION}", f"granularity {table.granularity.value}"]
    lines.append(f"columns {len(table.columns)}")
    for column in table.columns:
        _writable_token(column.metric, "metric")
        _writable_token(column.unit, "unit")
        for source in column.source_reports:
            _writable_token(source, "report id")
            # a col record lists report ids comma-separated, and a cell entry needs one
            if not source or "," in source:
                raise ValueError(f"report id {source!r} is empty or contains ','")
        rng, rng_unit = "", ""
        if column.reference_range is not None:
            rng = f"{column.reference_range.low!r}..{column.reference_range.high!r}"
            rng_unit = _writable_token(column.reference_range.unit, "range unit")
        sources = ",".join(sorted(column.source_reports))
        lines.append(f"col {column.metric}|{column.unit}|{rng}|{rng_unit}|{sources}")
    lines.append(f"rows {len(table.rows)}")
    for ts, row in table.rows.items():
        fields = [ts.start_date.isoformat()]
        for metric in sorted(row):
            entries = ";".join(f"{e.value!r}@{e.source}" for e in row[metric].entries)
            fields.append(f"{metric}={entries}")
        lines.append("row " + "|".join(fields))
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_table(path: str | Path) -> TemporalTable:
    """Read a store file back into a table.

    Raises VersionMismatch for unsupported schema versions and
    MalformedStore for anything else that deviates from the grammar,
    including truncation (a missing `end` sentinel).
    """
    cursor = _Cursor.open(path, STORE_MAGIC, STORE_VERSION, "table store")
    granularity = cursor.parse(Granularity, cursor.expect_field("granularity"), "granularity")
    columns = tuple(_parse_column(fields, cursor) for fields in cursor.records("columns", "col", 5))
    sources: dict[str, set[str]] = {column.metric: set() for column in columns}
    rows: dict[TimeSlice, dict[str, Cell]] = {}
    previous: dt.date | None = None
    for fields in cursor.records("rows", "row"):
        ts, row = _parse_row(fields, granularity, sources, cursor)
        # add_report re-sorts only the rows it touches, so loaded rows must be canonical
        if previous is not None and ts.start_date <= previous:
            if ts.start_date == previous:
                cursor.fail(f"duplicate row for slice {previous.isoformat()}")
            cursor.fail(f"row {ts.start_date.isoformat()} comes after row {previous.isoformat()}")
        previous = ts.start_date
        rows[ts] = row
    for column in columns:
        if column.source_reports != sources[column.metric]:
            cursor.fail(f"col {column.metric!r} names sources {sorted(column.source_reports)}, "
                        f"its cells come from {sorted(sources[column.metric])}")
    cursor.end()
    return TemporalTable(granularity=granularity, columns=columns, rows=rows)


class _Cursor:
    """Reads line records (`<key> <body>`) from a store, an archive or a chart spec.

    Every grammar violation raises MalformedStore naming the text and line.
    """

    def __init__(self, text: str, name: str):
        self.lines = text.splitlines()
        self.name = name
        self.pos = 0

    @classmethod
    def open(cls, path: str | Path, magic: str, version: int, what: str) -> _Cursor:
        """Read a file and check its `<magic> <version>` line; `what` names the format."""
        path = Path(path)
        cursor = cls(read_text(path, MalformedStore, what), path.name)
        parts = cursor.next().split()
        if len(parts) != 2 or parts[0] != magic:
            raise MalformedStore(f"{path.name}: not a chronofuse {what}")
        if parts[1] != str(version):
            raise VersionMismatch(f"{path.name}: unsupported {what} version {parts[1]!r}")
        return cursor

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise MalformedStore(f"{self.name}: unexpected end of file (truncated?)")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str):
        raise MalformedStore(f"{self.name}:{self.pos}: {message}")

    def parse(self, convert, text: str, what: str):
        """convert(text), failing with a message that names `what` if it raises ValueError."""
        try:
            return convert(text)
        except ValueError:
            self.fail(f"bad {what} {text!r}")

    def expect_field(self, key: str) -> str:
        line = self.next()
        prefix = key + " "
        if not line.startswith(prefix):
            self.fail(f"expected '{key} ...', got {line!r}")
        return line[len(prefix):]

    def expect_count(self, key: str) -> int:
        value = self.expect_field(key)
        # ASCII only: str.isdigit() also holds for digits such as '²' that int() rejects
        if not (value.isascii() and value.isdigit()):
            self.fail(f"expected integer {key} count, got {value!r}")
        return int(value)

    def records(self, count_key: str, key: str, n_fields: int | None = None) -> Iterator[list[str]]:
        """The `|`-split bodies of the `key` records counted by the `count_key` line."""
        for _ in range(self.expect_count(count_key)):
            fields = self.expect_field(key).split("|")
            if n_fields is not None and len(fields) != n_fields:
                self.fail(f"{key} record needs {n_fields} fields, got {len(fields)}")
            yield fields

    def end(self) -> None:
        if self.next() != "end":
            raise MalformedStore(f"{self.name}: missing end sentinel (truncated file?)")


def _parse_column(parts: list[str], cursor: _Cursor) -> ColumnDescriptor:
    metric, unit, rng_text, rng_unit, sources_text = parts
    reference_range = _parse_range(rng_text, rng_unit, cursor) if rng_text else None
    sources = frozenset(s for s in sources_text.split(",") if s)
    return ColumnDescriptor(metric, unit, reference_range, sources)


def _parse_row(parts: list[str], granularity: Granularity, sources: dict[str, set[str]], cursor: _Cursor):
    """Parse one row; adds each cell's sources to `sources`, keyed by the known metrics."""
    start = cursor.parse(dt.date.fromisoformat, parts[0], "slice date")
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
        cell_sources = sources.get(metric)
        if cell_sources is None:
            cursor.fail(f"cell for metric {metric!r} has no col record")
        previous = metric
        entries = []
        for entry_text in entries_text.split(";"):
            value_text, sep2, source = entry_text.partition("@")
            value = _finite_float(value_text, "cell value", cursor)
            if not sep2 or not source:
                cursor.fail(f"bad cell entry {entry_text!r}")
            entry = CellEntry(value, source)
            if entries and _entry_order(entry) < _entry_order(entries[-1]):
                cursor.fail(f"cell entries for metric {metric!r} are not sorted by (source, value, sign)")
            entries.append(entry)
            cell_sources.add(source)
        row[metric] = Cell(tuple(entries))
    return ts, row


def _parse_range(text: str, unit: str, cursor: _Cursor) -> RefRange:
    low_text, sep, high_text = text.partition("..")
    if not sep:
        cursor.fail(f"bad reference range {text!r}")
    low = _finite_float(low_text, "reference range bound", cursor)
    high = _finite_float(high_text, "reference range bound", cursor)
    try:
        return RefRange(low, high, unit)
    except ValueError as exc:
        cursor.fail(f"bad reference range {text!r}: {exc}")


def _finite_float(text: str, what: str, cursor: _Cursor) -> float:
    """Parse a float the savers could have written: nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
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
    """Archive extracted observations with the reference ranges they carry."""
    path = Path(path)
    ranges = ranges or {}
    lines = [f"{ARCHIVE_MAGIC} {ARCHIVE_VERSION}", f"ranges {len(ranges)}"]
    for metric in sorted(ranges):
        rng = ranges[metric]
        for token, what in ((metric, "metric"), (rng.unit, "range unit")):
            _writable_token(token, what)
        lines.append(f"range {metric}|{rng.low!r}..{rng.high!r}|{rng.unit}")
    lines.append(f"observations {len(observations)}")
    for obs in observations:
        for token, what in ((obs.source, "report id"), (obs.metric, "metric"), (obs.unit, "unit")):
            _writable_token(token, what)
        _check_finite(obs)  # load_observations rejects non-finite values
        flags = ",".join(sorted(obs.flags))
        lines.append(
            f"obs {obs.source}|{obs.metric}|{obs.value!r}|{obs.unit}|{obs.time.isoformat()}|{flags}"
        )
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_observations(path: str | Path) -> tuple[list[Observation], dict[str, RefRange]]:
    """Read an observation archive back; inverse of save_observations."""
    cursor = _Cursor.open(path, ARCHIVE_MAGIC, ARCHIVE_VERSION, "observation archive")
    ranges: dict[str, RefRange] = {}
    for metric, rng_text, rng_unit in cursor.records("ranges", "range", 3):
        ranges[metric] = _parse_range(rng_text, rng_unit, cursor)
    observations: list[Observation] = []
    for fields in cursor.records("observations", "obs", 6):
        source, metric, value_text, unit, time_text, flags_text = fields
        value = _finite_float(value_text, "observation value", cursor)
        time = _parse_archive_time(time_text, cursor)
        flags = frozenset(f for f in flags_text.split(",") if f)
        observations.append(Observation(metric, value, unit, time, source, flags))
    cursor.end()
    return observations, ranges


def _parse_archive_time(text: str, cursor: _Cursor) -> TimePoint:
    date_text, _, time_text = text.partition(" ")
    try:
        date = dt.date.fromisoformat(date_text)
        if time_text:
            hh, mm = time_text.split(":")
            return TimePoint.minute(date, dt.time(int(hh), int(mm)))
        return TimePoint.day(date)
    except ValueError:
        cursor.fail(f"bad observation time {text!r}")


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files.

    The temp file gets a unique name in the target's directory, so two
    writers never share it, and it is removed if the write fails. The file
    gets the mode a plain write would give it (0666 less the umask).
    """
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask
