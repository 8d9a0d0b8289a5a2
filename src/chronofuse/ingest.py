"""Report parsing and observation extraction.

Turns report files (plain text, CSV, or pipe-delimited records) into
timestamped metric observations using a metric lexicon. Matching is
rule based: an alias lookup with longest-match-wins tie-breaking, a
closed timestamp grammar, and a plain decimal number grammar.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    InvalidLexicon,
    NoTimestamp,
    NoTimestampInDocument,
    ReportReadError,
    UnknownFormat,
    read_text,
)

FLAG_UNIT_MISMATCH = "unit_mismatch"
FLAG_OUT_OF_RANGE = "out_of_range"
# Observation flags by (unit mismatch, out of range), one shared set each.
_FLAG_SETS = {
    (False, False): frozenset(),
    (True, False): frozenset({FLAG_UNIT_MISMATCH}),
    (False, True): frozenset({FLAG_OUT_OF_RANGE}),
    (True, True): frozenset({FLAG_UNIT_MISMATCH, FLAG_OUT_OF_RANGE}),
}

# Decimal with optional sign and fraction; scientific notation is out of scope.
_NUMBER_RE = re.compile(r"[+-]?\d+(?:\.\d+)?")

# Characters stripped from token edges before value/unit interpretation.
_TOKEN_EDGE = ":;,()[]{}\"'"

# Separators that would break the line-oriented store/archive grammars:
# the field separators and every line boundary that str.splitlines() knows.
_RESERVED_NAME_CHARS = set("|;=@\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


class ReportFormat(str, Enum):
    PLAIN_TEXT = "plain_text"
    CSV = "csv"
    STRUCTURED_RECORDS = "structured_records"


class DateOrder(str, Enum):
    """Interpretation of the slash-separated two-digit date form."""

    DMY = "dmy"
    MDY = "mdy"


class Resolution(str, Enum):
    DAY = "day"
    MINUTE = "minute"


_EXTENSIONS = {
    ".txt": ReportFormat.PLAIN_TEXT,
    ".text": ReportFormat.PLAIN_TEXT,
    ".csv": ReportFormat.CSV,
    ".rec": ReportFormat.STRUCTURED_RECORDS,
}


@dataclass(frozen=True, slots=True)
class TimePoint:
    """A calendar date, optionally refined to a minute of the day."""

    date: dt.date
    time_of_day: dt.time | None = None

    def __init__(self, date: dt.date, time_of_day: dt.time | None = None):
        _set_date(self, date)
        _set_time_of_day(self, time_of_day)

    @classmethod
    def day(cls, date: dt.date) -> "TimePoint":
        return cls(date)

    @classmethod
    def minute(cls, date: dt.date, time_of_day: dt.time) -> "TimePoint":
        return cls(date, time_of_day)

    @property
    def granularity(self) -> Resolution:
        return Resolution.DAY if self.time_of_day is None else Resolution.MINUTE

    @property
    def sort_key(self) -> tuple[dt.date, dt.time]:
        return (self.date, self.time_of_day or dt.time(0, 0))

    def isoformat(self) -> str:
        if self.time_of_day is None:
            return self.date.isoformat()
        return f"{self.date.isoformat()} {self.time_of_day.hour:02}:{self.time_of_day.minute:02}"


# The slot setters TimePoint's and Observation's __init__ store through: a
# dataclass's generated __init__ pays one object.__setattr__ per field.
_set_date = TimePoint.date.__set__
_set_time_of_day = TimePoint.time_of_day.__set__


@dataclass(frozen=True)
class RefRange:
    """Clinically normal [low, high] interval for a metric."""

    low: float
    high: float
    unit: str = ""

    def __post_init__(self):
        if not -math.inf < self.low < self.high < math.inf:
            raise ValueError(
                f"reference range requires finite low < high, got {self.low}..{self.high}")

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass(frozen=True)
class LexiconEntry:
    """One recognizable metric: canonical name, aliases, units, normal range."""

    canonical: str
    aliases: tuple[str, ...]
    units: tuple[str, ...] = ()
    reference_range: RefRange | None = None


@dataclass
class MetricLexicon:
    """Recognition vocabulary mapping report wording to canonical metrics.

    One `re.IGNORECASE` matcher, built from `entries` once, resolves words
    and units in plain-text lines and in CSV and record fields alike; a name
    that two entries share under its case rule is refused. Do not mutate a
    lexicon.
    """

    entries: list[LexiconEntry]
    _matcher: _AliasMatcher = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for entry in self.entries:
            _validate_name(entry.canonical, "canonical name")
            for unit in entry.units:
                _validate_name(unit, "unit")
            for alias in entry.aliases:
                _validate_name(alias, "alias")
        self._matcher = _AliasMatcher.compile(self)

    def entry_for(self, name: str) -> LexiconEntry | None:
        """Resolve a canonical name or alias, case-insensitively as plain text is scanned."""
        match = self._matcher.pattern.match(name)
        if match is None:
            return None
        alias, entry = self._matcher.slots[match.lastindex - 1]
        return entry if len(alias) == len(name) else None

    def ranges(self) -> dict[str, RefRange]:
        """Reference ranges keyed by canonical name (entries without one omitted)."""
        return {
            e.canonical: e.reference_range for e in self.entries if e.reference_range is not None
        }

    def iter_aliases(self):
        for entry in self.entries:
            yield entry.canonical, entry
            for alias in entry.aliases:
                yield alias, entry


@dataclass(frozen=True, slots=True)
class Observation:
    """One timestamped metric reading extracted from a report."""

    metric: str
    value: float
    unit: str
    time: TimePoint
    source: str
    flags: frozenset[str] = field(default_factory=frozenset)

    def __init__(self, metric: str, value: float, unit: str, time: TimePoint, source: str,
                 flags: frozenset[str] = frozenset()):
        _set_metric(self, metric)
        _set_value(self, value)
        _set_unit(self, unit)
        _set_time(self, time)
        _set_source(self, source)
        _set_flags(self, flags)


_set_metric = Observation.metric.__set__
_set_value = Observation.value.__set__
_set_unit = Observation.unit.__set__
_set_time = Observation.time.__set__
_set_source = Observation.source.__set__
_set_flags = Observation.flags.__set__


@dataclass
class ReportDocument:
    """A loaded report file: ordered lines plus identity and format.

    A CSV report's lines keep their line ends, so a quoted field that spans
    lines reads with its line break; the other formats' lines do not.
    """

    report_id: str
    source_path: str
    lines: list[str]
    format: ReportFormat


def _validate_name(name: str, what: str) -> None:
    if not name or any(ch in _RESERVED_NAME_CHARS for ch in name):
        raise InvalidLexicon(
            f"{what} {name!r} is empty or contains a reserved character (| ; = @ or a line break)"
        )


def report_id_for(path: str | Path) -> str:
    """Derive the report id from the file name, sanitized for the store grammar."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", Path(path).name)


def load_report(path: str | Path, format_hint: ReportFormat | None = None) -> ReportDocument:
    """Read a report file into a ReportDocument.

    The format comes from the extension (.txt, .csv, .rec) unless a hint is
    given. Raises UnknownFormat for unrecognized extensions without a hint
    and ReportReadError for missing files or non-UTF-8 bytes. One leading
    byte order mark, as "UTF-8 with BOM" editors write, is dropped.
    """
    path = Path(path)
    fmt = format_hint
    if fmt is None:
        fmt = _EXTENSIONS.get(path.suffix.lower())
        if fmt is None:
            raise UnknownFormat(f"cannot infer report format from {path.name!r}; pass a format hint")
    text = read_text(path, ReportReadError, "report file").removeprefix("\ufeff")
    return ReportDocument(
        report_id=report_id_for(path),
        source_path=str(path),
        lines=text.splitlines(keepends=fmt is ReportFormat.CSV),
        format=fmt,
    )


# --- timestamp grammar ---
#
# Accepted forms, each optionally followed by " HH:MM":
#   YYYY-MM-DD            ISO, always day-month order free
#   A/B/YYYY              slash form; A/B order set by the date_order switch
#   MM-DD-YYYY            dash form with two-digit lead, always month first

# The three forms in one alternation. No two of them can match at the same
# start, so the leftmost match with a valid calendar date is the earliest
# valid date of any form. It starts with a digit, which lets the regex engine
# skip ahead to digits; the (?<!\d\d) after that digit is the no-digit-before
# boundary.
_DATE_RE = re.compile(r"\d(?<!\d\d)(?:\d{3}-\d{2}-\d{2}|\d/\d{2}/\d{4}|\d-\d{2}-\d{4})(?!\d)")
# (year, month, day) places in a match, by its third character: '/' for the
# slash form, '-' for the dash form, a digit for ISO.
_ISO_FIELDS = (slice(0, 4), slice(5, 7), slice(8, 10))
_MONTH_FIRST = (slice(6, 10), slice(0, 2), slice(3, 5))
_DATE_FIELDS = {
    DateOrder.DMY: {"/": (slice(6, 10), slice(3, 5), slice(0, 2)), "-": _MONTH_FIRST},
    DateOrder.MDY: {"/": _MONTH_FIRST, "-": _MONTH_FIRST},
}
_TIME_RE = re.compile(r"[ \t]+(\d{2}):(\d{2})(?!\d)")


def parse_timestamp(text: str, date_order: DateOrder = DateOrder.DMY) -> TimePoint:
    """Find the first accepted timestamp in `text`.

    Granularity is day unless the date is directly followed by a valid
    HH:MM time of day. Raises NoTimestamp when no accepted pattern with a
    valid calendar date occurs.
    """
    time = _find_timestamp(text, date_order)
    if time is None:
        raise NoTimestamp(f"no accepted timestamp in {text!r}")
    return time


def _find_timestamp(text: str, date_order: DateOrder) -> TimePoint | None:
    """parse_timestamp's result, or None where it raises."""
    fields = _DATE_FIELDS[date_order]
    match = _DATE_RE.search(text)
    while match is not None:
        found = match.group()
        try:
            if found[4] == "-" and found.isascii():  # ISO in ASCII digits, which fromisoformat reads
                date = dt.date.fromisoformat(found)
            else:  # \d and int() also take other Unicode decimal digits
                year, month, day = fields.get(found[2], _ISO_FIELDS)
                date = dt.date(int(found[year]), int(found[month]), int(found[day]))
            break
        except ValueError:  # not a calendar date; a valid one of another form may overlap it
            match = _DATE_RE.search(text, match.start() + 1)
    else:
        return None
    time_match = _TIME_RE.match(text, match.end())
    if time_match:
        hh, mm = int(time_match.group(1)), int(time_match.group(2))
        if hh <= 23 and mm <= 59:
            return TimePoint(date, dt.time(hh, mm))
    return TimePoint(date)


# --- measurement grammar ---

# Word boundary around an alias: no ASCII letter or digit on either side.
_ALIAS_BEFORE = r"(?<![A-Za-z0-9])"
_ALIAS_AFTER = r"(?![A-Za-z0-9])"


@dataclass(frozen=True)
class _AliasMatcher:
    """Every alias of a lexicon in one case-insensitive pattern.

    The pattern is a character trie of the aliases inside a lookahead, so
    each `finditer` hit is the longest alias starting at that boundary
    position, and `slots[m.lastindex - 1]` is its (alias, entry). Trie
    edges are keyed per character by the regex engine's own case
    equivalence, so sibling edges never match the same character and the
    first branch that matches is the only one. `units[canonical]` is the
    entry's units under the same rule: group k of a `fullmatch` is its
    k-th listed unit, and the first listed unit that matches wins.
    """

    pattern: re.Pattern[str]
    slots: tuple[tuple[str, LexiconEntry], ...]
    units: dict[str, re.Pattern[str]]

    @classmethod
    def compile(cls, lexicon: MetricLexicon) -> _AliasMatcher:
        keys: dict[str, str] = {}  # character -> representative of its case class
        reps: list[re.Pattern[str]] = []

        def key(ch: str) -> str:
            if ch not in keys:
                rep = next((r.pattern for r in reps if r.fullmatch(ch)), None)
                if rep is None:
                    reps.append(re.compile(re.escape(ch), re.IGNORECASE))
                    rep = reps[-1].pattern
                keys[ch] = rep
            return keys[ch]

        # Nodes map an escaped key to a child; "" marks an alias end. The
        # first spelling of an entry's case-equivalent names keeps the slot;
        # an end that another entry holds is refused.
        root: dict = {}
        for alias, entry in lexicon.iter_aliases():
            node = root
            for ch in alias:
                node = node.setdefault(key(ch), {})
            _, owner = node.setdefault("", (alias, entry))
            if owner is not entry:
                raise InvalidLexicon(f"alias {alias!r} is claimed by both {owner.canonical!r} "
                                     f"and {entry.canonical!r}")

        slots: list[tuple[str, LexiconEntry]] = []

        def emit(node: dict) -> str:
            # Unbranched runs are plain literals, so nesting (and recursion)
            # grows with branch points, not with alias length.
            run = ""
            while len(node) == 1 and "" not in node:
                ((edge, node),) = node.items()
                run += edge
            # Longer continuations come first; group numbers follow emission order.
            branches = [edge + emit(child) for edge, child in node.items() if edge]
            if "" in node:
                slots.append(node[""])
                branches.append("()" + _ALIAS_AFTER)
            if len(branches) == 1:
                return run + branches[0]
            return run + ("(?:" + "|".join(branches) + ")" if branches else "(?!)")

        body = emit(root)
        units = {e.canonical: re.compile("|".join(f"({re.escape(u)})" for u in e.units), re.IGNORECASE)
                 for e in lexicon.entries}
        return cls(re.compile(f"{_ALIAS_BEFORE}(?={body})", re.IGNORECASE), tuple(slots), units)


# One matched measurement: (entry, value, unit, unit_mismatch).
_Match = tuple[LexiconEntry, float, str, bool]


def parse_measurement(line: str, lexicon: MetricLexicon) -> tuple[str, float, str] | None:
    """Extract (canonical metric, value, unit) from one report line.

    Returns None when no alias matches or no valid decimal follows the
    matched alias. The longest alias wins; ties go to the leftmost
    occurrence. The unit is the token after the value when it is one of
    the entry's expected units, otherwise empty.
    """
    match, _ = _scan_line(line, lexicon)
    if match is None:
        return None
    entry, value, unit, _ = match
    return (entry.canonical, value, unit)


def _scan_line(line: str, lexicon: MetricLexicon) -> tuple[_Match | None, str | None]:
    """Full line scan: returns (match, warning). Either may be None."""
    matcher = lexicon._matcher
    best: tuple[int, int, str, LexiconEntry] | None = None
    for m in matcher.pattern.finditer(line):
        alias, entry = matcher.slots[m.lastindex - 1]
        if best is None or len(alias) > best[0]:
            best = (len(alias), m.start(), alias, entry)
    if best is None:
        return None, None
    alias_len, start, alias, entry = best
    rest = line[start + alias_len:]

    value: float | None = None
    unit = ""
    mismatch = False
    saw_digits = False
    tokens = rest.split()
    for idx, token in enumerate(tokens):
        stripped = token.strip(_TOKEN_EDGE)
        if not stripped:
            continue
        if _NUMBER_RE.fullmatch(stripped):
            value = float(stripped)
            if math.isfinite(value):
                unit, mismatch = _resolve_unit(tokens[idx + 1:], entry, matcher.units[entry.canonical])
            else:  # too long for a float
                value, saw_digits = None, True
            break
        if any(ch.isdigit() for ch in stripped):
            saw_digits = True
            break
    if value is None:
        reason = "malformed numeral" if saw_digits else "no numeric value"
        return None, f"{reason} after alias {alias!r} (metric {entry.canonical!r})"
    warning = None
    if mismatch:
        warning = f"unexpected unit after {entry.canonical!r} value; {_expected_units(entry)}"
    return (entry, value, unit, mismatch), warning


def _resolve_unit(tokens: list[str], entry: LexiconEntry, units: re.Pattern[str]) -> tuple[str, bool]:
    """Match the token after the value against the entry's expected units.

    `units` is the entry's unit pattern from the lexicon's matcher, so a
    token names a unit under the lexicon's case rule. Returns (unit,
    mismatch). The stored spelling is the lexicon's, so case variants in
    reports cannot create unit conflicts downstream.
    """
    for token in tokens:
        stripped = token.strip(_TOKEN_EDGE)
        if not stripped:
            continue
        match = units.fullmatch(stripped)
        if match is None:
            return "", True
        return entry.units[match.lastindex - 1], False
    return "", False


def extract_observations(
    doc: ReportDocument,
    lexicon: MetricLexicon,
    date_order: DateOrder = DateOrder.DMY,
) -> tuple[list[Observation], list[str]]:
    """Extract all observations from a document, in source line order.

    Plain-text documents are scanned line by line: each measurement takes
    the nearest preceding timestamp, and measurements before the first
    timestamp take the document's header date (the first timestamp found
    anywhere). CSV and record documents carry explicit per-row dates.

    Raises NoTimestampInDocument when measurements exist but no timestamp
    was ever parsed, and ReportReadError for CSV the csv module cannot read
    (a field over its length limit).
    """
    if doc.format is ReportFormat.CSV:
        return _extract_csv(doc, lexicon, date_order)
    if doc.format is ReportFormat.STRUCTURED_RECORDS:
        rows = _pipe_records(doc.lines)
        return _extract_rows(doc, rows, lexicon, date_order, "expected 4 pipe-delimited fields")
    return _extract_plain(doc, lexicon, date_order)


def _extract_plain(doc, lexicon, date_order):
    warnings: list[str] = []
    matches: list[tuple[_Match, TimePoint | None]] = []  # with the nearest preceding timestamp
    current: TimePoint | None = None
    header: TimePoint | None = None

    for lineno, line in enumerate(doc.lines, start=1):
        current = _find_timestamp(line, date_order) or current
        if header is None:
            header = current
        match, warning = _scan_line(line, lexicon)
        if warning:
            warnings.append(f"{doc.report_id}:{lineno}: {warning}")
        if match is not None:
            matches.append((match, current))

    if matches and header is None:
        raise NoTimestampInDocument(
            f"report {doc.report_id} has measurements but no parseable timestamp"
        )
    # Matches before the first timestamp are a prefix; they take the header date.
    observations = [
        _to_observation(match, time or header, doc.report_id) for match, time in matches
    ]
    return observations, warnings


def _extract_csv(doc, lexicon, date_order):
    reader = csv.reader(doc.lines)
    records = []  # (the line the record starts on, its fields)
    start = 1
    try:
        for row in reader:
            records.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ReportReadError(f"report {doc.report_id} is not readable CSV: {exc}") from exc
    if records and [cell.strip().lower() for cell in records[0][1]] != ["date", "metric", "value", "unit"]:
        return [], [f"{doc.report_id}:1: expected CSV header 'date,metric,value,unit'"]
    # a row is blank when every cell is; joined, its cells strip to "" exactly then
    numbered = [(lineno, row) for lineno, row in records[1:] if "".join(row).strip()]
    return _extract_rows(doc, numbered, lexicon, date_order, "expected 4 fields, got {}")


def _extract_rows(doc, rows, lexicon, date_order, wrong_count: str):
    """Observations from (line number, fields) rows of an explicit-row format.

    `wrong_count` is the warning for a row without 4 fields, formatted with
    its field count. A row is checked for its date, metric and value in
    that order, and skipped with one warning at the first that fails; an
    unexpected unit is warned about but keeps the row.
    """
    report_id = doc.report_id
    warnings: list[str] = []
    observations: list[Observation] = []
    resolved: dict[tuple[str, str], tuple | None] = {}  # by (metric field, unit field)
    for lineno, fields in rows:
        if len(fields) != 4:
            warnings.append(f"{report_id}:{lineno}: {wrong_count.format(len(fields))}")
            continue
        raw_date, raw_metric, raw_value, raw_unit = fields
        raw_date = raw_date.strip()
        time = _find_timestamp(raw_date, date_order)
        if time is None:
            warnings.append(f"{report_id}:{lineno}: unparseable date {raw_date!r}")
            continue
        resolution = resolved.get((raw_metric, raw_unit), False)
        if resolution is False:
            resolution = resolved[raw_metric, raw_unit] = _resolve_fields(raw_metric, raw_unit, lexicon)
        if resolution is None:
            warnings.append(f"{report_id}:{lineno}: unknown metric {raw_metric.strip()!r}")
            continue
        metric, unit, low, high, in_range, out_of_range, unit_warning = resolution
        raw_value = raw_value.strip()
        value = float(raw_value) if _NUMBER_RE.fullmatch(raw_value) else math.nan
        if not math.isfinite(value):  # not a numeral, or too long for a float
            warnings.append(f"{report_id}:{lineno}: malformed value {raw_value!r} for metric {metric!r}")
            continue
        if unit_warning:
            warnings.append(f"{report_id}:{lineno}: {unit_warning}")
        flags = in_range if low <= value <= high else out_of_range
        observations.append(Observation(metric, value, unit, time, report_id, flags))
    return observations, warnings


def _resolve_fields(raw_metric: str, raw_unit: str, lexicon: MetricLexicon) -> tuple | None:
    """What a row's metric and unit fields resolve to, or None for an unknown metric.

    That is (canonical name, stored unit, reference low, high, flags in
    range, flags out of range, unit warning or None); an entry without a
    range has an infinite one.
    """
    entry = lexicon.entry_for(raw_metric.strip())
    if entry is None:
        return None
    raw_unit = raw_unit.strip()
    unit, mismatch = _resolve_unit([raw_unit], entry, lexicon._matcher.units[entry.canonical])
    warning = None
    if mismatch:
        warning = f"unexpected unit {raw_unit!r} for {entry.canonical!r}; {_expected_units(entry)}"
    rng = entry.reference_range
    low, high = (rng.low, rng.high) if rng else (-math.inf, math.inf)
    return (entry.canonical, unit, low, high, _FLAG_SETS[mismatch, False],
            _FLAG_SETS[mismatch, True], warning)


def _expected_units(entry: LexiconEntry) -> str:
    """The end of an unexpected-unit warning: the units `entry` lists."""
    return f"expected one of {', '.join(entry.units)}" if entry.units else "expected no unit"


def _to_observation(match: _Match, time: TimePoint, report_id: str) -> Observation:
    entry, value, unit, unit_mismatch = match
    rng = entry.reference_range
    out_of_range = rng is not None and not rng.contains(value)
    return Observation(entry.canonical, value, unit, time, report_id,
                       _FLAG_SETS[unit_mismatch, out_of_range])


def _pipe_records(lines: list[str]):
    """(line number, fields split on `|`) of each line that is not blank or a `#` comment."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped.split("|")


# --- lexicon file grammar ---
#
#   canonical|alias1,alias2|unit1,unit2|low..high
#
# One entry per line; trailing fields may be empty; blank lines and
# #-comments are skipped.


def load_lexicon(path: str | Path) -> MetricLexicon:
    """Parse a lexicon file, less one leading byte order mark. Raises InvalidLexicon on bad lines."""
    path = Path(path)
    text = read_text(path, InvalidLexicon, "lexicon file").removeprefix("\ufeff")
    entries: list[LexiconEntry] = []
    for lineno, parts in _pipe_records(text.splitlines()):
        if len(parts) != 4:
            raise InvalidLexicon(f"{path.name}:{lineno}: expected 4 pipe-delimited fields")
        canonical = parts[0].strip()
        aliases = tuple(a.strip() for a in parts[1].split(",") if a.strip())
        units = tuple(u.strip() for u in parts[2].split(",") if u.strip())
        range_text = parts[3].strip()
        reference_range = None
        if range_text:
            reference_range = _parse_range(range_text, units, f"{path.name}:{lineno}")
        entries.append(LexiconEntry(canonical, aliases, units, reference_range))
    return MetricLexicon(entries)


def _parse_range(text: str, units: tuple[str, ...], where: str) -> RefRange:
    low_text, sep, high_text = text.partition("..")
    if not sep or not _NUMBER_RE.fullmatch(low_text) or not _NUMBER_RE.fullmatch(high_text):
        raise InvalidLexicon(f"{where}: reference range must be 'low..high', got {text!r}")
    low, high = float(low_text), float(high_text)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidLexicon(f"{where}: reference range bounds must fit a float, got {text!r}")
    if not low < high:
        raise InvalidLexicon(f"{where}: reference range requires low < high, got {text!r}")
    return RefRange(low, high, units[0] if units else "")
