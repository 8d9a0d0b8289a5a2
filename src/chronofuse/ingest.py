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


@dataclass(frozen=True)
class TimePoint:
    """A calendar date, optionally refined to a minute of the day."""

    date: dt.date
    time_of_day: dt.time | None = None
    granularity: Resolution = Resolution.DAY

    def __post_init__(self):
        if (self.time_of_day is not None) != (self.granularity is Resolution.MINUTE):
            raise ValueError("granularity must be minute iff time_of_day is present")

    @classmethod
    def day(cls, date: dt.date) -> "TimePoint":
        return cls(date=date)

    @classmethod
    def minute(cls, date: dt.date, time_of_day: dt.time) -> "TimePoint":
        return cls(date=date, time_of_day=time_of_day, granularity=Resolution.MINUTE)

    @property
    def sort_key(self) -> tuple[dt.date, dt.time]:
        return (self.date, self.time_of_day or dt.time(0, 0))

    def isoformat(self) -> str:
        if self.time_of_day is None:
            return self.date.isoformat()
        return f"{self.date.isoformat()} {self.time_of_day.strftime('%H:%M')}"


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

    Canonical names are unique and alias sets are pairwise disjoint, both
    case-insensitively; a canonical name always matches its own entry.
    The alias index and the line matcher are built from `entries` once,
    so a lexicon must not be mutated after construction.
    """

    entries: list[LexiconEntry]
    _by_alias: dict[str, LexiconEntry] = field(init=False, compare=False, repr=False)
    _matcher: _AliasMatcher | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        canonicals = [e.canonical.lower() for e in self.entries]
        if len(set(canonicals)) != len(canonicals):
            raise InvalidLexicon("canonical names must be unique")
        seen: dict[str, LexiconEntry] = {}
        for entry in self.entries:
            _validate_name(entry.canonical, "canonical name")
            for unit in entry.units:
                _validate_name(unit, "unit")
            for alias in {entry.canonical.lower()} | {a.lower() for a in entry.aliases}:
                _validate_name(alias, "alias")
                if alias in seen:
                    raise InvalidLexicon(
                        f"alias {alias!r} is claimed by both {seen[alias].canonical!r} "
                        f"and {entry.canonical!r}"
                    )
                seen[alias] = entry
        self._by_alias = seen

    def entry_for(self, name: str) -> LexiconEntry | None:
        """Resolve a canonical name or alias, case-insensitively."""
        return self._by_alias.get(name.lower())

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

    def _line_matcher(self) -> _AliasMatcher:
        """The alias matcher, compiled on the first plain-text scan."""
        if self._matcher is None:
            self._matcher = _AliasMatcher.compile(self)
        return self._matcher


@dataclass(frozen=True)
class Observation:
    """One timestamped metric reading extracted from a report."""

    metric: str
    value: float
    unit: str
    time: TimePoint
    source: str
    flags: frozenset[str] = field(default_factory=frozenset)


@dataclass
class ReportDocument:
    """A loaded report file: ordered lines plus identity and format."""

    report_id: str
    source_path: str
    lines: list[str]
    format: ReportFormat
    patient_id: str | None = None


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
    and ReportReadError for missing files or non-UTF-8 bytes.
    """
    path = Path(path)
    fmt = format_hint
    if fmt is None:
        fmt = _EXTENSIONS.get(path.suffix.lower())
        if fmt is None:
            raise UnknownFormat(f"cannot infer report format from {path.name!r}; pass a format hint")
    return ReportDocument(
        report_id=report_id_for(path),
        source_path=str(path),
        lines=read_text(path, ReportReadError, "report file").splitlines(),
        format=fmt,
    )


# --- timestamp grammar ---
#
# Accepted forms, each optionally followed by " HH:MM":
#   YYYY-MM-DD            ISO, always day-month order free
#   A/B/YYYY              slash form; A/B order set by the date_order switch
#   MM-DD-YYYY            dash form with two-digit lead, always month first

_ISO_RE = re.compile(r"(?<!\d)(?P<y>\d{4})-(?P<m>\d{2})-(?P<d>\d{2})(?!\d)")
_DASH_RE = re.compile(r"(?<!\d)(?P<m>\d{2})-(?P<d>\d{2})-(?P<y>\d{4})(?!\d)")
_DMY_SLASH_RE = re.compile(r"(?<!\d)(?P<d>\d{2})/(?P<m>\d{2})/(?P<y>\d{4})(?!\d)")
_MDY_SLASH_RE = re.compile(r"(?<!\d)(?P<m>\d{2})/(?P<d>\d{2})/(?P<y>\d{4})(?!\d)")
_DATE_FORMS = {
    DateOrder.DMY: (_ISO_RE, _DMY_SLASH_RE, _DASH_RE),
    DateOrder.MDY: (_ISO_RE, _MDY_SLASH_RE, _DASH_RE),
}
_TIME_RE = re.compile(r"[ \t]+(\d{2}):(\d{2})(?!\d)")
# Every accepted date form contains this, so a line without it has no date.
_DATE_HINT_RE = re.compile(r"\d{2}[-/]\d{2}")


def parse_timestamp(text: str, date_order: DateOrder = DateOrder.DMY) -> TimePoint:
    """Find the first accepted timestamp in `text`.

    Granularity is day unless the date is directly followed by a valid
    HH:MM time of day. Raises NoTimestamp when no accepted pattern with a
    valid calendar date occurs.
    """
    if not _DATE_HINT_RE.search(text):
        raise NoTimestamp(f"no accepted timestamp in {text!r}")
    candidates: list[tuple[int, dt.date, int]] = []
    for pattern in _DATE_FORMS[date_order]:
        for match in pattern.finditer(text):
            date = _checked_date(int(match["y"]), int(match["m"]), int(match["d"]))
            if date is not None:
                candidates.append((match.start(), date, match.end()))
    if not candidates:
        raise NoTimestamp(f"no accepted timestamp in {text!r}")
    start, date, end = min(candidates)
    time_match = _TIME_RE.match(text, end)
    if time_match:
        hh, mm = int(time_match.group(1)), int(time_match.group(2))
        if hh <= 23 and mm <= 59:
            return TimePoint.minute(date, dt.time(hh, mm))
    return TimePoint.day(date)


def _checked_date(year: int, month: int, day: int) -> dt.date | None:
    try:
        return dt.date(year, month, day)
    except ValueError:
        return None


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
    first branch that matches is the only one.
    """

    pattern: re.Pattern[str]
    slots: tuple[tuple[str, LexiconEntry], ...]

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
        # first spelling of case-equivalent aliases keeps the slot, as it
        # wins every tie in iter_aliases() order.
        root: dict = {}
        for alias, entry in lexicon.iter_aliases():
            node = root
            for ch in alias:
                node = node.setdefault(key(ch), {})
            node.setdefault("", (alias, entry))

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
        return cls(re.compile(f"{_ALIAS_BEFORE}(?={body})", re.IGNORECASE), tuple(slots))


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
    matcher = lexicon._line_matcher()
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
                unit, mismatch = _resolve_unit(tokens[idx + 1:], entry)
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
        warning = (
            f"unexpected unit after {entry.canonical!r} value; expected one of "
            f"{', '.join(entry.units)}"
        )
    return (entry, value, unit, mismatch), warning


def _resolve_unit(tokens: list[str], entry: LexiconEntry) -> tuple[str, bool]:
    """Match the token after the value against the entry's expected units.

    Returns (unit, mismatch). The stored spelling is the lexicon's, so
    case variants in reports cannot create unit conflicts downstream.
    """
    for token in tokens:
        stripped = token.strip(_TOKEN_EDGE)
        if not stripped:
            continue
        for expected in entry.units:
            if stripped.lower() == expected.lower():
                return expected, False
        return "", True
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
        try:
            current = parse_timestamp(line, date_order)
        except NoTimestamp:
            pass
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
    try:
        rows = list(csv.reader(doc.lines))
    except csv.Error as exc:
        raise ReportReadError(f"report {doc.report_id} is not readable CSV: {exc}") from exc
    if rows and [cell.strip().lower() for cell in rows[0]] != ["date", "metric", "value", "unit"]:
        return [], [f"{doc.report_id}:1: expected CSV header 'date,metric,value,unit'"]
    numbered = [
        (lineno, row)
        for lineno, row in enumerate(rows[1:], start=2)
        if any(cell.strip() for cell in row)
    ]
    return _extract_rows(doc, numbered, lexicon, date_order, "expected 4 fields, got {}")


def _extract_rows(doc, rows, lexicon, date_order, wrong_count: str):
    """Observations from (line number, fields) rows of an explicit-row format.

    `wrong_count` is the warning for a row without 4 fields, formatted with
    its field count.
    """
    warnings: list[str] = []
    observations: list[Observation] = []
    for lineno, fields in rows:
        if len(fields) != 4:
            warnings.append(f"{doc.report_id}:{lineno}: {wrong_count.format(len(fields))}")
            continue
        obs, warning = _explicit_row(fields, lexicon, date_order, doc.report_id)
        if warning:
            warnings.append(f"{doc.report_id}:{lineno}: {warning}")
        if obs is not None:
            observations.append(obs)
    return observations, warnings


def _explicit_row(fields, lexicon, date_order, report_id):
    """Shared row logic for formats carrying explicit date/metric/value/unit."""
    raw_date, raw_metric, raw_value, raw_unit = (f.strip() for f in fields)
    try:
        time = parse_timestamp(raw_date, date_order)
    except NoTimestamp:
        return None, f"unparseable date {raw_date!r}"
    entry = lexicon.entry_for(raw_metric)
    if entry is None:
        return None, f"unknown metric {raw_metric!r}"
    value = float(raw_value) if _NUMBER_RE.fullmatch(raw_value) else math.nan
    if not math.isfinite(value):  # not a numeral, or too long for a float
        return None, f"malformed value {raw_value!r} for metric {entry.canonical!r}"
    unit = ""
    mismatch = False
    if raw_unit:
        unit, mismatch = _resolve_unit([raw_unit], entry)
    warning = None
    if mismatch:
        warning = (
            f"unexpected unit {raw_unit!r} for {entry.canonical!r}; expected one of "
            f"{', '.join(entry.units)}"
        )
    return _to_observation((entry, value, unit, mismatch), time, report_id), warning


def _to_observation(match: _Match, time: TimePoint, report_id: str) -> Observation:
    entry, value, unit, unit_mismatch = match
    flags = set()
    if unit_mismatch:
        flags.add(FLAG_UNIT_MISMATCH)
    rng = entry.reference_range
    if rng is not None and not rng.contains(value):
        flags.add(FLAG_OUT_OF_RANGE)
    return Observation(
        metric=entry.canonical,
        value=value,
        unit=unit,
        time=time,
        source=report_id,
        flags=frozenset(flags),
    )


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
    """Parse a lexicon file. Raises InvalidLexicon on any grammar violation."""
    path = Path(path)
    text = read_text(path, InvalidLexicon, "lexicon file")
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
