"""Differential property tests for the ingest matchers.

Each compiled matcher is checked against a reference copy of the
straightforward implementation it replaced, kept below: one regex per alias
per line for the alias scan, one `re.fullmatch` per alias for `entry_for`,
and the timestamp grammar as one scan per date form, where the parser runs
one combined scan.
"""

import csv
import datetime as dt
import math
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronofuse import (
    DateOrder,
    LexiconEntry,
    MetricLexicon,
    Observation,
    ReportDocument,
    ReportFormat,
    TimePoint,
    extract_observations,
    parse_measurement,
    parse_timestamp,
)
from chronofuse.errors import NoTimestamp, NoTimestampInDocument
from chronofuse.ingest import RefRange

# --- reference implementations ---

_NUMBER_RE = re.compile(r"[+-]?\d+(?:\.\d+)?")
_TOKEN_EDGE = ":;,()[]{}\"'"


def reference_scan(line, lexicon):
    """Returns ((metric, value, unit) | None, warning | None)."""
    best = None
    for alias, entry in lexicon.iter_aliases():
        pattern = re.compile(
            r"(?<![A-Za-z0-9])" + re.escape(alias) + r"(?![A-Za-z0-9])", re.IGNORECASE
        )
        for m in pattern.finditer(line):
            key = (-len(alias), m.start())
            if best is None or key < (best[0], best[1]):
                best = (-len(alias), m.start(), alias, entry)
    if best is None:
        return None, None
    alias_len, start, alias, entry = -best[0], best[1], best[2], best[3]
    rest = line[start + alias_len:]

    value = None
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
            unit, mismatch = reference_resolve_unit(tokens[idx + 1:], entry)
            break
        if any(ch.isdigit() for ch in stripped):
            saw_digits = True
            break
    if value is None:
        reason = "malformed numeral" if saw_digits else "no numeric value"
        return None, f"{reason} after alias {alias!r} (metric {entry.canonical!r})"
    warning = None
    if mismatch:
        warning = f"unexpected unit after {entry.canonical!r} value; {reference_expected(entry)}"
    return (entry.canonical, value, unit), warning


def reference_expected(entry):
    if not entry.units:
        return "expected no unit"
    return f"expected one of {', '.join(entry.units)}"


def reference_resolve_unit(tokens, entry):
    for token in tokens:
        stripped = token.strip(_TOKEN_EDGE)
        if not stripped:
            continue
        for expected in entry.units:
            if stripped.lower() == expected.lower():
                return expected, False
        return "", True
    return "", False


def same_name(alias, name):
    """The one case rule of the lexicon: `re.IGNORECASE`, as the plain-text scan uses."""
    return re.fullmatch(re.escape(alias), name, re.IGNORECASE) is not None


def reference_entry_for(lexicon, name):
    for alias, entry in lexicon.iter_aliases():
        if same_name(alias, name):
            return entry
    return None


_ISO_RE = re.compile(r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)")
_SLASH_RE = re.compile(r"(?<!\d)(\d{2})/(\d{2})/(\d{4})(?!\d)")
_DASH_RE = re.compile(r"(?<!\d)(\d{2})-(\d{2})-(\d{4})(?!\d)")
_TIME_RE = re.compile(r"[ \t]+(\d{2}):(\d{2})(?!\d)")


def reference_parse_timestamp(text, date_order=DateOrder.DMY):
    candidates = []
    for match in _ISO_RE.finditer(text):
        y, m, d = (int(g) for g in match.groups())
        date = _checked_date(y, m, d)
        if date is not None:
            candidates.append((match.start(), date, match.end()))
    for match in _SLASH_RE.finditer(text):
        a, b, y = (int(g) for g in match.groups())
        day, month = (a, b) if date_order is DateOrder.DMY else (b, a)
        date = _checked_date(y, month, day)
        if date is not None:
            candidates.append((match.start(), date, match.end()))
    for match in _DASH_RE.finditer(text):
        m, d, y = (int(g) for g in match.groups())
        date = _checked_date(y, m, d)
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


def _checked_date(year, month, day):
    try:
        return dt.date(year, month, day)
    except ValueError:
        return None


# --- strategies ---

# Prefix-sharing stems, so generated aliases nest (glu / glucose / glucose level).
STEMS = ["glu", "cose", " level", "hb", "a1c", "pulse", "-", ".", "2", "(", "%", " "]
# ASCII, digits, edge punctuation and non-ASCII letters, including characters
# whose case mappings are irregular: dotted/dotless i, long s, Kelvin sign,
# micro sign, final sigma, sharp s, angstrom sign.
ALPHABET = "abgkisAGKIS019-./%()+ éÉüÜåÅßẞİıſµμσςΣ\u212a\u212b"
CASINGS = [str, str.upper, str.lower, str.title, str.swapcase]
UNITS = ["mg/dL", "%", "mmol/L", "bpm", "K"]
SEPARATORS = [" ", "  ", ":", ": ", ", ", "-", "(", ")", "/", ".", "\t"]
DATES = ["2021-03-04", "04/03/2021", "03-04-2021", "2021-03-04 12:30", "31/02/2021"]

names = st.one_of(
    st.lists(st.sampled_from(STEMS), min_size=1, max_size=3).map("".join),
    st.text(ALPHABET, min_size=1, max_size=6),
)


def owner_of(owners, name):
    """The entry index of the name in `owners` that `name` is the same name as, or None."""
    return next((index for known, index in owners if same_name(known, name)), None)


@st.composite
def lexicons(draw):
    drawn = draw(st.lists(names, min_size=1, max_size=12))
    spellings = [name for i, name in enumerate(drawn) if not any(same_name(n, name) for n in drawn[:i])]
    groups = [[spellings[0]]]
    for name in spellings[1:]:
        if draw(st.booleans()):
            groups.append([name])
        else:
            groups[-1].append(name)
    owners = [(name, index) for index, group in enumerate(groups) for name in group]
    entries = []
    for index, group in enumerate(groups):
        aliases = list(group[1:])
        # A case variant of a name in the same entry shares its trie slot. Case
        # mapping can turn it into another entry's name ("ſ".upper() == "S"),
        # which the lexicon rightly rejects, so such variants are skipped.
        for name in draw(st.lists(st.sampled_from(group), max_size=2)):
            variant = draw(st.sampled_from(CASINGS))(name)
            if owner_of(owners, variant) in (None, index):
                owners.append((variant, index))
                aliases.insert(draw(st.integers(0, len(aliases))), variant)
        units = tuple(draw(st.lists(st.sampled_from(UNITS), max_size=2, unique=True)))
        entries.append(LexiconEntry(group[0], tuple(aliases), units))
    return MetricLexicon(entries)


def fragments(lexicon):
    aliases = [alias for alias, _ in lexicon.iter_aliases()]
    alias_forms = st.builds(
        lambda alias, casing, cut: casing(alias)[:cut] if cut else casing(alias),
        st.sampled_from(aliases),
        st.sampled_from(CASINGS),
        st.integers(0, 4),
    )
    numbers = st.one_of(
        st.integers(-300, 300).map(str),
        st.floats(-1000, 1000, allow_nan=False).map(lambda v: f"{v:.2f}"),
        st.sampled_from(["1.", ".5", "12a", "7,5", "1e3", "--2"]),
    )
    return st.one_of(
        alias_forms,
        st.sampled_from(SEPARATORS),
        numbers,
        st.sampled_from(DATES),
        st.sampled_from(UNITS).map(str.lower),
        st.text(ALPHABET, max_size=4),
    )


@st.composite
def lexicon_and_lines(draw):
    lexicon = draw(lexicons())
    line = st.lists(fragments(lexicon), max_size=8).map("".join)
    return lexicon, draw(st.lists(line, min_size=1, max_size=6))


# --- properties ---


@settings(max_examples=200, deadline=None)
@given(lexicon_and_lines())
def test_alias_matcher_agrees_with_per_alias_scan(case):
    lexicon, lines = case
    for line in lines:
        assert parse_measurement(line, lexicon) == reference_scan(line, lexicon)[0]

    document = ["2020-01-01", *lines]
    _, warnings = extract_observations(
        ReportDocument("r", "r.txt", document, ReportFormat.PLAIN_TEXT), lexicon
    )
    expected = [
        f"r:{lineno}: {warning}"
        for lineno, line in enumerate(document, start=1)
        if (warning := reference_scan(line, lexicon)[1])
    ]
    assert warnings == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_entry_for_agrees_with_linear_search(data):
    lexicon = data.draw(lexicons())
    aliases = [alias for alias, _ in lexicon.iter_aliases()]
    probes = data.draw(
        st.lists(
            st.one_of(
                st.builds(lambda a, c: c(a), st.sampled_from(aliases), st.sampled_from(CASINGS)),
                names,
            ),
            min_size=1,
            max_size=10,
        )
    )
    for name in probes:
        assert lexicon.entry_for(name) is reference_entry_for(lexicon, name)


def respellings(alias):
    """`alias` with each character drawn from itself and the ALPHABET characters of its case class."""
    return st.tuples(*(
        st.sampled_from([ch, *(other for other in ALPHABET if same_name(ch, other))]) for ch in alias
    )).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entry_for_resolves_a_name_as_the_plain_text_scan_does(data):
    # a CSV or .rec field names the metric that the same word names in a note
    lexicon = data.draw(lexicons())
    aliases = [alias for alias, _ in lexicon.iter_aliases()]
    for name in data.draw(st.lists(st.sampled_from(aliases).flatmap(respellings) | names,
                                   min_size=1, max_size=10)):
        found = parse_measurement(f"{name} 1", lexicon)
        if found is None:
            continue
        entry = next(entry for entry in lexicon.entries if entry.canonical == found[0])
        if any(same_name(alias, name) for alias in (entry.canonical, *entry.aliases)):
            # the match covers the whole name
            assert lexicon.entry_for(name) is entry


# Units whose letters case-map irregularly, some of them one unit under the case rule.
CASE_UNITS = ["\u00b5g", "\u03bcg", "mg/dL", "K", "\u212a", "\u00c5", "\u212b", "\u00df", "\u1e9e", "\u017f",
              "\u0130U", "iu", "%"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_unit_is_the_first_listed_unit_that_the_case_rule_matches(data):
    # in a note and in a record field, as aliases are
    units = tuple(data.draw(st.lists(st.sampled_from(CASE_UNITS), max_size=3, unique=True)))
    lexicon = MetricLexicon([LexiconEntry("metric", (), units)])
    listed = st.sampled_from(units).flatmap(respellings) if units else st.nothing()
    token = data.draw(st.one_of(
        st.builds(lambda unit, casing: casing(unit), listed, st.sampled_from(CASINGS)),
        st.text(ALPHABET.replace(" ", ""), min_size=1, max_size=4),
    ))

    def first_listed(text):
        return next((unit for unit in units if same_name(unit, text)), "")

    note_unit = first_listed(token.strip(_TOKEN_EDGE))
    assert parse_measurement(f"metric 5 {token}", lexicon) == ("metric", 5.0, note_unit)
    document = ReportDocument("r", "r.rec", [f"2021-03-04|metric|5|{token}"], ReportFormat.STRUCTURED_RECORDS)
    observations, _ = extract_observations(document, lexicon)
    assert [o.unit for o in observations] == [first_listed(token)]


timestamp_text = st.lists(
    st.one_of(
        st.sampled_from(DATES),
        st.sampled_from(["-", "/", " ", ":", "\t", "T"]),
        st.text("0123456789-/: ", max_size=12),
        st.text(ALPHABET, max_size=4),
    ),
    max_size=8,
).map("".join)


def _outcome(parse, text, order):
    try:
        return parse(text, order)
    except NoTimestamp as exc:
        return ("NoTimestamp", str(exc))


# The examples are an invalid date overlapping a valid one, and slash dates valid
# in one order only: generated text rarely holds either.
@settings(max_examples=300, deadline=None)
@given(timestamp_text, st.sampled_from(list(DateOrder)))
@example("12-34-2021-05-06", DateOrder.DMY)
@example("12-34-2021-05-06", DateOrder.MDY)
@example("2021-13-01 then 01/02/2020", DateOrder.DMY)
@example("2021-13-01 then 01/02/2020", DateOrder.MDY)
@example("31/02/2021 2021-02-28 10:30", DateOrder.DMY)
@example("31/02/2021 2021-02-28 10:30", DateOrder.MDY)
@example("14/03/2021", DateOrder.DMY)
@example("14/03/2021", DateOrder.MDY)
@example("２０２１-０１-０４", DateOrder.DMY)
@example("٢٠٢١-٠١-٠٤", DateOrder.DMY)
@example("2021-02-30 2021-03-01", DateOrder.DMY)
@example("0000-01-01", DateOrder.DMY)
@example("2021-01-04 07:45", DateOrder.MDY)
def test_timestamp_precheck_keeps_the_grammar(text, order):
    assert _outcome(parse_timestamp, text, order) == _outcome(reference_parse_timestamp, text, order)


def test_iso_dates_in_other_decimal_digits_read_as_ascii_ones():
    for text in ("２０２１-０１-０４", "٢٠٢١-٠١-٠٤", "date: 2021-01-04"):
        assert parse_timestamp(text) == TimePoint.day(dt.date(2021, 1, 4))


# --- document-level pairing ---
#
# Reference rules for whole documents, written as a specification rather
# than a single pass: a plain-text measurement takes the timestamp of the
# nearest line at or before it that has one, or the document's first
# timestamp when no such line exists; `.rec` documents skip blank and
# `#` lines and carry one date|metric|value|unit row per line; CSV
# documents skip the rows whose cells are all blank. Both row formats
# check each row afresh, where the parser resolves each distinct metric
# and unit once per document.

PAIRING_LEXICON = MetricLexicon(
    [
        LexiconEntry("glucose", ("glu", "blood glucose"), ("mg/dL", "mmol/L"), RefRange(70.0, 140.0)),
        LexiconEntry("hba1c", ("a1c",), ("%",), RefRange(4.0, 6.5, "%")),
        LexiconEntry("pulse", ("hr", "heart rate"), ("bpm",)),
        LexiconEntry("creatinine", ("creat",), ()),
    ]
)
PAIRING_UNITS = ["mg/dL", "MMOL/L", "%", "bpm", "mmHg", ""]


def _reference_flags(entry, value, mismatch):
    flags = {"unit_mismatch"} if mismatch else set()
    rng = entry.reference_range
    if rng is not None and not rng.low <= value <= rng.high:
        flags.add("out_of_range")
    return frozenset(flags)


def _reference_time(text, date_order):
    try:
        return reference_parse_timestamp(text, date_order)
    except NoTimestamp:
        return None


def reference_extract_plain(lines, lexicon, date_order):
    stamps = [_reference_time(line, date_order) for line in lines]
    header = next((t for t in stamps if t is not None), None)
    observations, warnings = [], []
    for lineno, line in enumerate(lines, start=1):
        match, warning = reference_scan(line, lexicon)
        if warning:
            warnings.append(f"r:{lineno}: {warning}")
        if match is None:
            continue
        if header is None:
            raise NoTimestampInDocument("r")
        earlier = [t for t in stamps[:lineno] if t is not None]
        time = earlier[-1] if earlier else header
        metric, value, unit = match
        entry = reference_entry_for(lexicon, metric)
        # reference_scan warns about a match only for an unexpected unit
        flags = _reference_flags(entry, value, warning is not None)
        observations.append(Observation(metric, value, unit, time, "r", flags))
    return observations, warnings


def reference_extract_records(lines, lexicon, date_order):
    rows = [
        (lineno, line.split("|"))
        for lineno, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    return reference_rows(rows, lexicon, date_order, lambda count: "expected 4 pipe-delimited fields")


def reference_extract_csv(records, lexicon, date_order):
    """The extraction of a CSV text that is `records`, each one record's text, one after another.

    Each record is read on its own, and numbered by the line it starts on:
    one past the line breaks of the records before it.
    """
    rows, lineno = [], 1
    for text in records:
        rows.append((lineno, next(csv.reader([text]), [])))
        lineno += text.count("\n") + 1  # every break generated is "\n" or "\r\n"
    if rows and [cell.strip().lower() for cell in rows[0][1]] != ["date", "metric", "value", "unit"]:
        return [], ["r:1: expected CSV header 'date,metric,value,unit'"]
    numbered = [(lineno, row) for lineno, row in rows[1:] if any(cell.strip() for cell in row)]
    return reference_rows(numbered, lexicon, date_order, lambda count: f"expected 4 fields, got {count}")


def reference_rows(rows, lexicon, date_order, wrong_count):
    observations, warnings = [], []
    for lineno, fields in rows:
        if len(fields) != 4:
            warnings.append(f"r:{lineno}: {wrong_count(len(fields))}")
            continue
        raw_date, raw_metric, raw_value, raw_unit = (f.strip() for f in fields)
        time = _reference_time(raw_date, date_order)
        entry = reference_entry_for(lexicon, raw_metric)
        if time is None:
            warnings.append(f"r:{lineno}: unparseable date {raw_date!r}")
            continue
        if entry is None:
            warnings.append(f"r:{lineno}: unknown metric {raw_metric!r}")
            continue
        value = float(raw_value) if _NUMBER_RE.fullmatch(raw_value) else None
        if value is None or not math.isfinite(value):
            warnings.append(
                f"r:{lineno}: malformed value {raw_value!r} for metric {entry.canonical!r}"
            )
            continue
        unit, mismatch = reference_resolve_unit([raw_unit], entry)
        if mismatch:
            warnings.append(
                f"r:{lineno}: unexpected unit {raw_unit!r} for {entry.canonical!r}; "
                f"{reference_expected(entry)}"
            )
        flags = _reference_flags(entry, value, mismatch)
        observations.append(Observation(entry.canonical, value, unit, time, "r", flags))
    return observations, warnings


def _extraction(extract, *args):
    try:
        observations, warnings = extract(*args)
    except NoTimestampInDocument:
        return "NoTimestampInDocument"
    fields = [(o.metric, repr(o.value), o.unit, o.time, o.source, o.flags) for o in observations]
    return fields, warnings


@st.composite
def dates_in_any_form(draw):
    day = draw(st.dates(dt.date(1999, 1, 1), dt.date(2031, 12, 31)))
    y, m, d = f"{day.year:04d}", f"{day.month:02d}", f"{day.day:02d}"
    text = draw(
        st.sampled_from(
            [f"{y}-{m}-{d}", f"{d}/{m}/{y}", f"{m}/{d}/{y}", f"{m}-{d}-{y}", f"{d}-{m}-{y}",
             "31/02/2021", "2021-13-01"]
        )
    )
    if draw(st.booleans()):
        hh, mm = draw(st.integers(0, 25)), draw(st.integers(0, 61))
        text += draw(st.sampled_from([" ", "\t", "  "])) + f"{hh:02d}:{mm:02d}"
    return text


measurement_lines = st.builds(
    lambda alias, casing, sep, value, unit: f"{casing(alias)}{sep}{value} {unit}".rstrip(),
    st.sampled_from([alias for alias, _ in PAIRING_LEXICON.iter_aliases()]),
    st.sampled_from(CASINGS),
    st.sampled_from([": ", " ", " = ", ", "]),
    st.one_of(
        st.floats(-10, 300, allow_nan=False).map(lambda v: f"{v:.1f}"),
        st.sampled_from(["", "n/a", "7,5", "12a", "1.", "-0"]),
    ),
    st.sampled_from(PAIRING_UNITS),
)
neither_lines = st.one_of(
    st.sampled_from(["", "Patient: P-001", "Notes follow", "visit 3 of 12", "2021"]),
    st.text(ALPHABET, max_size=10),
)
plain_lines = st.one_of(
    dates_in_any_form(),
    measurement_lines,
    st.builds(lambda d, m: f"{d} {m}", dates_in_any_form(), measurement_lines),
    st.builds(lambda m, d: f"{m} {d}", measurement_lines, dates_in_any_form()),
    neither_lines,
)

record_fields = st.tuples(
    st.one_of(dates_in_any_form(), st.sampled_from(["", "someday", "2021-02-30"])),
    st.builds(
        lambda alias, casing: casing(alias),
        st.sampled_from([a for a, _ in PAIRING_LEXICON.iter_aliases()] + ["weight", ""]),
        st.sampled_from(CASINGS),
    ),
    st.one_of(
        st.floats(-10, 300, allow_nan=False).map(lambda v: f"{v:.2f}"),
        st.sampled_from(["", "x", "1e3", "nan", "9" * 400, " 5 "]),
    ),
    st.sampled_from(PAIRING_UNITS + ["  mg/dl "]),
)
whitespace = st.sampled_from(["", " ", "\t", "  \t", "　"])


@st.composite
def record_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
    if kind == "blank":
        return draw(whitespace)
    if kind == "comment":
        return draw(whitespace) + "#" + draw(st.sampled_from(["", " note", "2021-01-01|glu|5|"]))
    fields = list(draw(record_fields))
    count = draw(st.sampled_from([3, 4, 4, 4, 5]))
    fields = (fields + ["extra"])[:count]
    return draw(whitespace) + "|".join(fields) + draw(whitespace)


@settings(max_examples=200, deadline=None)
@given(st.lists(plain_lines, max_size=12), st.sampled_from(list(DateOrder)))
def test_plain_text_pairing_agrees_with_reference(lines, order):
    doc = ReportDocument("r", "r.txt", lines, ReportFormat.PLAIN_TEXT)
    assert _extraction(extract_observations, doc, PAIRING_LEXICON, order) == _extraction(
        reference_extract_plain, lines, PAIRING_LEXICON, order
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(record_lines(), max_size=12), st.sampled_from(list(DateOrder)))
def test_record_rows_agree_with_reference(lines, order):
    doc = ReportDocument("r", "r.rec", lines, ReportFormat.STRUCTURED_RECORDS)
    assert _extraction(extract_observations, doc, PAIRING_LEXICON, order) == _extraction(
        reference_extract_records, lines, PAIRING_LEXICON, order
    )


def _csv_field(text, quote):
    if quote or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_lines(draw, metrics, units):
    kind = draw(st.sampled_from(["row", "row", "row", "row", "commas", "blank"]))
    if kind == "commas":
        return ",".join(draw(st.lists(whitespace, min_size=1, max_size=5)))
    if kind == "blank":
        return draw(whitespace)
    date = draw(st.one_of(
        st.dates(dt.date(2020, 1, 1), dt.date(2021, 12, 31)).map(dt.date.isoformat),
        record_fields.map(lambda fields: fields[0]),
    ))
    value = draw(st.one_of(
        st.floats(-10, 300, allow_nan=False).map(lambda v: f"{v:.1f}"),
        st.sampled_from(["7,5", '"5"', "x", " 5 ", "9" * 400, "5\n5", "5\r\n"]),
    ))
    fields = [date, draw(st.sampled_from(metrics)), value, draw(st.sampled_from(units))]
    count = draw(st.sampled_from([3, 4, 4, 4, 4, 5]))
    fields = (fields + ["extra"])[:count]
    return ",".join(_csv_field(text, draw(st.booleans())) for text in fields)


@st.composite
def csv_documents(draw):
    """CSV lines whose rows spell one metric a few ways, with a few units and paddings."""
    padded = st.builds(lambda before, text, after: before + text + after, whitespace,
                       st.sampled_from(PAIRING_UNITS), whitespace)
    alias = draw(st.sampled_from([a for a, _ in PAIRING_LEXICON.iter_aliases()]))
    metrics = draw(st.lists(
        st.one_of(st.builds(lambda casing, pad: casing(alias) + pad, st.sampled_from(CASINGS),
                            whitespace),
                  st.sampled_from(["weight", 'gl"u', "glu,cose", "", "glu\ncose", "glu\r\ncose"])),
        min_size=1, max_size=4,
    ))
    units = draw(st.lists(padded, min_size=1, max_size=3))
    return draw(st.lists(csv_lines(metrics, units), max_size=14))


csv_headers = st.sampled_from([
    "date,metric,value,unit", " Date , METRIC,Value,unit\u3000", '"date","metric","value","unit"',
    "date,metric,value", "time,metric,value,unit", "date,metric,value,unit,",
])


# The memo of resolved (metric, unit) fields meets repeats and misses: a few
# spellings and units make up every row. Quoted fields may hold "\n" or
# "\r\n", so a record may span lines and warnings name the line it starts on.
@settings(max_examples=200, deadline=None)
@given(csv_headers, csv_documents(), st.sampled_from(["\n", "\r\n"]), st.booleans(),
       st.sampled_from(list(DateOrder)))
def test_csv_rows_agree_with_reference(header, records, line_end, last_end, order):
    records = [header, *records]
    text = line_end.join(records) + (line_end if last_end else "")
    # split as load_report splits a CSV report
    doc = ReportDocument("r", "r.csv", text.splitlines(keepends=True), ReportFormat.CSV)
    assert _extraction(extract_observations, doc, PAIRING_LEXICON, order) == _extraction(
        reference_extract_csv, records, PAIRING_LEXICON, order
    )
