import datetime as dt
import importlib.util

import pytest

from chronofuse import (
    DateOrder,
    LexiconEntry,
    MetricLexicon,
    ReportFormat,
    Resolution,
    TimePoint,
    extract_observations,
    load_lexicon,
    load_report,
    parse_measurement,
    parse_timestamp,
)
from chronofuse.errors import (
    InvalidLexicon,
    NoTimestamp,
    NoTimestampInDocument,
    ReportReadError,
    UnknownFormat,
)
from chronofuse.ingest import FLAG_OUT_OF_RANGE, FLAG_UNIT_MISMATCH, RefRange, ReportDocument


def make_lexicon(*entries):
    return MetricLexicon(list(entries))


HBA1C = LexiconEntry("hba1c", ("a1c",), ("%",), RefRange(4.0, 6.5, "%"))
GLUCOSE = LexiconEntry("glucose", ("blood glucose", "glu"), ("mg/dL",), RefRange(70.0, 140.0, "mg/dL"))


def doc(lines, fmt=ReportFormat.PLAIN_TEXT, report_id="r1"):
    return ReportDocument(report_id=report_id, source_path=report_id, lines=list(lines), format=fmt)


# --- load_report ---


def test_load_report_splits_lines(tmp_path):
    path = tmp_path / "visit.txt"
    path.write_text("one\ntwo\nthree\n", encoding="utf-8")
    document = load_report(path)
    assert document.lines == ["one", "two", "three"]
    assert document.format is ReportFormat.PLAIN_TEXT
    assert document.report_id == "visit.txt"


def test_load_report_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert load_report(path).lines == []


def test_load_report_unknown_extension(tmp_path):
    path = tmp_path / "a.xyz"
    path.write_text("x", encoding="utf-8")
    with pytest.raises(UnknownFormat):
        load_report(path)
    assert load_report(path, ReportFormat.PLAIN_TEXT).format is ReportFormat.PLAIN_TEXT


def test_load_report_missing_and_undecodable(tmp_path):
    with pytest.raises(ReportReadError):
        load_report(tmp_path / "nope.txt")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(ReportReadError):
        load_report(bad)


def test_load_report_csv_extension(tmp_path):
    path = tmp_path / "labs.csv"
    path.write_text("date,metric,value,unit\n", encoding="utf-8")
    assert load_report(path).format is ReportFormat.CSV


# --- parse_timestamp ---


def test_timestamp_iso_day():
    tp = parse_timestamp("2021-03-14")
    assert tp == TimePoint.day(dt.date(2021, 3, 14))
    assert tp.granularity is Resolution.DAY


def test_timestamp_slash_with_time():
    # hand trace of the accepted-format table: day-first slashes by default
    tp = parse_timestamp("14/03/2021 09:30")
    assert tp.date == dt.date(2021, 3, 14)
    assert tp.time_of_day == dt.time(9, 30)
    assert tp.granularity is Resolution.MINUTE


def test_timestamp_rejects_free_text():
    with pytest.raises(NoTimestamp):
        parse_timestamp("next Tuesday")


def test_timestamp_accepted_table(fixtures_dir):
    rows = _table_rows(fixtures_dir / "timestamps_accepted.txt")
    assert rows, "accepted table must not be empty"
    for text, expected in rows:
        assert parse_timestamp(text).isoformat() == expected, text


def test_timestamp_rejected_table(fixtures_dir):
    lines = [
        line
        for line in (fixtures_dir / "timestamps_rejected.txt").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert lines, "rejection table must not be empty"
    for text in lines:
        with pytest.raises(NoTimestamp):
            parse_timestamp(text)


def _table_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        text, _, expected = line.partition("|")
        rows.append((text, expected))
    return rows


def test_timestamp_date_order_switch():
    assert parse_timestamp("03/04/2021").date == dt.date(2021, 4, 3)
    assert parse_timestamp("03/04/2021", DateOrder.MDY).date == dt.date(2021, 3, 4)
    # a switch-invalid month keeps scanning and then rejects
    with pytest.raises(NoTimestamp):
        parse_timestamp("14/03/2021", DateOrder.MDY)


def test_timestamp_picks_leftmost():
    tp = parse_timestamp("from 2021-01-02 to 2021-03-04")
    assert tp.date == dt.date(2021, 1, 2)


# --- parse_measurement ---


def test_measurement_basic():
    lex = make_lexicon(HBA1C)
    assert parse_measurement("HbA1c: 7.2 %", lex) == ("hba1c", 7.2, "%")


def test_measurement_no_match():
    lex = make_lexicon(HBA1C)
    assert parse_measurement("patient felt tired", lex) is None


def test_measurement_unit_mismatch_leaves_unit_empty():
    lex = make_lexicon(GLUCOSE)
    assert parse_measurement("Glucose 110 mmol", lex) == ("glucose", 110.0, "")


def test_measurement_longest_alias_wins():
    lex = make_lexicon(
        LexiconEntry("glucose", (), ("mg/dL",)),
        LexiconEntry("fasting_glucose", ("fasting glucose",), ("mg/dL",)),
    )
    assert parse_measurement("fasting glucose 98 mg/dL", lex)[0] == "fasting_glucose"


def test_measurement_leftmost_breaks_ties():
    lex = make_lexicon(LexiconEntry("glucose", ("glu",), ()))
    # two occurrences of the same alias: value comes from the leftmost
    assert parse_measurement("glu 5 then glu 9", lex) == ("glucose", 5.0, "")


def test_measurement_alias_needs_word_boundary():
    lex = make_lexicon(LexiconEntry("alt", (), ()))
    assert parse_measurement("salt intake 5", lex) is None
    assert parse_measurement("ALT 33", lex) == ("alt", 33.0, "")


def test_measurement_case_insensitive_and_unit_spelling():
    lex = make_lexicon(GLUCOSE)
    # report writes the unit in a different case; the lexicon spelling is kept
    assert parse_measurement("GLUCOSE 101 MG/DL", lex) == ("glucose", 101.0, "mg/dL")


def test_measurement_signed_and_malformed_values():
    lex = make_lexicon(LexiconEntry("delta", (), ()))
    assert parse_measurement("delta -3.5", lex) == ("delta", -3.5, "")
    assert parse_measurement("delta 7..2", lex) is None
    assert parse_measurement("delta high", lex) is None


# --- extract_observations ---


def test_extract_basic_pairing():
    lex = make_lexicon(HBA1C)
    observations, warnings = extract_observations(doc(["2021-03-14", "HbA1c: 7.2 %"]), lex)
    assert warnings == []
    assert len(observations) == 1
    assert observations[0].metric == "hba1c"
    assert observations[0].time == TimePoint.day(dt.date(2021, 3, 14))
    assert observations[0].flags == {FLAG_OUT_OF_RANGE}  # 7.2 above 6.5


def test_extract_empty_document():
    assert extract_observations(doc([]), make_lexicon(HBA1C)) == ([], [])


def test_extract_no_timestamp_raises():
    with pytest.raises(NoTimestampInDocument):
        extract_observations(doc(["HbA1c: 7.2 %"]), make_lexicon(HBA1C))


def test_extract_header_date_backfill():
    lex = make_lexicon(HBA1C, GLUCOSE)
    observations, _ = extract_observations(
        doc(["HbA1c: 5.0 %", "2021-03-14", "Glucose: 100 mg/dL"]), lex
    )
    assert [o.time.date.isoformat() for o in observations] == ["2021-03-14", "2021-03-14"]
    assert [o.metric for o in observations] == ["hba1c", "glucose"]


def test_extract_nearest_preceding_timestamp():
    lex = make_lexicon(GLUCOSE)
    observations, _ = extract_observations(
        doc(["2021-01-01", "Glucose: 90 mg/dL", "2021-02-01", "Glucose: 95 mg/dL"]), lex
    )
    assert [o.time.date.month for o in observations] == [1, 2]


def test_extract_same_line_timestamp_applies():
    lex = make_lexicon(GLUCOSE)
    observations, _ = extract_observations(doc(["2021-03-14 Glucose: 90 mg/dL"]), lex)
    assert observations[0].time.date == dt.date(2021, 3, 14)


def test_extract_is_deterministic():
    lex = make_lexicon(HBA1C, GLUCOSE)
    document = doc(["2021-03-14", "HbA1c: 7.2 %", "Glucose: 100 mg/dL"])
    assert extract_observations(document, lex) == extract_observations(document, lex)


def test_extract_unit_mismatch_flag_and_warning():
    lex = make_lexicon(GLUCOSE)
    observations, warnings = extract_observations(
        doc(["2021-03-14", "Glucose 110 mmol"]), lex
    )
    assert observations[0].unit == ""
    assert observations[0].flags == {FLAG_UNIT_MISMATCH}
    assert len(warnings) == 1 and "unexpected unit" in warnings[0]


def test_extract_malformed_numeral_warns_not_raises():
    lex = make_lexicon(GLUCOSE)
    observations, warnings = extract_observations(doc(["2021-03-14", "Glucose: high"]), lex)
    assert observations == []
    assert len(warnings) == 1


def test_extract_metric_is_always_canonical():
    lex = make_lexicon(GLUCOSE, HBA1C)
    observations, _ = extract_observations(
        doc(["2021-03-14", "blood glucose 100 mg/dL", "a1c 5.5 %"]), lex
    )
    assert {o.metric for o in observations} == {"glucose", "hba1c"}


def test_extract_monotone_under_lexicon_growth():
    # adding an entry whose aliases share no text with existing matches
    # never removes previously extracted observations
    small = make_lexicon(GLUCOSE)
    grown = make_lexicon(GLUCOSE, LexiconEntry("weight", ("body weight",), ("kg",)))
    document = doc(["2021-03-14", "Glucose: 100 mg/dL", "body weight 70 kg"])
    before, _ = extract_observations(document, small)
    after, _ = extract_observations(document, grown)
    assert set(before) <= set(after)
    assert len(after) == 2


def test_extract_csv_document():
    lex = make_lexicon(HBA1C, GLUCOSE)
    document = doc(
        ["date,metric,value,unit", "2021-03-14,a1c,5.5,%", "2021-03-15,glucose,99,mg/dL"],
        fmt=ReportFormat.CSV,
    )
    observations, warnings = extract_observations(document, lex)
    assert warnings == []
    assert [(o.metric, o.value) for o in observations] == [("hba1c", 5.5), ("glucose", 99.0)]


def test_extract_csv_bad_rows_warn():
    lex = make_lexicon(HBA1C)
    document = doc(
        [
            "date,metric,value,unit",
            "someday,a1c,5.5,%",
            "2021-03-14,unknown_metric,5.5,%",
            "2021-03-14,a1c,abc,%",
            "2021-03-14,a1c,5.5,%",
        ],
        fmt=ReportFormat.CSV,
    )
    observations, warnings = extract_observations(document, lex)
    assert len(observations) == 1
    assert len(warnings) == 3


def test_extract_records_document():
    lex = make_lexicon(GLUCOSE)
    document = doc(
        ["# export", "", "2021-03-14|glu|101|mg/dL"],
        fmt=ReportFormat.STRUCTURED_RECORDS,
    )
    observations, warnings = extract_observations(document, lex)
    assert warnings == []
    assert observations[0].metric == "glucose"
    assert observations[0].unit == "mg/dL"


# --- lexicon file ---


def test_load_lexicon_fixture(lexicon):
    assert {e.canonical for e in lexicon.entries} >= {"glucose", "hba1c", "creatinine"}
    entry = lexicon.entry_for("A1C")
    assert entry is not None and entry.canonical == "hba1c"
    assert lexicon.ranges()["glucose"].low == 70.0


def test_lexicon_rejects_duplicate_canonicals():
    with pytest.raises(InvalidLexicon):
        MetricLexicon([LexiconEntry("x", ()), LexiconEntry("X", ())])


def test_lexicon_rejects_colliding_aliases():
    with pytest.raises(InvalidLexicon):
        MetricLexicon([LexiconEntry("x", ("shared",)), LexiconEntry("y", ("Shared",))])


def test_load_lexicon_bad_grammar(tmp_path):
    bad = tmp_path / "lex.txt"
    bad.write_text("too|few|fields\n", encoding="utf-8")
    with pytest.raises(InvalidLexicon):
        load_lexicon(bad)
    bad.write_text("m|a|u|10..2\n", encoding="utf-8")
    with pytest.raises(InvalidLexicon):
        load_lexicon(bad)


# --- numerals too long for a float ---

TOO_LONG = "1" * 400  # float() gives inf


def test_plain_numeral_too_long_for_a_float_warns_and_skips_the_line():
    lex = make_lexicon(GLUCOSE)
    observations, warnings = extract_observations(
        doc(["2021-03-14", f"Glucose: {TOO_LONG} mg/dL", "Glucose: 100 mg/dL"]), lex
    )
    assert [o.value for o in observations] == [100.0]
    assert warnings == ["r1:2: malformed numeral after alias 'glucose' (metric 'glucose')"]


def test_csv_value_too_long_for_a_float_warns_and_skips_the_row():
    lex = make_lexicon(GLUCOSE)
    document = doc(
        ["date,metric,value,unit", f"2021-03-14,glucose,{TOO_LONG},mg/dL", "2021-03-15,glu,99,mg/dL"],
        fmt=ReportFormat.CSV,
    )
    observations, warnings = extract_observations(document, lex)
    assert [o.value for o in observations] == [99.0]
    assert warnings == [f"r1:2: malformed value {TOO_LONG!r} for metric 'glucose'"]


def test_lexicon_range_bound_too_long_for_a_float_is_invalid(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(f"glucose|glu|mg/dL|70..{TOO_LONG}\n", encoding="utf-8")
    with pytest.raises(InvalidLexicon, match="lex.txt:1: reference range bounds must fit a float"):
        load_lexicon(path)


@pytest.mark.parametrize("low, high", [
    (0.0, float("inf")), (float("-inf"), 0.0), (float("nan"), 1.0), (0.0, float("nan")),
])
def test_reference_range_refuses_non_finite_bounds(low, high):
    # the savers would write such a range and the loaders refuse it
    with pytest.raises(ValueError, match="requires finite low < high"):
        RefRange(low, high)


def test_csv_field_over_the_csv_limit_is_a_report_read_error():
    lex = make_lexicon(GLUCOSE)
    document = doc(
        ["date,metric,value,unit", "2021-03-14,glucose," + "9" * 131_073 + ",mg/dL"],
        fmt=ReportFormat.CSV,
        report_id="huge.csv",
    )
    with pytest.raises(ReportReadError, match="report huge.csv is not readable CSV"):
        extract_observations(document, lex)


def test_fixture_script_reproduces_the_committed_reports(fixtures_dir, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fixture_reports", fixtures_dir / "make_fixture_reports.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.HERE = tmp_path
    (tmp_path / "reports").mkdir()
    script.main()
    for name in ("report_a.txt", "report_b.csv"):
        written = (tmp_path / "reports" / name).read_bytes()
        assert written == (fixtures_dir / "reports" / name).read_bytes(), name
