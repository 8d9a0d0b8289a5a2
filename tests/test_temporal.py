import datetime as dt
import itertools
import os
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
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
    add_report,
    aggregate_cell,
    column_count_formula,
    fuse,
    load_observations,
    load_table,
    rebucket,
    save_observations,
    save_table,
    slice_for,
    slice_range,
)
from chronofuse.errors import (
    ChronofuseError,
    EmptyCell,
    FinerGranularity,
    InvertedRange,
    MalformedStore,
    NonFiniteValue,
    OutputWriteError,
    UnitConflict,
    VersionMismatch,
)
from chronofuse.ingest import FLAG_OUT_OF_RANGE, FLAG_UNIT_MISMATCH, Observation, RefRange
from conftest import obs


def brute_force_formula(m: int, r: int) -> int:
    total = 0
    for k in range(1, m + 1):
        total += k * r
    return total


def tp(day: str) -> TimePoint:
    return TimePoint.day(dt.date.fromisoformat(day))


# --- column count formula ---


def test_formula_matches_brute_force_spots():
    assert column_count_formula(3, 2) == brute_force_formula(3, 2) == 12
    assert column_count_formula(1, 1) == 1
    assert column_count_formula(0, 5) == 0
    assert column_count_formula(50, 50) == brute_force_formula(50, 50)


def test_formula_rejects_negatives():
    with pytest.raises(ValueError):
        column_count_formula(-1, 2)


# --- fuse ---


def test_fuse_two_reports_union():
    # brute-force union oracle: columns = metric name union, rows = slice union
    observations = [
        obs("glucose", 5.0, "2021-01-01", "r1"),
        obs("glucose", 6.0, "2021-01-02", "r2"),
        obs("creatinine", 1.0, "2021-01-02", "r2"),
    ]
    table, _ = fuse(observations)
    assert table.metrics == ("creatinine", "glucose")
    assert [ts.start_date.isoformat() for ts in table.rows] == ["2021-01-01", "2021-01-02"]
    assert sum(len(row) for row in table.rows.values()) == 3


def test_fuse_single_report_columns():
    observations = [obs("a", 1.0, "2021-01-01"), obs("b", 2.0, "2021-01-01")]
    table, _ = fuse(observations)
    assert table.metrics == ("a", "b")


def test_fuse_unit_conflict():
    observations = [
        obs("glucose", 5.0, "2021-01-01", "r1", unit="mg/dL"),
        obs("glucose", 6.0, "2021-01-02", "r2", unit="mmol/L"),
    ]
    with pytest.raises(UnitConflict):
        fuse(observations)


def test_fuse_empty_unit_does_not_conflict():
    observations = [
        obs("glucose", 5.0, "2021-01-01", "r1", unit=""),
        obs("glucose", 6.0, "2021-01-02", "r2", unit="mg/dL"),
    ]
    table, _ = fuse(observations)
    assert table.columns[0].unit == "mg/dL"


def test_fuse_unit_conflict_after_an_empty_unit_names_both_units():
    # source "a" is merged with no unit first, then comes back with a unit that conflicts
    observations = [
        obs("m", 1.0, "2021-01-01", "a", unit=""),
        obs("m", 2.0, "2021-01-02", "b", unit="mg/dL"),
        obs("m", 3.0, "2021-01-03", "a", unit="mmol/L"),
    ]
    with pytest.raises(UnitConflict, match="'mg/dL' and 'mmol/L'"):
        fuse(observations)


def test_fuse_notes_do_not_depend_on_shared_flag_sets():
    out, both = frozenset({FLAG_OUT_OF_RANGE}), frozenset({FLAG_OUT_OF_RANGE, FLAG_UNIT_MISMATCH})
    shared = [
        replace(obs("a", 1.0, "2021-01-01", "r1"), flags=out),
        replace(obs("a", 2.0, "2021-01-01", "r2"), flags=out),
        replace(obs("a", 3.0, "2021-01-02", "r1"), flags=both),
        replace(obs("b", 4.0, "2021-01-02", "r1"), flags=out),
        obs("b", 5.0, "2021-01-02", "r2"),
    ]
    fresh = [replace(o, flags=frozenset(set(o.flags))) for o in shared]
    expected = [
        "metric a: 3 observation(s) flagged out_of_range",
        "metric a: 1 observation(s) flagged unit_mismatch",
        "metric b: 1 observation(s) flagged out_of_range",
        "slice 2021-01-01 metric a: 2 entries accumulated",
        "slice 2021-01-02 metric b: 2 entries accumulated",
    ]
    assert fuse(shared)[1] == expected
    assert fuse(fresh)[1] == expected


def test_fuse_order_independent():
    observations = [
        obs("a", 1.0, "2021-01-01", "r1"),
        obs("b", 2.0, "2021-01-01", "r2"),
        obs("a", 3.0, "2021-01-02", "r2"),
        obs("a", 4.0, "2021-01-01", "r2"),
    ]
    base, _ = fuse(observations)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = observations[:]
        rng.shuffle(shuffled)
        permuted, _ = fuse(shuffled)
        assert permuted == base


def test_fuse_collision_accumulates_in_one_cell():
    observations = [
        obs("a", 1.0, "2021-01-01", "r1"),
        obs("a", 2.0, "2021-01-01", "r2"),
    ]
    table, warnings = fuse(observations)
    cell = table.rows[slice_for(tp("2021-01-01"), Granularity.DAY)]["a"]
    assert cell.values == (1.0, 2.0)
    assert any("2 entries accumulated" in w for w in warnings)


def test_fuse_week_and_month_alignment():
    observations = [obs("a", 1.0, "2021-03-14")]  # a Sunday
    weekly, _ = fuse(observations, Granularity.WEEK)
    assert next(iter(weekly.rows)).start_date == dt.date(2021, 3, 8)  # Monday
    monthly, _ = fuse(observations, Granularity.MONTH)
    assert next(iter(monthly.rows)).start_date == dt.date(2021, 3, 1)


def test_fuse_ranges_populate_columns(lexicon):
    observations = [obs("glucose", 90.0, "2021-01-01", unit="mg/dL")]
    table, _ = fuse(observations, ranges=lexicon.ranges())
    assert table.columns[0].reference_range == RefRange(70.0, 140.0, "mg/dL")


# --- add_report ---


def test_add_report_equals_refuse():
    part_a = [obs("a", 1.0, "2021-01-01", "r1"), obs("b", 2.0, "2021-01-03", "r1")]
    part_b = [obs("a", 3.0, "2021-01-02", "r2"), obs("c", 4.0, "2021-01-01", "r2")]
    base, _ = fuse(part_a)
    full, _ = fuse(part_a + part_b)  # oracle: full re-fuse
    assert add_report(base, part_b) == full


def test_add_report_identity_on_empty():
    table, _ = fuse([obs("a", 1.0, "2021-01-01")])
    assert add_report(table, []) == table


def test_add_report_grows_columns_by_new_metrics():
    table, _ = fuse([obs("a", 1.0, "2021-01-01")])
    grown = add_report(table, [obs("b", 1.0, "2021-01-01", "r2"), obs("c", 2.0, "2021-01-02", "r2")])
    assert len(grown.columns) == len(table.columns) + 2


def test_add_report_unit_conflict():
    table, _ = fuse([obs("a", 1.0, "2021-01-01", unit="mg/dL")])
    with pytest.raises(UnitConflict):
        add_report(table, [obs("a", 2.0, "2021-01-02", "r2", unit="mmol/L")])


# --- slice_range ---


def five_day_table():
    observations = [obs("a", float(i), f"2021-01-0{i}") for i in range(1, 6)]
    observations.append(obs("b", 9.0, "2021-01-05", "r2"))
    table, _ = fuse(observations)
    return table


def test_slice_range_full_is_identity():
    table = five_day_table()
    assert slice_range(table, tp("2021-01-01"), tp("2021-01-05")) == table


def test_slice_range_empty_intersection():
    table = five_day_table()
    sliced = slice_range(table, tp("2022-01-01"), tp("2022-02-01"))
    assert sliced.rows == {} and sliced.columns == ()


def test_slice_range_partial():
    table = five_day_table()
    sliced = slice_range(table, tp("2021-01-02"), tp("2021-01-03"))
    assert [ts.start_date.day for ts in sliced.rows] == [2, 3]
    assert sliced.metrics == ("a",)  # column b has no surviving cells


def test_slice_range_inverted():
    with pytest.raises(InvertedRange):
        slice_range(five_day_table(), tp("2021-01-05"), tp("2021-01-01"))


def test_slice_range_week_intersection():
    observations = [obs("a", 1.0, "2021-01-04"), obs("a", 2.0, "2021-01-11")]
    table, _ = fuse(observations, Granularity.WEEK)
    # a range inside the first week intersects that slice only
    sliced = slice_range(table, tp("2021-01-06"), tp("2021-01-07"))
    assert [ts.start_date.isoformat() for ts in sliced.rows] == ["2021-01-04"]


# --- aggregate_cell ---


def cell(*entries):
    return Cell(tuple(CellEntry(v, s) for v, s in entries))


def test_aggregate_mean():
    assert aggregate_cell(cell((7.0, "r1"), (9.0, "r2")), Aggregator.MEAN) == 8.0


def test_aggregate_singleton():
    for aggregator in Aggregator:
        assert aggregate_cell(cell((5.0, "r1")), aggregator) == 5.0


def test_aggregate_median_sort_and_pick():
    values = [1.0, 2.0, 100.0]
    expected = sorted(values)[len(values) // 2]  # sort-and-pick oracle
    assert aggregate_cell(cell((100.0, "r3"), (1.0, "r1"), (2.0, "r2")), Aggregator.MEDIAN) == expected
    assert expected == 2.0


def test_aggregate_median_even():
    assert aggregate_cell(cell((1.0, "a"), (3.0, "b"), (5.0, "c"), (7.0, "d")), Aggregator.MEDIAN) == 4.0


def test_aggregate_first_last_by_source():
    c = cell((9.0, "r2"), (5.0, "r1"))
    assert aggregate_cell(c, Aggregator.FIRST) == 5.0
    assert aggregate_cell(c, Aggregator.LAST) == 9.0


def test_aggregate_empty_cell():
    with pytest.raises(ValueError):
        Cell(())
    bare = Cell.__new__(Cell)
    object.__setattr__(bare, "entries", ())
    with pytest.raises(EmptyCell):
        aggregate_cell(bare)


# --- rebucket ---


def test_rebucket_day_to_week(weekly_table, corpus_observations, lexicon):
    daily, _ = fuse(corpus_observations, Granularity.DAY, ranges=lexicon.ranges())
    assert rebucket(daily, Granularity.WEEK) == weekly_table
    assert rebucket(daily, Granularity.DAY) == daily


def test_rebucket_to_its_own_granularity_returns_fresh_rows():
    daily, _ = fuse([obs("a", 1.0, "2021-01-04"), obs("b", 2.0, "2021-01-05", source="r2")])
    expected = repr(daily)
    same = rebucket(daily, Granularity.DAY)
    assert same == daily
    for row in same.rows.values():  # the returned rows are the caller's to change
        row["a"] = cell((9.0, "r1"))
    same.rows.clear()
    assert repr(daily) == expected
    assert rebucket(daily, Granularity.DAY) == daily


def test_rebucket_refuses_finer():
    table, _ = fuse([obs("a", 1.0, "2021-01-01")], Granularity.MONTH)
    with pytest.raises(ValueError):
        rebucket(table, Granularity.DAY)


def test_rebucket_to_a_finer_granularity_is_a_chronofuse_error():
    table, _ = fuse([obs("a", 1.0, "2021-01-01")], Granularity.WEEK)
    with pytest.raises(FinerGranularity, match="cannot rebucket week table to day") as info:
        rebucket(table, Granularity.DAY)
    assert isinstance(info.value, ChronofuseError)


@pytest.mark.parametrize("value", [1, True], ids=["int", "bool"])
def test_fuse_and_add_report_refuse_a_value_that_is_not_a_float(value):
    # save_observations refuses it with the same words (see below), so the error shows at the input
    table, _ = fuse([obs("a", 1.0, "2021-01-01")])
    for call in (fuse, lambda o: add_report(table, o)):
        with pytest.raises(ValueError, match=rf"^value {value!r} for a from r1 is not a float$"):
            call([obs("a", 1.0, "2021-01-02"), obs("a", value, "2021-01-03")])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_value_in_fuse_or_add_report_is_a_chronofuse_error(bad):
    table, _ = fuse([obs("a", 1.0, "2021-01-01")])
    for call in (fuse, lambda o: add_report(table, o)):
        with pytest.raises(NonFiniteValue, match="non-finite value for a from r1") as info:
            call([obs("a", 1.0, "2021-01-02"), obs("a", bad, "2021-01-03")])
        assert isinstance(info.value, ChronofuseError)


@pytest.mark.parametrize("bad, save_error, fuse_error", [
    (obs("a", 7, "2021-02-01", unit="mg"), (ValueError, "value 7 for a from r1 is not a float"),
     (ValueError, "value 7 for a from r1 is not a float")),
    (obs("a", float("nan"), "2021-02-01", unit="mg"), (NonFiniteValue, "non-finite value for a from r1"),
     (NonFiniteValue, "non-finite value for a from r1")),
    (obs("a", 1.0, "2021-02-01", unit="m|g"),
     (ValueError, "unit 'm|g' contains a reserved store character (| ; = @ or a line break)"),
     (UnitConflict, "metric 'a' has conflicting units 'mg' and 'm|g'")),
], ids=["int", "nan", "reserved-unit"])
def test_a_bad_observation_after_many_good_ones_of_its_names_is_refused(tmp_path, bad, save_error,
                                                                        fuse_error):
    # the savers and fuse check each distinct name triple once, and each value by a fast test first
    good = [obs("a", float(i), f"2021-01-{i % 28 + 1:02d}", unit="mg") for i in range(60)]
    for call, (error, message) in ((lambda o: save_observations(o, tmp_path / "o.txt"), save_error),
                                   (fuse, fuse_error)):
        with pytest.raises(error) as info:
            call([*good, bad, *good])
        assert str(info.value) == message
    assert not (tmp_path / "o.txt").exists()


# --- persistence ---


def test_store_round_trip(tmp_path, weekly_table):
    path = tmp_path / "table.txt"
    save_table(weekly_table, path)
    assert load_table(path) == weekly_table


def test_store_bytes_deterministic(tmp_path, weekly_table):
    p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
    save_table(weekly_table, p1)
    save_table(weekly_table, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_store_matches_committed_golden(tmp_path, weekly_table, fixtures_dir):
    golden = fixtures_dir / "golden" / "table_weekly.txt"
    path = tmp_path / "table.txt"
    save_table(weekly_table, path)
    assert path.read_bytes() == golden.read_bytes()


def test_store_truncated_file(tmp_path, weekly_table):
    path = tmp_path / "table.txt"
    save_table(weekly_table, path)
    text = path.read_text(encoding="utf-8")
    truncated = tmp_path / "cut.txt"
    truncated.write_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\n", encoding="utf-8")
    with pytest.raises(MalformedStore):
        load_table(truncated)


def test_store_version_mismatch(tmp_path):
    path = tmp_path / "future.txt"
    path.write_text("chronofuse-table 99\nend\n", encoding="utf-8")
    with pytest.raises(VersionMismatch):
        load_table(path)


def test_store_garbage(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("definitely not a store\n", encoding="utf-8")
    with pytest.raises(MalformedStore):
        load_table(path)


def test_store_round_trip_preserves_minutes_na():
    # slices are date-keyed; a table fused from minute observations round-trips
    observation = Observation(
        metric="glucose",
        value=5.5,
        unit="",
        time=TimePoint.minute(dt.date(2021, 3, 14), dt.time(9, 30)),
        source="r1",
    )
    table, _ = fuse([observation])
    assert next(iter(table.rows)).start_date == dt.date(2021, 3, 14)


# --- observation archive ---


def test_archive_round_trip(tmp_path, corpus_observations, lexicon):
    from chronofuse import load_observations, save_observations

    path = tmp_path / "observations.txt"
    save_observations(corpus_observations, path, ranges=lexicon.ranges())
    loaded, ranges = load_observations(path)
    assert loaded == corpus_observations
    assert ranges == lexicon.ranges()


def test_archive_golden_loads_and_saves_back_to_its_bytes(tmp_path, corpus_observations, lexicon,
                                                          fixtures_dir):
    # the archive the README quick start's ingest writes from the fixture corpus
    golden = (fixtures_dir / "golden" / "observations.txt").read_bytes()
    path = tmp_path / "observations.txt"
    save_observations(corpus_observations, path, ranges=lexicon.ranges())
    assert path.read_bytes() == golden
    observations, ranges = load_observations(fixtures_dir / "golden" / "observations.txt")
    save_observations(observations, path, ranges=ranges)
    assert path.read_bytes() == golden


def test_archive_rejects_garbage(tmp_path):
    from chronofuse import load_observations

    path = tmp_path / "bad.txt"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(MalformedStore):
        load_observations(path)


def test_save_refuses_reserved_characters(tmp_path):
    # separators cannot be escaped in the store grammar, so writing them
    # must fail loudly instead of producing an unparseable file
    table, _ = fuse([obs("bad|metric", 1.0, "2021-01-01")])
    with pytest.raises(ValueError):
        save_table(table, tmp_path / "t.txt")
    from chronofuse import save_observations

    with pytest.raises(ValueError):
        save_observations([obs("m", 1.0, "2021-01-01", source="r@1")], tmp_path / "o.txt")
    assert not (tmp_path / "t.txt").exists() and not (tmp_path / "o.txt").exists()


# --- non-finite numbers ---


NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_store_rejects_non_finite_cell_value(tmp_path, bad):
    path = tmp_path / "t.txt"
    path.write_text(
        "chronofuse-table 1\ngranularity day\ncolumns 1\ncol a||||r1\n"
        f"rows 1\nrow 2021-01-01|a={bad}@r1\nend\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedStore, match="cell value"):
        load_table(path)


@pytest.mark.parametrize("rng", ["0.0..inf", "-inf..1.0", "nan..1.0"])
def test_store_rejects_non_finite_reference_range(tmp_path, rng):
    path = tmp_path / "t.txt"
    path.write_text(
        f"chronofuse-table 1\ngranularity day\ncolumns 1\ncol a||{rng}||r1\n"
        "rows 1\nrow 2021-01-01|a=1.0@r1\nend\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedStore, match="reference range"):
        load_table(path)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_archive_rejects_non_finite_observation_value(tmp_path, bad):
    from chronofuse import load_observations

    path = tmp_path / "o.txt"
    path.write_text(
        "chronofuse-observations 1\nranges 0\nobservations 1\n"
        f"obs r1|a|{bad}||2021-01-01|\nend\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedStore, match="observation value"):
        load_observations(path)


@pytest.mark.parametrize("rng", ["0.0..inf", "-inf..1.0", "nan..1.0"])
def test_archive_rejects_non_finite_reference_range(tmp_path, rng):
    from chronofuse import load_observations

    path = tmp_path / "o.txt"
    path.write_text(
        f"chronofuse-observations 1\nranges 1\nrange a|{rng}|\nobservations 0\nend\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedStore, match="reference range"):
        load_observations(path)


# --- canonical order enforced by the loader ---


STORE_HEAD = "chronofuse-table 1\ngranularity day\ncolumns 2\ncol a||||r1,r2\ncol b||||r1\n"


def write_store(tmp_path, rows):
    path = tmp_path / "t.txt"
    body = "".join(f"row {row}\n" for row in rows)
    path.write_text(f"{STORE_HEAD}rows {len(rows)}\n{body}end\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "rows, message",
    [
        (["2021-01-02|a=1.0@r1", "2021-01-01|a=2.0@r1"], "row 2021-01-01 comes after row 2021-01-02"),
        (["2021-01-01|a=1.0@r1", "2021-01-01|b=2.0@r1"], "duplicate row"),
        (["2021-01-01|b=1.0@r1|a=2.0@r1"], "cell for metric 'a' comes after 'b'"),
        (["2021-01-01|a=1.0@r1|a=2.0@r1"], "duplicate cell"),
        (["2021-01-01|a=1.0@r2;2.0@r1"], "not sorted by"),
        (["2021-01-01|a=2.0@r1;1.0@r1"], "not sorted by"),
        (["2021-01-01|a=1.0@r1|c=2.0@r1"], "cell for metric 'c' has no col record"),
    ],
    ids=["rows-reversed", "rows-duplicate", "metrics-unsorted", "metrics-duplicate",
         "entries-unsorted-source", "entries-unsorted-value", "metric-without-column"],
)
def test_store_rejects_non_canonical_order(tmp_path, rows, message):
    with pytest.raises(MalformedStore, match=message):
        load_table(write_store(tmp_path, rows))


@pytest.mark.parametrize(
    "rows, message",
    [
        (["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02"], "row 2021-01-02 has no cells"),
        (["2021-01-01|a=1.0@r1|b=3.0@r1"], r"col 'a' names sources \['r1', 'r2'\]"),
        (["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1;4.0@r3"], "col 'b' names sources"),
        (["2021-01-01|a=1.0@r1;2.0@r2"], r"col 'b' names sources \['r1'\], its cells come from \[\]"),
        (["2021-01-01|a=0.0@r1;-0.0@r1;2.0@r2|b=3.0@r1"], "not sorted by"),
    ],
    ids=["row-without-cells", "column-source-without-cells", "cell-source-without-column",
         "column-without-cells", "entries-unsorted-sign"],
)
def test_store_rejects_what_the_savers_cannot_write(tmp_path, rows, message):
    with pytest.raises(MalformedStore, match=message):
        load_table(write_store(tmp_path, rows))


def test_store_accepts_equal_cell_entries(tmp_path):
    table = load_table(write_store(tmp_path, ["2021-01-01|a=1.0@r1;1.0@r1;1.0@r2|b=3.0@r1"]))
    assert next(iter(table.rows.values()))["a"].values == (1.0, 1.0, 1.0)


# --- fusion invariants on generated observations ---


def store_bytes(table) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        save_table(table, path)
        return path.read_bytes()


DAY0 = dt.date(2021, 1, 1)
# days per slice step, so that offsets 2k * step fall in slices with gaps between them
STEP = {Granularity.DAY: 1, Granularity.WEEK: 7, Granularity.MONTH: 31}
UNITS = {"a": "mg/dL", "b": "%", "new": "mmol/L"}
RANGES = {"a": RefRange(70.0, 140.0, "mg/dL"), "new": RefRange(0.0, 1.0, "mmol/L")}


@st.composite
def observation_at(draw, offset, metrics=("a", "b", "c")):
    metric = draw(st.sampled_from(metrics))
    date = DAY0 + dt.timedelta(days=offset)
    minute = draw(st.none() | st.times().map(lambda t: t.replace(second=0, microsecond=0)))
    return Observation(
        metric=metric,
        value=draw(st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)),
        unit=draw(st.sampled_from(["", UNITS.get(metric, "")])),
        time=TimePoint.day(date) if minute is None else TimePoint.minute(date, minute),
        source=draw(st.sampled_from(["r1", "r2", "r3"])),
    )


@st.composite
def base_and_additions(draw):
    """Observations A, and B with slices before, inside, between and after A's."""
    granularity = draw(st.sampled_from(list(Granularity)))
    step = STEP[granularity]
    base_offsets = st.integers(10, 40).map(lambda k: 2 * k * step)
    base = draw(st.lists(base_offsets.flatmap(observation_at), min_size=1, max_size=12))
    first = min(o.time.date for o in base)
    any_offset = st.integers(0, 100 * step)
    metrics = ("a", "b", "c", "new", "z")
    additions = draw(st.lists(any_offset.flatmap(lambda d: observation_at(d, metrics)), max_size=8))
    inside = draw(st.sampled_from(base)).time.date
    for offset in (
        draw(st.integers(0, 10 * step)),  # before
        (inside - DAY0).days,  # inside
        (first - DAY0).days + step,  # between, when A has a later slice
        draw(st.integers(90 * step, 100 * step)),  # after
    ):
        additions.append(draw(observation_at(offset)))
    additions.append(draw(observation_at(draw(any_offset), ("new",))))
    mirrored = draw(st.sampled_from(base))  # negated: a zero reading gives a signed-zero pair
    additions.append(replace(mirrored, value=-mirrored.value))
    return granularity, base, additions


@settings(max_examples=100, deadline=None)
@given(base_and_additions())
def test_add_report_equals_fusing_the_union(case):
    granularity, base, additions = case
    table, _ = fuse(base, granularity, ranges=RANGES)
    before = store_bytes(table)
    added = add_report(table, additions, ranges=RANGES)
    expected, _ = fuse(base + additions, granularity, ranges=RANGES)
    assert added == expected
    assert all(list(row) == sorted(row) for row in added.rows.values())
    assert store_bytes(added) == store_bytes(expected)
    # the result shares rows with its input, which must stay as it was
    assert store_bytes(table) == before


@settings(max_examples=100, deadline=None)
@given(base_and_additions(), st.sampled_from([Granularity.WEEK, Granularity.MONTH]))
def test_rebucket_equals_fusing_at_the_coarser_granularity(case, granularity):
    _, base, additions = case
    observations = base + additions
    daily, _ = fuse(observations, Granularity.DAY, ranges=RANGES)
    coarse, _ = fuse(observations, granularity, ranges=RANGES)
    rebucketed = rebucket(daily, granularity)
    assert rebucketed == coarse
    assert list(rebucketed.rows) == list(coarse.rows)  # chronological, like fuse


@settings(max_examples=100, deadline=None)
@given(base_and_additions(), st.randoms(use_true_random=False))
def test_fuse_is_independent_of_observation_order(case, rng):
    granularity, base, additions = case
    observations = base + additions
    expected = fuse(observations, granularity)
    rng.shuffle(observations)
    assert fuse(observations, granularity) == expected


@settings(max_examples=100, deadline=None)
@given(base_and_additions(), st.randoms(use_true_random=False))
def test_fusion_saves_the_same_bytes_in_any_order(case, rng):
    # tables compare -0.0 equal to 0.0, so order independence is checked on the saved bytes
    granularity, base, additions = case
    observations = base + additions
    expected = store_bytes(fuse(observations, granularity)[0])
    rng.shuffle(observations)
    assert store_bytes(fuse(observations, granularity)[0]) == expected
    daily, _ = fuse(observations, Granularity.DAY)
    assert store_bytes(rebucket(daily, granularity)) == expected


@settings(max_examples=100, deadline=None)
@given(base_and_additions(), st.data())
def test_appends_through_the_store_save_the_same_bytes_as_one_fuse(case, data):
    granularity, base, additions = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(additions)), max_size=3)))
    batches = [additions[i:j] for i, j in zip([0, *cuts], [*cuts, len(additions)])]
    # the same slices with every value negated: other cells, and 0.0 wherever an append has -0.0
    negated = [replace(o, value=-o.value) for o in base + additions]
    with tempfile.TemporaryDirectory() as tmp:
        path, other = Path(tmp) / "table.txt", Path(tmp) / "other.txt"
        save_table(fuse(base, granularity, ranges=RANGES)[0], path)
        save_table(fuse(negated, granularity)[0], other)
        table = load_table(path)
        fused = list(base)
        for batch in batches:
            if data.draw(st.booleans(), label="unrelated store in between"):
                save_table(load_table(other), other)
            if data.draw(st.booleans(), label="reload"):
                table = load_table(path)
            table = add_report(table, batch, ranges=RANGES)
            save_table(table, path)
            fused += batch
            assert path.read_bytes() == store_bytes(fuse(fused, granularity, ranges=RANGES)[0])


def negate_zeros(rows, ts, metric, fused):
    """Swap a cell for an equal one with -0.0 for each 0.0; the observations the rows now hold."""
    rows[ts][metric] = Cell(tuple(CellEntry(-0.0 if e.value == 0.0 else e.value, e.source)
                                  for e in rows[ts][metric].entries))
    return [replace(o, value=-0.0) if (o.time.date, o.metric, o.value) == (ts.start_date, metric, 0.0)
            else o for o in fused]


def add_metric(rows, ts, metric, fused):
    name = next(f"d{k}" for k in itertools.count() if f"d{k}" not in rows[ts])
    new = Observation(name, -0.0, "", TimePoint.day(ts.start_date), "r1")
    rows[ts][new.metric] = Cell((CellEntry(new.value, new.source),))
    return [*fused, new]


def delete_row(rows, ts, metric, fused):
    del rows[ts]
    return [o for o in fused if o.time.date != ts.start_date]


def move_to_another_day(rows, ts, metric, fused):
    """Move the cell object to the first other day of its week and month whose row lacks the metric."""
    day = ts.start_date
    week = (day + dt.timedelta(days=k - day.weekday()) for k in range(7))
    target = next((d for d in week if d != day and d.month == day.month
                   and metric not in rows.get(slice_for(TimePoint.day(d), Granularity.DAY), {})), None)
    if target is None:
        return fused
    rows.setdefault(slice_for(TimePoint.day(target), Granularity.DAY), {})[metric] = rows[ts].pop(metric)
    if not rows[ts]:
        del rows[ts]
    return [replace(o, time=replace(o.time, date=target)) if (o.time.date, o.metric) == (day, metric)
            else o for o in fused]


def move_to_another_metric(rows, ts, metric, fused):
    """Put the cell object under a metric no row has, in the same place of its row."""
    name = next(f"m{k}" for k in itertools.count() if not any(f"m{k}" in row for row in rows.values()))
    rows[ts] = {name if m == metric else m: c for m, c in rows[ts].items()}
    return [replace(o, metric=name) if (o.time.date, o.metric) == (ts.start_date, metric) else o
            for o in fused]


ROW_EDITS = {"negative zero": negate_zeros, "new metric": add_metric, "delete row": delete_row,
             "move day": move_to_another_day, "move metric": move_to_another_metric}


@settings(max_examples=100, deadline=None)
@given(base_and_additions(), st.sampled_from([Granularity.WEEK, Granularity.MONTH]), st.data())
def test_rebucket_after_appends_reloads_and_edits_saves_the_same_bytes_as_one_fuse(case, granularity, data):
    _, base, additions = case
    # the same days with every value negated: other cells in the same output slices
    unrelated, _ = fuse([replace(o, value=-o.value) for o in base + additions], Granularity.DAY)
    steps = st.sampled_from(["append", "unrelated rebucket", "other store", *sorted(ROW_EDITS)])
    with tempfile.TemporaryDirectory() as tmp:
        path, other = Path(tmp) / "table.txt", Path(tmp) / "other.txt"
        save_table(fuse(base, Granularity.DAY, ranges=RANGES)[0], path)
        save_table(unrelated, other)
        table, fused = load_table(path), list(base)
        for step in data.draw(st.lists(steps, min_size=1, max_size=8), label="steps"):
            if step == "append":
                batch = data.draw(st.lists(st.sampled_from(additions), min_size=1, max_size=4))
                table = add_report(load_table(path), batch, ranges=RANGES)
                save_table(table, path)
                fused += batch
            elif step == "unrelated rebucket":
                rebucket(unrelated, data.draw(st.sampled_from([Granularity.WEEK, Granularity.MONTH])))
            elif step == "other store":
                load_table(other)
            elif fused:  # edit one row of the table, keep its columns whole, save it
                if data.draw(st.booleans(), label="reload"):  # else keep the cells rebucket last saw
                    table = load_table(path)
                rows = {ts: dict(row) for ts, row in table.rows.items()}
                ts = data.draw(st.sampled_from(list(rows)), label="row")
                metric = data.draw(st.sampled_from(sorted(rows[ts])), label="metric")
                fused = ROW_EDITS[step](rows, ts, metric, fused)
                columns = fuse(fused, Granularity.DAY, ranges=RANGES)[0].columns
                # a moved cell may add a row out of date order
                rows = dict(sorted(rows.items(), key=lambda item: item[0].start_date))
                table = replace(table, columns=columns, rows=rows)
                save_table(table, path)
            expected = store_bytes(fuse(fused, granularity, ranges=RANGES)[0])
            assert store_bytes(rebucket(table, granularity)) == expected


def test_rebucket_rows_stay_the_callers():
    observations = [obs("a", 1.0, "2021-01-04"), obs("a", 0.0, "2021-01-05"),
                    obs("b", 2.0, "2021-01-05", source="r2"), obs("a", 3.0, "2021-01-11")]
    daily, _ = fuse(observations, Granularity.DAY)
    same_cells = replace(daily, rows={ts: dict(row) for ts, row in daily.rows.items()})
    weekly = rebucket(daily, Granularity.WEEK)
    expected = repr(fuse(observations, Granularity.WEEK)[0].rows)  # repr tells -0.0 from 0.0
    assert repr(weekly.rows) == expected
    for row in weekly.rows.values():  # the returned rows are the caller's to change
        row["a"] = cell((9.0, "r1"))
    row = daily.rows[slice_for(tp("2021-01-05"), Granularity.DAY)]  # and so are the input's
    row["a"] = cell((-0.0, "r1"))
    del row["b"]
    assert repr(rebucket(same_cells, Granularity.WEEK).rows) == expected
    edited = [obs("a", 1.0, "2021-01-04"), obs("a", -0.0, "2021-01-05"), obs("a", 3.0, "2021-01-11")]
    assert repr(rebucket(daily, Granularity.WEEK).rows) == repr(fuse(edited, Granularity.WEEK)[0].rows)
    assert repr(rebucket(same_cells, Granularity.WEEK).rows) == expected


# Valid files, and one token or line changed to a form their saver never writes.
STORE = STORE_HEAD + "rows 1\nrow 2021-01-04|a=1.1@r1;2.0@r2|b=10.0@r1\nend\n"
ARCHIVE = ("chronofuse-observations 1\nranges 1\nrange a|1.0..2.0|\nobservations 2\n"
           "obs r1|a|1.5||2021-01-05 09:05|\nobs r2|a|2.5||2021-01-06|out_of_range,unit_mismatch\nend\n")
NOT_WRITTEN = {
    "store-value-trailing-zero": ("store", "a=1.1@", "a=1.10@"),
    "store-value-plus": ("store", "a=1.1@", "a=+1.1@"),
    "store-value-space": ("store", "a=1.1@", "a= 1.1@"),
    "store-value-exponent": ("store", "a=1.1@", "a=1.1e0@"),
    "store-value-underscore": ("store", "b=10.0@", "b=1_0@"),
    "store-date-basic": ("store", "row 2021-01-04", "row 20210104"),
    "store-date-iso-week": ("store", "row 2021-01-04", "row 2021-W01-1"),
    "store-count-leading-zero": ("store", "columns 2", "columns 02"),
    "store-sources-unsorted": ("store", "|r1,r2\n", "|r2,r1\n"),
    "store-sources-duplicate": ("store", "col b||||r1\n", "col b||||r1,r1\n"),
    "store-sources-empty-item": ("store", "col b||||r1\n", "col b||||r1,,r1\n"),
    "store-header-tab": ("store", "chronofuse-table 1", "chronofuse-table\t1"),
    "store-crlf": ("store", "\n", "\r\n"),
    "store-no-final-newline": ("store", "end\n", "end"),
    "store-after-end": ("store", "end\n", "end\n\n"),
    "store-byte-order-mark": ("store", "chronofuse-table 1", "\ufeffchronofuse-table 1"),
    "store-version-leading-zero": ("store", "chronofuse-table 1", "chronofuse-table 01"),
    "store-unit-reserved": ("store", "col b||||r1\n", "col b|m@g|||r1\n"),
    "store-report-id-reserved": ("store", "r2", "r=2"),
    "store-range-unit-without-range": ("store", "col b||||r1\n", "col b|||mg|r1\n"),
    "store-col-duplicate": ("store", "columns 2\n", "columns 3\ncol b||||r1\n"),
    "archive-value-trailing-zero": ("archive", "|1.5|", "|1.50|"),
    "archive-time-short": ("archive", "09:05", "9:5"),
    "archive-time-underscore": ("archive", "09:05", "0_9:05"),
    "archive-time-seconds": ("archive", "09:05", "09:05:00"),
    "archive-date-basic": ("archive", "2021-01-05", "20210105"),
    "archive-flags-unsorted": ("archive", "out_of_range,unit_mismatch", "unit_mismatch,out_of_range"),
    "archive-flags-empty-item": ("archive", "out_of_range,unit_mismatch", "out_of_range,,out_of_range"),
    "archive-byte-order-mark": ("archive", "chronofuse-observations 1", "\ufeffchronofuse-observations 1"),
    "archive-after-end": ("archive", "end\n", "end\nend\n"),
    "archive-ranges-duplicate": ("archive", "ranges 1\nrange a|1.0..2.0|\n",
                                 "ranges 2\nrange a|1.0..2.0|\nrange a|1.0..3.0|\n"),
    "archive-ranges-unsorted": ("archive", "ranges 1\nrange a|1.0..2.0|\n",
                                "ranges 2\nrange b|1.0..2.0|\nrange a|1.0..2.0|\n"),
    "archive-unit-reserved": ("archive", "obs r1|a|1.5||", "obs r1|a|1.5|m;g|"),
}


def load_text(kind, text, tmp_path):
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(text.encode("utf-8"))
    return load_table(path) if kind == "store" else load_observations(path)


@pytest.mark.parametrize("case", sorted(NOT_WRITTEN))
def test_loaders_accept_only_what_the_savers_write(tmp_path, case):
    kind, old, new = NOT_WRITTEN[case]
    valid = {"store": STORE, "archive": ARCHIVE}[kind]
    load_text(kind, valid, tmp_path)
    assert old in valid
    with pytest.raises(MalformedStore):
        load_text(kind, valid.replace(old, new), tmp_path)


# Both loaders check their `<magic> <version>` line through the same reader.
@pytest.mark.parametrize("kind, text, error, message", [
    ("store", "chronofuse-table 99\nend\n", VersionMismatch,
     "store.txt: unsupported table store version '99'"),
    ("archive", "chronofuse-observations 99\nend\n", VersionMismatch,
     "archive.txt: unsupported observation archive version '99'"),
    ("store", ARCHIVE, MalformedStore, "store.txt: not a chronofuse table store"),
    ("archive", STORE, MalformedStore, "archive.txt: not a chronofuse observation archive"),
], ids=["store-version", "archive-version", "store-given-archive", "archive-given-store"])
def test_loaders_check_the_header_line(tmp_path, kind, text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        load_text(kind, text, tmp_path)


def test_a_negative_zero_cell_replacing_an_equal_loaded_one_is_saved(tmp_path):
    path = write_store(tmp_path, ["2021-01-01|a=0.0@r1;1.0@r2|b=0.0@r1"])
    table = load_table(path)
    save_table(table, path)
    row = next(iter(table.rows.values()))
    row["b"] = Cell((CellEntry(-0.0, "r1"),))
    assert row["b"] == Cell((CellEntry(0.0, "r1"),))
    save_table(table, path)
    assert "row 2021-01-01|a=0.0@r1;1.0@r2|b=-0.0@r1\n" in path.read_text(encoding="utf-8")


EDITS = {
    "replace": (lambda row: row.__setitem__("a", Cell((CellEntry(5.0, "r1"),))),
                "row 2021-01-01|a=5.0@r1|b=3.0@r1\n"),
    "add": (lambda row: row.__setitem__("b", Cell((CellEntry(4.0, "r1"),))),
            "row 2021-01-02|a=2.0@r2|b=4.0@r1\n"),
    "delete": (lambda row: row.pop("b"), "row 2021-01-01|a=1.0@r1\n"),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_editing_a_loaded_row_shows_in_the_next_save(tmp_path, edit):
    change, line = EDITS[edit]
    path = write_store(tmp_path, ["2021-01-01|a=1.0@r1|b=3.0@r1", "2021-01-02|a=2.0@r2",
                                  "2021-01-03|a=6.0@r1|b=7.0@r1"])
    table = load_table(path)
    save_table(table, path)
    row = table.rows[next(ts for ts in table.rows if ts.start_date.isoformat() == line[4:14])]
    change(row)
    save_table(table, path)
    assert line in path.read_text(encoding="utf-8")
    assert load_table(path) == table


def test_a_failed_save_does_not_change_the_next_one(tmp_path):
    rows = ["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02|a=-0.0@r1"]
    path = write_store(tmp_path, rows)
    expected = path.read_bytes()
    table = load_table(path)
    reserved = replace(table, columns=(*table.columns, ColumnDescriptor("c|d")))
    with pytest.raises(ValueError):
        save_table(reserved, path)
    directory = tmp_path / "dir"
    directory.mkdir()
    with pytest.raises(OutputWriteError):
        save_table(table, directory)
    save_table(table, path)
    assert path.read_bytes() == expected
    with pytest.raises(OutputWriteError):
        save_table(table, directory)
    next(iter(table.rows.values()))["b"] = Cell((CellEntry(-0.0, "r1"),))
    save_table(table, path)
    assert path.read_bytes() == expected.replace(b"b=3.0@r1", b"b=-0.0@r1")


def test_signed_zeros_from_one_source_save_negative_first():
    readings = [obs("a", -0.0, "2021-01-05"), obs("a", 0.0, "2021-01-04")]
    for ordered in (readings, readings[::-1]):
        table, _ = fuse(ordered, Granularity.WEEK)
        assert b"row 2021-01-04|a=-0.0@r1;0.0@r1\n" in store_bytes(table)


# --- atomic writes ---


def test_save_ignores_a_stale_temp_name(tmp_path, weekly_table):
    path = tmp_path / "table.txt"
    (tmp_path / "table.txt.tmp").mkdir()  # a fixed temp name would collide with this
    save_table(weekly_table, path)
    assert load_table(path) == weekly_table


def test_failed_save_leaves_no_temp_file(tmp_path):
    table, _ = fuse([obs("\udc80", 1.0, "2021-01-01")])  # not encodable as UTF-8
    with pytest.raises(UnicodeEncodeError):
        save_table(table, tmp_path / "t.txt")
    assert list(tmp_path.iterdir()) == []


def test_save_onto_a_directory_names_the_path_and_leaves_no_temp_file(tmp_path, weekly_table):
    target = tmp_path / "t.txt"
    target.mkdir()
    with pytest.raises(OutputWriteError, match=f"cannot write {re.escape(str(target))}: "):
        save_table(weekly_table, target)
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("mask", [0o022, 0o077], ids=oct)
def test_saved_files_have_the_default_mode_and_the_umask_is_left_alone(tmp_path, monkeypatch, mask,
                                                                        weekly_table):
    # reading the umask means setting it, which races with every other thread's file creation
    def umask(_):
        raise AssertionError("os.umask called")

    set_umask = os.umask
    previous = set_umask(mask)
    try:
        monkeypatch.setattr(os, "umask", umask)
        save_table(weekly_table, tmp_path / "t.txt")
        save_observations([obs("a", 1.5, "2021-01-01")], tmp_path / "o.txt")
    finally:
        set_umask(previous)
    for name in ("t.txt", "o.txt"):  # 0o644 under 0o022: what a plain write gives
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~mask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.txt", "t.txt"]


# --- counts and tokens outside the grammar ---


def test_store_rejects_a_non_ascii_count(tmp_path):
    # '²'.isdigit() holds, but int('²') raises ValueError
    path = tmp_path / "t.txt"
    path.write_text("chronofuse-table 1\ngranularity day\ncolumns ²\nend\n", encoding="utf-8")
    with pytest.raises(MalformedStore, match="expected integer columns count"):
        load_table(path)


def test_archive_rejects_a_non_ascii_count(tmp_path):
    from chronofuse import load_observations

    path = tmp_path / "o.txt"
    path.write_text("chronofuse-observations 1\nranges ²\nend\n", encoding="utf-8")
    with pytest.raises(MalformedStore, match="expected integer ranges count"):
        load_observations(path)


@pytest.mark.parametrize(
    "observation, ranges",
    [
        (obs("a\rb", 1.0, "2021-01-01"), {}),
        (obs("a", 1.0, "2021-01-01", unit="mg\u2028dL"), {}),
        (obs("a", 1.0, "2021-01-01", source=""), {}),
        (obs("a", 1.0, "2021-01-01", source="r1,r2"), {}),
        (obs("a", 1.0, "2021-01-01"), {"a": RefRange(0.0, 1.0, "mg|dL")}),
    ],
    ids=["metric-line-break", "unit-line-break", "empty-report-id", "comma-report-id",
         "range-unit-separator"],
)
def test_save_table_refuses_what_load_table_cannot_read(tmp_path, observation, ranges):
    table, _ = fuse([observation], ranges=ranges)
    with pytest.raises(ValueError):
        save_table(table, tmp_path / "t.txt")
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize(
    "observation, ranges",
    [
        (obs("a\x85b", 1.0, "2021-01-01"), {}),
        (obs("a", 1.0, "2021-01-01"), {"a|b": RefRange(0.0, 1.0)}),
        (obs("a", 1.0, "2021-01-01"), {"a": RefRange(0.0, 1.0, "mg\rdL")}),
        (obs("a", float("inf"), "2021-01-01"), {}),
        # isoformat writes 2021-01-04T10:30:00, which the loader rejects
        (replace(obs("a", 1.0, "2021-01-01"), time=TimePoint.day(dt.datetime(2021, 1, 4, 10, 30))), {}),
        (replace(obs("a", 1.0, "2021-01-01"),
                 time=TimePoint.minute(dt.datetime(2021, 1, 4, 10, 30), dt.time(10, 30))), {}),
        # isoformat writes 10:30, which loads back as another time
        (replace(obs("a", 1.0, "2021-01-01"),
                 time=TimePoint.minute(dt.date(2021, 1, 4), dt.time(10, 30, 15))), {}),
        (replace(obs("a", 1.0, "2021-01-01"),
                 time=TimePoint.minute(dt.date(2021, 1, 4), dt.time(10, 30, tzinfo=dt.timezone.utc))), {}),
    ],
    ids=["metric-line-break", "range-metric-separator", "range-unit-line-break",
         "non-finite-value", "datetime-day", "datetime-minute", "time-with-seconds",
         "time-with-tzinfo"],
)
def test_save_observations_refuses_what_load_observations_cannot_read(tmp_path, observation, ranges):
    from chronofuse import save_observations

    with pytest.raises(ValueError):
        save_observations([observation], tmp_path / "o.txt", ranges=ranges)
    assert not (tmp_path / "o.txt").exists()


def test_save_observations_names_the_time_point_it_refuses(tmp_path):
    good = obs("a", 1.0, "2021-01-01")
    for time, message in [
        (TimePoint.day(dt.datetime(2021, 1, 4, 10, 30)),
         r"observation date datetime.datetime\(2021, 1, 4, 10, 30\) is not a date"),
        (TimePoint.minute(dt.date(2021, 1, 4), dt.time(10, 30, 0, 5)),
         r"observation time of day datetime.time\(10, 30, 0, 5\) is not a whole minute"),
    ]:
        with pytest.raises(ValueError, match=message):
            save_observations([good, replace(good, time=time)], tmp_path / "o.txt")
        assert not (tmp_path / "o.txt").exists()


# --- save_table refuses what load_table would reject ---


def hand_table(rows, granularity=Granularity.DAY, columns=None):
    """A table built without fuse: rows maps dates to {metric: [(value, source), ...]}.

    `columns` maps each metric to its sources; by default, the sources of its cells.
    """
    built = {slice_for(tp(day), granularity): {metric: cell(*entries) for metric, entries in cells.items()}
             for day, cells in rows.items()}
    if columns is None:
        columns = {}
        for cells in rows.values():
            for metric, entries in cells.items():
                columns.setdefault(metric, set()).update(source for _, source in entries)
    descriptors = tuple(ColumnDescriptor(metric, source_reports=frozenset(columns[metric]))
                        for metric in sorted(columns))
    return TemporalTable(granularity, descriptors, built)


def assert_refused(tmp_path, table, error, message):
    with pytest.raises(error, match=message):
        save_table(table, tmp_path / "t.txt")
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_save_table_refuses_a_non_finite_cell_value(tmp_path, bad):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")]}, "2021-01-02": {"a": [(bad, "r1")]}})
    assert_refused(tmp_path, table, NonFiniteValue, r"non-finite value for a from r1 in slice 2021-01-02")


@pytest.mark.parametrize("entries", [[(1.0, "r2"), (2.0, "r1")], [(2.0, "r1"), (1.0, "r1")],
                                     [(0.0, "r1"), (-0.0, "r1")]], ids=["source", "value", "sign"])
def test_save_table_refuses_cell_entries_out_of_canonical_order(tmp_path, entries):
    table = hand_table({"2021-01-01": {"a": entries}})
    assert_refused(tmp_path, table, ValueError, r"slice 2021-01-01 metric 'a' has cell entries not sorted")


def test_save_table_refuses_a_row_without_cells(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")]}, "2021-01-02": {}})
    assert_refused(tmp_path, table, ValueError, r"slice 2021-01-02 has no cells")


def test_save_table_refuses_a_cell_source_its_column_does_not_list(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1"), (2.0, "r2")]}}, columns={"a": {"r1"}})
    assert_refused(tmp_path, table, ValueError, r"slice 2021-01-01 metric 'a' has report id 'r2'")


def test_save_table_refuses_a_cell_without_a_column(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")], "b": [(2.0, "r1")]}}, columns={"a": {"r1"}})
    assert_refused(tmp_path, table, ValueError, r"slice 2021-01-01 metric 'b' has no column")


def test_save_table_refuses_rows_out_of_date_order(tmp_path):
    table = hand_table({"2021-01-02": {"a": [(1.0, "r1")]}, "2021-01-01": {"a": [(2.0, "r1")]}})
    assert_refused(tmp_path, table, ValueError, r"row 2021-01-01 comes after row 2021-01-02")


def test_save_table_refuses_a_slice_of_another_granularity(tmp_path):
    table = hand_table({"2021-01-04": {"a": [(1.0, "r1")]}}, Granularity.WEEK)
    table.rows[slice_for(tp("2021-01-05"), Granularity.DAY)] = {"a": cell((2.0, "r1"))}
    assert_refused(tmp_path, table, ValueError, r"slice 2021-01-05 is a day slice in a week table")


def test_save_table_checks_the_rows_edited_since_the_load(tmp_path):
    path = write_store(tmp_path, ["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02|a=4.0@r1"])
    before = path.read_bytes()
    table = load_table(path)
    save_table(table, path)
    next(iter(table.rows.values()))["a"] = cell((2.0, "r2"), (1.0, "r1"))
    with pytest.raises(ValueError, match=r"slice 2021-01-01 metric 'a' has cell entries not sorted"):
        save_table(table, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("columns, message", [
    ((ColumnDescriptor("a", source_reports=frozenset({"r1"})), ColumnDescriptor("b", source_reports=frozenset({"r1"}))),
     r"slice 2021-01-01 metric 'a' has report id 'r2'"),
    ((ColumnDescriptor("a", source_reports=frozenset({"r1", "r2"})),), r"slice 2021-01-01 metric 'b' has no column"),
], ids=["narrowed-sources", "dropped-column"])
def test_save_table_checks_unchanged_loaded_rows_against_new_columns(tmp_path, columns, message):
    path = write_store(tmp_path, ["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02|a=4.0@r1"])
    before = path.read_bytes()
    table = load_table(path)
    save_table(table, path)
    with pytest.raises(ValueError, match=message):
        save_table(replace(table, columns=columns), path)
    assert path.read_bytes() == before


def test_save_table_refuses_a_column_naming_a_report_id_no_cell_has(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")]}}, columns={"a": {"r1", "r9"}})
    assert_refused(tmp_path, table, ValueError, r"column 'a' names report ids \['r9'\] that none of its cells has")
    # after a load: the first row is formatted, the second reused
    path = write_store(tmp_path, ["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02|a=4.0@r2"])
    table = load_table(path)
    rows = list(table.rows.values())
    rows[0]["a"] = cell((1.0, "r1"))  # r2 is still in the second row
    save_table(table, path)
    saved = path.read_bytes()
    assert b"row 2021-01-01|a=1.0@r1|b=3.0@r1\nrow 2021-01-02|a=4.0@r2\n" in saved
    rows[1]["a"] = cell((4.0, "r1"))  # and now in no row
    with pytest.raises(ValueError, match=r"column 'a' names report ids \['r2'\]"):
        save_table(table, path)
    assert path.read_bytes() == saved



def test_save_table_after_a_store_switch_refuses_a_column_naming_a_report_id_no_cell_has(tmp_path):
    # the remembered store's column names r2, and so does the new table's, whose cells reuse no
    # remembered row and hold only r1
    path = write_store(tmp_path, ["2021-01-01|a=1.0@r1;2.0@r2|b=3.0@r1", "2021-01-02|a=4.0@r2"])
    load_table(path)
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")], "b": [(3.0, "r1")]}},
                       columns={"a": {"r1", "r2"}, "b": {"r1"}})
    other = tmp_path / "other"
    other.mkdir()
    assert_refused(other, table, ValueError, r"column 'a' names report ids \['r2'\] that none of its cells has")


# --- the savers refuse numbers their loaders would read as another type ---


@pytest.mark.parametrize("value", [1, True], ids=["int", "bool"])
def test_save_table_refuses_a_cell_value_that_is_not_a_float(tmp_path, value):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")]}, "2021-01-02": {"a": [(value, "r1")]}})
    assert_refused(tmp_path, table, ValueError,
                   rf"slice 2021-01-02 metric 'a' has value {value!r} from r1, which is not a float")


@pytest.mark.parametrize("rng", [RefRange(1, 2), RefRange(1.0, 2), RefRange(False, 2.0)],
                         ids=["ints", "int-high", "bool-low"])
def test_savers_refuse_a_reference_range_bound_that_is_not_a_float(tmp_path, rng):
    table, _ = fuse([obs("a", 1.5, "2021-01-01")], ranges={"a": rng})
    assert_refused(tmp_path, table, ValueError, r"reference range bound .* is not a float")
    with pytest.raises(ValueError, match=r"reference range bound .* is not a float"):
        save_observations([obs("a", 1.5, "2021-01-01")], tmp_path / "o.txt", ranges={"a": rng})
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("value", [1, True], ids=["int", "bool"])
def test_save_observations_refuses_a_value_that_is_not_a_float(tmp_path, value):
    with pytest.raises(ValueError, match=rf"value {value!r} for a from r1 is not a float"):
        save_observations([obs("a", 1.5, "2021-01-01"), obs("a", value, "2021-01-02")],
                          tmp_path / "o.txt")
    assert not (tmp_path / "o.txt").exists()


def test_save_table_refuses_a_slice_start_that_is_not_a_date(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1")]}})
    start = TimePoint.day(dt.datetime(2021, 1, 2))  # isoformat would write 2021-01-02T00:00:00
    table.rows[replace(next(iter(table.rows)), start=start)] = {"a": cell((2.0, "r1"))}
    assert_refused(tmp_path, table, ValueError, r"slice start datetime.datetime\(2021, 1, 2, 0, 0\) is not a date")


def test_save_table_refuses_a_column_that_comes_twice(tmp_path):
    table = hand_table({"2021-01-01": {"a": [(1.0, "r1"), (2.0, "r2")]}})
    column = table.columns[0]
    # as the loader checks each col record against the cells, the first would not load
    for columns in ((replace(column, source_reports=frozenset({"r1"})), column), (column, column)):
        assert_refused(tmp_path, replace(table, columns=columns), ValueError, r"column 'a' comes twice")
