"""Properties of the text formats on generated input.

Every table and archive that the savers write loads back equal and
re-saves to the same bytes, and the three loaders raise nothing but
ChronofuseError on arbitrary text or on a valid file with one line
mutated; a mutated store or archive that loads re-saves to its own
bytes. What load_table returns for a file does not depend on the store
it loaded or saved before, and what save_table writes does not depend on it
either; neither does what rebucket returns depend on the table it rebucketed
before.
"""

import datetime as dt
import operator
import string
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronofuse import (
    Cell,
    CellEntry,
    ColumnDescriptor,
    Granularity,
    Observation,
    TimePoint,
    extract_observations,
    fuse,
    load_lexicon,
    load_observations,
    load_report,
    load_table,
    rebucket,
    save_observations,
    save_table,
)
from chronofuse.errors import ChronofuseError, MalformedStore, OutputWriteError
from chronofuse.ingest import FLAG_OUT_OF_RANGE, FLAG_UNIT_MISMATCH, RefRange

FIXTURES = Path(__file__).parent / "fixtures"

# Names the store grammar can carry; saving them must succeed.
PLAIN_NAME = st.text(string.ascii_letters + string.digits + "._-/% ", min_size=1, max_size=8)
# Any text: the savers either refuse it with ValueError or write a file that loads back.
ANY_NAME = st.text(max_size=6)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
DATES = st.dates(dt.date(1, 1, 8), dt.date(9999, 12, 1))
# A few weeks: rows with several metrics and cells with several entries.
NEAR_DATES = st.dates(dt.date(2021, 1, 1), dt.date(2021, 2, 28))


@st.composite
def time_points(draw, dates=DATES):
    date = draw(dates)
    if draw(st.booleans()):
        return TimePoint.day(date)
    return TimePoint.minute(date, dt.time(draw(st.integers(0, 23)), draw(st.integers(0, 59))))


@st.composite
def ref_ranges(draw, units):
    low, high = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    return RefRange(low, high, draw(units))


@st.composite
def observation_sets(draw, names, dates=DATES):
    """Observations over a few metrics and sources, and ranges for some of the metrics."""
    metrics = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    units = {metric: draw(st.just("") | names) for metric in metrics}
    sources = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    observations = []
    for _ in range(draw(st.integers(1, 12))):
        metric = draw(st.sampled_from(metrics))
        flags = draw(st.frozensets(st.sampled_from([FLAG_OUT_OF_RANGE, FLAG_UNIT_MISMATCH])))
        observations.append(Observation(
            metric=metric,
            value=draw(st.sampled_from([0.0, -0.0]) | FINITE),
            unit=draw(st.sampled_from(["", units[metric]])),
            time=draw(time_points(dates)),
            source=draw(st.sampled_from(sources)),
            flags=flags,
        ))
    ranged = draw(st.lists(st.sampled_from(metrics), unique=True))
    ranges = {metric: draw(ref_ranges(st.just("") | names)) for metric in ranged}
    return observations, ranges


def saved(save, value, **kwargs) -> bytes | None:
    """The bytes `save` writes for `value`, or None when it refuses with ValueError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        try:
            save(value, path, **kwargs)
        except ValueError:
            return None
        return path.read_bytes()


def reloaded(load, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        path.write_bytes(data)
        return load(path)


# (plain, (observations, ranges)): plain is True when every name is PLAIN_NAME text
NAME_SETS = st.booleans().flatmap(
    lambda plain: st.tuples(st.just(plain), observation_sets(PLAIN_NAME if plain else ANY_NAME))
)
NEAR_NAME_SETS = st.booleans().flatmap(
    lambda plain: st.tuples(st.just(plain),
                            observation_sets(PLAIN_NAME if plain else ANY_NAME, NEAR_DATES))
)


@settings(max_examples=200, deadline=None)
@given(NAME_SETS, st.sampled_from(list(Granularity)))
def test_store_round_trip_is_exact(case, granularity):
    plain, (observations, ranges) = case
    table, _ = fuse(observations, granularity, ranges=ranges)
    data = saved(save_table, table)
    if data is None:
        assert not plain, "the store refused plain names"
        return
    # a load right after the save returns what the save remembered; parse the text instead
    reloaded(load_table, UNRELATED_STORE)
    loaded = reloaded(load_table, data)
    assert loaded == table
    assert saved(save_table, loaded) == data


@settings(max_examples=200, deadline=None)
@given(NAME_SETS)
def test_archive_round_trip_is_exact(case):
    plain, (observations, ranges) = case
    data = saved(save_observations, observations, ranges=ranges)
    if data is None:
        assert not plain, "the archive refused plain names"
        return
    loaded, loaded_ranges = reloaded(load_observations, data)
    assert (loaded, loaded_ranges) == (observations, ranges)
    assert saved(save_observations, loaded, ranges=loaded_ranges) == data


# --- loaders on bad input ---


def _valid_files() -> dict[str, str]:
    lexicon = load_lexicon(FIXTURES / "lexicon.txt")
    observations = []
    for name in ("report_a.txt", "report_b.csv"):
        observations += extract_observations(load_report(FIXTURES / "reports" / name), lexicon)[0]
    return {
        "store": (FIXTURES / "golden" / "table_weekly.txt").read_text(encoding="utf-8"),
        "archive": saved(save_observations, observations, ranges=lexicon.ranges()).decode("utf-8"),
        "lexicon": (FIXTURES / "lexicon.txt").read_text(encoding="utf-8"),
    }


VALID = _valid_files()
LOADERS = {
    "store": lambda data: reloaded(load_table, data),
    "archive": lambda data: reloaded(load_observations, data),
    "lexicon": lambda data: reloaded(load_lexicon, data),
}


def loads_or_names_its_error(kind: str, data: bytes) -> None:
    try:
        LOADERS[kind](data)
    except ChronofuseError:
        pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_files_load(kind):
    LOADERS[kind](VALID[kind].encode("utf-8"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LOADERS)), st.text())
def test_loaders_raise_only_chronofuse_errors_on_arbitrary_text(kind, text):
    loads_or_names_its_error(kind, text.encode("utf-8"))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["store", "archive", "lexicon"]), st.binary())
def test_file_loaders_raise_only_chronofuse_errors_on_arbitrary_bytes(kind, data):
    loads_or_names_its_error(kind, data)


@st.composite
def mutated_line(draw, line: str) -> list[str]:
    """Zero, one or two lines in place of `line`."""
    how = draw(st.sampled_from(["text", "delete", "duplicate", "char", "cut", "count"]))
    if how == "text":
        return [draw(st.text())]
    if how == "delete":
        return []
    if how == "duplicate":
        return [line, line]
    if how == "count":  # a keyword line keeps its keyword and gets another argument
        argument = st.sampled_from(["²", "٣", "-1", "+1", " 1", "1.5"]) | st.text(max_size=3)
        return [f"{line.partition(' ')[0]} {draw(argument)}"]
    at = draw(st.integers(0, len(line)))
    if how == "cut":
        return [line[:at]]
    # no surrogates: a UTF-8 file cannot hold them (st.text() excludes them too)
    return [line[:at] + draw(st.characters(exclude_categories=("Cs",))) + line[at + 1:]]


# What the savers write for what each loader returns.
RESAVERS = {
    "store": lambda table: saved(save_table, table),
    "archive": lambda loaded: saved(save_observations, loaded[0], ranges=loaded[1]),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(VALID)), st.data())
def test_loaders_raise_only_chronofuse_errors_on_one_mutated_line(kind, data):
    lines = VALID[kind].splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at:at + 1] = data.draw(mutated_line(lines[at]))
    mutated = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        loaded = LOADERS[kind](mutated)
    except ChronofuseError:
        return
    # a file that loads is one its saver writes: saving what it holds gives its bytes back
    if kind in RESAVERS:
        assert RESAVERS[kind](loaded) == mutated


# --- load_table remembers the rows of the last store it loaded ---


def load_outcome(data: bytes):
    """The table load_table reads from `data`, or the class and message of its error."""
    try:
        return reloaded(load_table, data)
    except ChronofuseError as exc:
        return type(exc), str(exc)


def _unrelated_store() -> bytes:
    """The fixture reports fused by day: no row line in common with VALID["store"]."""
    observations, ranges = reloaded(load_observations, VALID["archive"].encode("utf-8"))
    return saved(save_table, fuse(observations, Granularity.DAY, ranges=ranges)[0])


UNRELATED_STORE = _unrelated_store()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_store_loads_the_same_whatever_was_loaded_before(data):
    lines = VALID["store"].splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at:at + 1] = data.draw(mutated_line(lines[at]))
    mutated = ("\n".join(lines) + "\n").encode("utf-8")
    outcomes = []
    for before in (VALID["store"].encode("utf-8"), UNRELATED_STORE, mutated):
        load_outcome(before)
        outcomes.append(load_outcome(mutated))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


# Tables no fuse builds, each edit with whether save_table must refuse the table it gives.
def _with_rows(table, rows):
    return replace(table, rows={ts: dict(row) for ts, row in rows})


def _one_cell(table, data):
    ts = data.draw(st.sampled_from(list(table.rows)), label="row")
    return ts, data.draw(st.sampled_from(sorted(table.rows[ts])), label="metric")


def _int_value(table, data):
    ts, metric = _one_cell(table, data)
    rows = _with_rows(table, table.rows.items()).rows
    entries = rows[ts][metric].entries  # the value's type is refused before the entry order
    value = data.draw(st.sampled_from([0, 1, -3, True, False]), label="value")
    rows[ts][metric] = Cell((CellEntry(value, entries[0].source), *entries[1:]))
    return replace(table, rows=rows)


def _negative_zero(table, data):
    ts, metric = _one_cell(table, data)
    rows = _with_rows(table, table.rows.items()).rows
    rows[ts][metric] = Cell((CellEntry(-0.0, rows[ts][metric].entries[0].source),))
    sources = {metric: set() for metric in table.metrics}  # the column keeps only what its cells have
    for row in rows.values():
        for name, cell in row.items():
            sources[name].update(entry.source for entry in cell.entries)
    return replace(table, rows=rows, columns=tuple(
        replace(c, source_reports=frozenset(sources[c.metric])) for c in table.columns))


def _int_bounds(table, data):
    at = data.draw(st.integers(0, len(table.columns) - 1), label="column")
    low = data.draw(st.integers(-5, 5), label="low")
    columns = list(table.columns)
    columns[at] = replace(columns[at], reference_range=RefRange(low, low + data.draw(
        st.sampled_from([1, 2.5]), label="width")))
    return replace(table, columns=tuple(columns))


def _never(table):
    return False


def _always(table):
    return True


TABLE_EDITS = {
    "none": (lambda table, data: table, _never),
    "columns reversed": (lambda table, data: replace(table, columns=table.columns[::-1]), _never),
    "a column twice": (lambda table, data: replace(
        table, columns=(*table.columns, data.draw(st.sampled_from(table.columns)))), _always),
    "row keys reversed": (lambda table, data: _with_rows(
        table, ((ts, dict(reversed(row.items()))) for ts, row in table.rows.items())), _never),
    "rows reversed": (lambda table, data: _with_rows(table, reversed(table.rows.items())),
                      lambda table: len(table.rows) > 1),
    "negative zero": (_negative_zero, _never),
    "int or bool value": (_int_value, _always),
    "int range bounds": (_int_bounds, _always),
}


@settings(max_examples=300, deadline=None)
@given(NAME_SETS | NEAR_NAME_SETS, st.sampled_from(list(Granularity)),
       st.sampled_from(sorted(TABLE_EDITS)), st.data())
def test_a_load_after_a_save_equals_a_load_that_parses(case, granularity, edit, data):
    plain, (observations, ranges) = case
    change, must_refuse = TABLE_EDITS[edit]
    table = change(fuse(observations, granularity, ranges=ranges)[0], data)
    refused = must_refuse(table)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.txt"
        try:
            save_table(table, path)
        except ValueError:
            assert refused or not plain, f"save_table refused a table with {edit}"
            return
        assert not refused, f"save_table wrote a table with {edit}"
        written = path.read_bytes()
        warm = load_table(path)
        reloaded(load_table, UNRELATED_STORE)  # the public way to have the next load parse
        cold = load_table(path)
    assert warm == cold
    assert warm.columns == cold.columns and type(warm.columns) is tuple
    assert repr(warm.rows) == repr(cold.rows)  # row order, metric order, types, -0.0
    assert saved(save_table, warm) == saved(save_table, cold) == written


def _swap_first_rows(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("row "))
    lines[first:first + 2] = lines[first + 1], lines[first]
    return "".join(lines)


# Stores whose row lines are all valid on their own but fail a check across lines.
ACROSS_LINES = {
    "cells without a col record": lambda text: text.replace("col creatinine|", "col creatinina|"),
    "col names a source no cell has": lambda text: text.replace(
        "|report_b.csv\n", "|report_a.txt,report_b.csv\n", 1),
    "col misses a source of its cells": lambda text: text.replace(
        "|report_a.txt,report_b.csv\n", "|report_b.csv\n", 1),
    "rows out of order": _swap_first_rows,
    "duplicate row": lambda text: text.replace("row ", "row 2021-01-04|hba1c=5.6@report_a.txt\nrow ", 1)
    .replace("rows 60", "rows 61"),
}


@pytest.mark.parametrize("case", sorted(ACROSS_LINES))
def test_known_row_lines_still_meet_the_checks_across_lines(case):
    mutated = ACROSS_LINES[case](VALID["store"]).encode("utf-8")
    assert mutated != VALID["store"].encode("utf-8")
    outcomes = []
    for before in (UNRELATED_STORE, VALID["store"].encode("utf-8")):
        load_outcome(before)
        outcomes.append(load_outcome(mutated))
    assert outcomes[0][0] is MalformedStore
    assert outcomes[1] == outcomes[0]


def test_row_lines_loaded_by_week_are_checked_again_by_month():
    weekly = VALID["store"].encode("utf-8")
    assert reloaded(load_table, weekly).granularity is Granularity.WEEK
    monthly = weekly.replace(b"granularity week", b"granularity month")
    with pytest.raises(ChronofuseError, match=r"file.txt:8: slice start .* not aligned to month"):
        reloaded(load_table, monthly)


def test_changing_a_loaded_table_does_not_change_the_next_load(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(VALID["store"], encoding="utf-8")
    first = load_table(path)
    for row in first.rows.values():
        row.clear()
    first.rows.clear()
    assert saved(save_table, load_table(path)) == path.read_bytes()


def test_loads_in_threads_get_their_own_store():
    weekly = VALID["store"].encode("utf-8")
    # the same row lines under two granularities: a slice of one must not reach the other
    stores = [weekly, weekly.replace(b"granularity week", b"granularity day")]
    expected = [load_outcome(data) for data in stores]
    wrong = []

    def load_each(offset):
        for i in range(20):
            k = (i + offset) % 2
            if load_outcome(stores[k]) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load_each, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_saves_in_threads_write_their_own_table(tmp_path):
    weekly = VALID["store"].encode("utf-8")
    stores = [weekly, weekly.replace(b"granularity week", b"granularity day")]
    for k, data in enumerate(stores):
        (tmp_path / f"store{k}.txt").write_bytes(data)
    # an edited first cell must be written as edited, whatever another thread marked
    edited = [data.replace(b"creatinine=1.1@", b"creatinine=-0.0@", 1) for data in stores]
    # and rebucketed as edited, whatever slices another thread's rebucket kept
    monthly = [[saved(save_table, rebucket(reloaded(load_table, data), Granularity.MONTH))
                for data in (store, edit)] for store, edit in zip(stores, edited)]
    assert monthly[0][0] != monthly[0][1]
    wrong = []

    def save_each(offset):
        out = tmp_path / f"out{offset}.txt"
        for i in range(20):
            k = (i + offset) % 2
            table = load_table(tmp_path / f"store{k}.txt")
            save_table(table, out)
            if out.read_bytes() != stores[k]:
                wrong.append(("saved", k))
            if saved(save_table, rebucket(table, Granularity.MONTH)) != monthly[k][0]:
                wrong.append(("rebucketed", k))
            first = next(iter(table.rows.values()))
            first["creatinine"] = Cell((CellEntry(-0.0, "report_b.csv"),))
            save_table(table, out)
            if out.read_bytes() != edited[k]:
                wrong.append(("edited", k))
            if saved(save_table, rebucket(table, Granularity.MONTH)) != monthly[k][1]:
                wrong.append(("edited and rebucketed", k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=save_each, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _cells(table):
    return [cell for row in table.rows.values() for cell in row.values()]


def test_a_saved_store_edited_on_disk_is_read_through_every_check(tmp_path):
    path = tmp_path / "table.txt"
    day = dt.date(2021, 1, 4)
    table, _ = fuse([Observation("a", 1.5, "", TimePoint.day(day + dt.timedelta(days=k)), "r1")
                     for k in range(3)], Granularity.DAY)
    save_table(table, path)
    written = path.read_bytes()
    path.write_bytes(written.replace(b"a=1.5@", b"a=1.50@", 1))
    with pytest.raises(MalformedStore, match=r"table.txt:6: bad cell value '1.50'"):
        load_table(path)
    # the saved bytes again: the saved cells come back, not parsed again
    path.write_bytes(written)
    assert all(map(operator.is_, _cells(load_table(path)), _cells(table)))
    path.write_bytes(written.replace(b"a=1.5@", b"a=2.5@", 1))  # an edit that loads is read
    edited = load_table(path)
    assert [cell.values for cell in _cells(edited)] == [(2.5,), (1.5,), (1.5,)]
    assert saved(save_table, edited) == path.read_bytes()


def test_a_failed_save_leaves_what_the_next_load_remembers(tmp_path):
    path, directory = tmp_path / "table.txt", tmp_path / "dir"
    directory.mkdir()
    first, second = (fuse([Observation("a", value, "", TimePoint.day(dt.date(2021, 1, 4)), "r1")],
                          Granularity.DAY)[0] for value in (1.5, 2.5))
    second_bytes = saved(save_table, second)
    save_table(first, path)
    with pytest.raises(OutputWriteError):
        save_table(second, directory)
    with pytest.raises(ValueError):
        save_table(replace(second, columns=(*second.columns, ColumnDescriptor("c|d"))), path)
    assert all(map(operator.is_, _cells(load_table(path)), _cells(first)))
    path.write_bytes(second_bytes)  # what the failed saves would have written: parsed, not theirs
    loaded = load_table(path)
    assert loaded == second
    assert not any(map(operator.is_, _cells(loaded), _cells(second)))


def test_saves_and_loads_in_threads_get_their_own_table(tmp_path):
    weekly = VALID["store"].encode("utf-8")
    # the same row lines under two granularities: a slice of one must not reach the other
    stores = [weekly, weekly.replace(b"granularity week", b"granularity day")]
    tables = [reloaded(load_table, data) for data in stores]
    rows = [repr(table.rows) for table in tables]
    wrong = []

    def save_and_load_each(offset):
        path = tmp_path / f"table{offset}.txt"
        for i in range(20):
            k = (i + offset) % 2
            save_table(tables[k], path)
            loaded = load_table(path)
            if loaded != tables[k] or repr(loaded.rows) != rows[k]:
                wrong.append(("loaded", k))
            if path.read_bytes() != stores[k]:
                wrong.append(("saved", k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=save_and_load_each, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
