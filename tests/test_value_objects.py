"""Construction contract of the per-row value classes.

Observation, TimePoint, CellEntry, Cell and TimeSlice are frozen, slotted
dataclasses with their own __init__. These tests hold each one to what the
dataclass would generate: the fields as parameters, in order, with their
defaults; keyword construction and dataclasses.replace; refused assignment;
copies and pickles that round-trip; and the refusals their checks raise.
"""

import copy
import dataclasses
import datetime as dt
import inspect
import pickle

import pytest

from chronofuse import Cell, CellEntry, Granularity, Observation, TimePoint, TimeSlice

MONDAY = dt.date(2024, 1, 1)  # also the first of its month
CLASSES = [Observation, TimePoint, CellEntry, Cell, TimeSlice]
SAMPLES = [
    pytest.param(TimePoint(MONDAY), id="day-point"),
    pytest.param(TimePoint(MONDAY, dt.time(8, 30)), id="minute-point"),
    pytest.param(Observation("glucose", 5.5, "mmol/L", TimePoint(MONDAY), "r1"), id="observation"),
    pytest.param(Observation("glucose", 25.0, "mg/dL", TimePoint(MONDAY, dt.time(8, 30)), "r2",
                             frozenset({"unit_mismatch", "out_of_range"})), id="flagged-observation"),
    pytest.param(CellEntry(-0.0, "r1"), id="entry"),
    pytest.param(Cell((CellEntry(5.5, "r1"), CellEntry(6.0, "r2"))), id="cell"),
    pytest.param(TimeSlice(TimePoint(MONDAY), Granularity.WEEK), id="slice"),
]


def _field_default(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return inspect.Parameter.empty


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_the_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    params = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert [p.default for p in params] == [_field_default(f) for f in fields]


@pytest.mark.parametrize("cls, args", [
    pytest.param(cls, args, id=cls.__name__) for cls, args in [
        (TimePoint, (MONDAY, dt.time(8, 30))),
        (Observation, ("glucose", 5.5, "mmol/L", TimePoint(MONDAY), "r1", frozenset({"out_of_range"}))),
        (CellEntry, (-0.0, "r1")),
        (Cell, ((CellEntry(5.5, "r1"),),)),
        (TimeSlice, (TimePoint(MONDAY), Granularity.MONTH)),
    ]
])
def test_each_field_holds_the_argument_passed_for_it(cls, args):
    for value in (cls(*args), cls(**{f.name: a for f, a in zip(dataclasses.fields(cls), args)})):
        assert all(getattr(value, f.name) is a for f, a in zip(dataclasses.fields(cls), args))


def test_observation_flags_default_to_an_empty_frozenset():
    obs = Observation("glucose", 5.5, "mmol/L", TimePoint(MONDAY), "r1")
    assert type(obs.flags) is frozenset and not obs.flags
    assert [f.name for f in dataclasses.fields(Observation) if f.default_factory is frozenset] == ["flags"]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_class_is_slotted(cls):
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("value", SAMPLES)
def test_keyword_construction_and_replace_give_the_same_value(value):
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    assert type(value)(**fields) == value
    assert type(value)(*fields.values()) == value
    assert dataclasses.replace(value) == value
    assert repr(dataclasses.replace(value)) == repr(value)


def test_replace_changes_only_the_named_field():
    obs = Observation("glucose", 5.5, "mmol/L", TimePoint(MONDAY), "r1")
    moved = dataclasses.replace(obs, value=6.0)
    assert moved.value == 6.0
    assert dataclasses.replace(moved, value=5.5) == obs
    assert dataclasses.replace(TimePoint(MONDAY), time_of_day=dt.time(8, 30)) == TimePoint(MONDAY, dt.time(8, 30))


@pytest.mark.parametrize("value", SAMPLES)
def test_field_assignment_is_refused(value):
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)


@pytest.mark.parametrize("value", SAMPLES)
def test_copies_and_pickles_round_trip(value):
    twins = [copy.copy(value), copy.deepcopy(value)]
    twins += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
        assert hash(twin) == hash(value)


def test_refusals_keep_their_messages():
    with pytest.raises(ValueError, match=r"^cells must hold at least one entry$"):
        Cell(())
    with pytest.raises(ValueError, match=r"^cells must hold at least one entry$"):
        dataclasses.replace(Cell((CellEntry(1.0, "r1"),)), entries=())
    with pytest.raises(ValueError, match=r"^slice start 2024-01-02 not aligned to week$"):
        TimeSlice(TimePoint(dt.date(2024, 1, 2)), Granularity.WEEK)
    with pytest.raises(ValueError, match=r"^slice start 2024-01-08 not aligned to month$"):
        TimeSlice(start=TimePoint(dt.date(2024, 1, 8)), granularity=Granularity.MONTH)
    with pytest.raises(ValueError, match=r"^slice start 2024-01-01 08:30 not aligned to day$"):
        TimeSlice(TimePoint(MONDAY, dt.time(8, 30)), Granularity.DAY)


def test_equal_slices_are_one_dict_key():
    first = TimeSlice(TimePoint(MONDAY), Granularity.WEEK)
    second = TimeSlice(TimePoint(MONDAY), Granularity.WEEK)
    assert first is not second
    assert {first: "first", second: "second"} == {first: "second"}


def test_slices_of_other_granularities_on_the_same_date_stay_apart():
    day, week, month = (TimeSlice(TimePoint(MONDAY), g) for g in (Granularity.DAY, Granularity.WEEK, Granularity.MONTH))
    assert len({day, week, month}) == 3
    rows = {day: "day", week: "week"}
    assert rows[TimeSlice(TimePoint(MONDAY), Granularity.DAY)] == "day"
    assert rows[TimeSlice(TimePoint(MONDAY), Granularity.WEEK)] == "week"
    assert TimeSlice(TimePoint(MONDAY), Granularity.MONTH) not in rows
