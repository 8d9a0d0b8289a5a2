"""Byte pin of the chart builders over windowed builds of day, week and month tables.

The render digest (`test_render_digest.py`) builds only whole tables whose
cells hold one entry from one report, so it pins neither the window path
(`slice_range`) nor aggregation. This sweep builds every chart kind under
every aggregator and normalization, over windows that start and end inside
a slice, with and without a time of day, on tables whose cells hold
readings from two reports, several readings from one report, or a lone
-0.0. Each case's `repr(spec)`, or its error type and message, feeds one
SHA-256 that is compared with a committed digest.

A change that alters a built spec on purpose must update WINDOW_DIGEST and
say why.

The module imports only the standard library and chronofuse, so it can be
loaded and run without pytest.
"""

import datetime as dt
import functools
import hashlib

from chronofuse import (
    Aggregator,
    CellEntry,
    Granularity,
    Normalization,
    Observation,
    RefRange,
    TimePoint,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
    fuse,
)
from chronofuse.errors import ChronofuseError

WINDOW_DIGEST = "bbee78a60f49c8a7ffe06970d7a561a64edd49bd1ac204761cf4a7daf3bc8d20"

BUILDERS = (
    ("line", build_line_chart),
    ("radial", build_radial_chart),
    ("radial-bar", build_radial_bar_chart),
)
METRIC_SELECTIONS = (None, ("a",), ("b", "c"))
RANGES = {"a": RefRange(60.0, 90.0), "b": RefRange(-1.0, 1.0), "c": RefRange(0.5, 4.5)}
# each table's first day, its step between readings and its number of steps
SPANS = {
    Granularity.DAY: (dt.date(2021, 3, 1), dt.timedelta(hours=9), 60),
    Granularity.WEEK: (dt.date(2021, 1, 6), dt.timedelta(days=2), 90),
    Granularity.MONTH: (dt.date(2020, 11, 17), dt.timedelta(days=9), 60),
}


def _day(text: str) -> TimePoint:
    return TimePoint.day(dt.date.fromisoformat(text))


def _minute(text: str, hour: int, minute: int) -> TimePoint:
    return TimePoint.minute(dt.date.fromisoformat(text), dt.time(hour, minute))


# per granularity: (label, start, end); the ends fall inside slices unless a label says otherwise
WINDOWS = {
    Granularity.DAY: (
        ("all", _day("2021-02-01"), _day("2021-04-30")),
        ("mid", _day("2021-03-04"), _day("2021-03-15")),
        ("timed", _minute("2021-03-05", 13, 45), _minute("2021-03-09", 8, 5)),
        ("one-day", _day("2021-03-07"), _minute("2021-03-07", 23, 59)),
        ("two-days", _day("2021-03-10"), _minute("2021-03-11", 0, 1)),
        ("before", _day("2020-12-01"), _day("2021-02-28")),
        ("after", _minute("2021-03-24", 0, 0), _day("2021-06-01")),
        ("no-c", _day("2021-03-01"), _day("2021-03-03")),
        ("inverted", _minute("2021-03-09", 10, 0), _minute("2021-03-09", 9, 59)),
    ),
    Granularity.WEEK: (
        ("all", _day("2020-12-01"), _day("2021-12-31")),
        ("mid", _day("2021-01-13"), _day("2021-03-18")),  # a Wednesday to a Thursday
        ("timed", _minute("2021-02-07", 18, 30), _minute("2021-03-01", 6, 0)),  # Sunday to Monday
        ("bounds", _day("2021-02-01"), _day("2021-02-22")),  # Mondays: each starts a slice
        ("one-week", _day("2021-02-10"), _day("2021-02-12")),
        ("two-weeks", _day("2021-02-14"), _day("2021-02-15")),
        ("before", _day("2020-11-01"), _day("2021-01-03")),
        ("no-c", _day("2021-01-06"), _day("2021-01-10")),
        ("inverted", _day("2021-03-02"), _day("2021-03-01")),
    ),
    Granularity.MONTH: (
        ("all", _day("2020-01-01"), _day("2022-12-31")),
        ("mid", _day("2020-12-15"), _day("2021-06-10")),
        ("timed", _minute("2021-01-31", 23, 0), _minute("2021-05-01", 0, 30)),
        ("one-month", _day("2021-02-02"), _day("2021-02-27")),
        ("two-months", _day("2021-03-31"), _day("2021-04-01")),
        ("after", _day("2022-06-01"), _day("2022-09-01")),
        ("no-c", _day("2020-11-20"), _day("2020-11-30")),
        ("inverted", _minute("2021-02-02", 12, 0), _day("2021-02-01")),
    ),
}


def _observations(granularity: Granularity) -> list[Observation]:
    """Readings of a, b and c at a step finer than a slice, so most cells hold several.

    a comes from r1 and, every sixth step, also from r2. b is read every fourth
    step, which is at most once a slice, so its cells hold one entry, a -0.0
    every third time. c is sparse and never in a table's first slice.
    """
    first, step, count = SPANS[granularity]
    start = dt.datetime.combine(first, dt.time(7, 30))
    observations = []
    for k in range(count):
        moment = start + k * step
        time = TimePoint.minute(moment.date(), moment.time()) if k % 2 else TimePoint.day(moment.date())
        observations.append(Observation("a", 70.0 + (k * 13 % 29) * 0.7, "u", time, "r1"))
        if k % 6 == 0:
            observations.append(Observation("a", 65.5 + (k % 5) * 3.1, "u", time, "r2"))
        if k % 4 == 0:
            value = -0.0 if k % 12 == 4 else (k // 4 % 7 - 3) * 0.4
            observations.append(Observation("b", value, "", time, "r2" if k % 8 else "r1"))
        if k % 5 == 4 and k > 8:
            observations.append(Observation("c", 1.0 + (k % 4) * 0.9, "", time, f"r{k % 2 + 1}"))
    return observations


@functools.cache
def _table(granularity: Granularity):
    table, _ = fuse(_observations(granularity), granularity, ranges=RANGES)
    return table


@functools.cache
def window_cases() -> tuple[tuple[str, str], ...]:
    """(case label, repr of the spec or the error) for every windowed build of the sweep."""
    return tuple(_sweep())


def _sweep():
    for granularity in Granularity:
        table = _table(granularity)
        for window, start, end in WINDOWS[granularity]:
            for metrics in METRIC_SELECTIONS:
                for kind, build in BUILDERS:
                    for aggregator in Aggregator:
                        for normalization in Normalization:
                            label = (f"{granularity.value} {window} {metrics} {kind} "
                                     f"{aggregator.value} {normalization.value}")
                            try:
                                text = repr(build(table, metrics, (start, end), aggregator, normalization))
                            except ChronofuseError as exc:
                                text = f"{type(exc).__name__}: {exc}"
                            yield label, text


def window_digest() -> str:
    digest = hashlib.sha256()
    for label, text in window_cases():
        digest.update(f"{label}\n{text}\n".encode("utf-8"))
    return digest.hexdigest()


def test_window_sweep_covers_mixed_cells_errors_and_negative_zero():
    for granularity in Granularity:
        cells = [cell for row in _table(granularity).rows.values() for cell in row.values()]
        sources = [{entry.source for entry in cell.entries} for cell in cells]
        assert any(len(ids) == 2 for ids in sources)
        assert any(len(ids) == 1 and len(cell.entries) > 1 for ids, cell in zip(sources, cells))
        assert any(cell.entries == (CellEntry(-0.0, "r2"),) and repr(cell.entries[0].value) == "-0.0"
                   for cell in cells)
    outcomes = dict(window_cases())
    assert len(outcomes) == sum(len(WINDOWS[g]) for g in Granularity) * (
        len(METRIC_SELECTIONS) * len(BUILDERS) * len(Aggregator) * len(Normalization))
    texts = list(outcomes.values())
    for name in ("ChartSpec(", "EmptySelection: no cells fall inside",
                 "EmptySelection: metric 'c' has no cells", "TooFewSlices: ", "InvertedRange: "):
        assert any(text.startswith(name) for text in texts), name
    # a lone -0.0 reads 0.0 through mean and -0.0 through the other aggregators
    assert "(2.0, 0.0)" in outcomes["day timed ('b', 'c') line mean none"]
    for aggregator in ("median", "first", "last"):
        assert "(2.0, -0.0)" in outcomes[f"day timed ('b', 'c') line {aggregator} none"]


def test_window_sweep_matches_committed_digest():
    assert window_digest() == WINDOW_DIGEST
