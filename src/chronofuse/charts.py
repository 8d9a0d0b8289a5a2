"""Chart construction: normalized series and renderer-independent specs.

Covers single and compound line charts plus the two radial forms (closed
polygon and bar ring). Time is encoded on the x axis or the angle, value
on the y axis or the radius; low values sit near the origin and high
values near the periphery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Sequence

from .errors import (
    DegenerateRange,
    DegenerateValueRange,
    EmptySelection,
    MissingRange,
    TooFewSlices,
    UnknownMetric,
)
from .ingest import RefRange, TimePoint
from .temporal import Aggregator, TemporalTable, aggregate_cell, slice_range

__all__ = [
    "ChartKind",
    "Normalization",
    "Series",
    "Segment",
    "ChartSpec",
    "RefRange",
    "normalize_series",
    "line_segments",
    "build_line_chart",
    "build_radial_chart",
    "build_radial_bar_chart",
    "radial_point",
    "radial_bar_slots",
]


class ChartKind(str, Enum):
    LINE = "line"
    COMPOUND_LINE = "compound_line"
    RADIAL_LINE = "radial_line"
    RADIAL_BAR = "radial_bar"


class Normalization(str, Enum):
    REFERENCE_RANGE = "reference_range"
    MIN_MAX = "min_max"
    NONE = "none"


@dataclass(frozen=True)
class Series:
    """One metric's points, already normalized for plotting.

    Points are finite (t, v) with strictly increasing t; values are never
    clamped, so clinical excursions stay visible to renderers.
    """

    metric: str
    points: tuple[tuple[float, float], ...]
    normalization: Normalization = Normalization.NONE

    def __post_init__(self):
        # a NaN t would pass the order check below: every comparison with NaN is false
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in self.points):
            raise ValueError(f"series {self.metric!r} has non-finite t or values")
        ts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"series {self.metric!r} has non-increasing t values")

    @property
    def out_of_range(self) -> frozenset[int]:
        """Under reference_range, the indices whose value is below 0 or above 1; else none."""
        if self.normalization is not Normalization.REFERENCE_RANGE:
            return frozenset()
        return frozenset(i for i, (_, v) in enumerate(self.points) if v < 0.0 or v > 1.0)


@dataclass(frozen=True)
class Segment:
    """One line piece between consecutive points, as v = slope * t + intercept.

    The paper draws a series as such independent pieces, one per pair of
    consecutive points; see line_segments.
    """

    slope: float
    intercept: float
    p_start: tuple[float, float]
    p_end: tuple[float, float]


@dataclass(frozen=True)
class ChartSpec:
    """Renderer-independent description of one chart."""

    kind: ChartKind
    series: tuple[Series, ...]
    slot_labels: tuple[str, ...]

    def __post_init__(self):
        if not self.series:
            raise ValueError("a chart needs at least one series")
        if not self.slot_labels:
            raise ValueError("a chart needs slot labels")
        n = len(self.slot_labels)
        for s in self.series:
            if not s.points:
                raise ValueError(f"series {s.metric!r} has no points")
            # t indexes slot_labels, as every builder gives it; the renderer places points by
            # it. Series keeps t increasing, so the ends bound it; no t has a fractional part.
            ts = [t for t, _ in s.points]
            if ts[0] < 0 or ts[-1] >= n or any(map(math.fmod, ts, repeat(1.0))):
                raise ValueError(f"series {s.metric!r} has a t that is not a slot index 0..{n - 1}")


def normalize_series(
    raw: Sequence[tuple[float, float]],
    ref_range: RefRange | None = None,
    mode: Normalization = Normalization.NONE,
    metric: str = "",
) -> Series:
    """Normalize raw (t, v) points into a Series.

    reference_range maps low -> 0 and high -> 1 exactly and never clamps, so
    indices landing outside [0, 1] show in out_of_range. min_max maps the series
    min -> 0 and max -> 1 (a constant series maps to 0.5). none passes
    values through.
    """
    if mode is Normalization.REFERENCE_RANGE:
        if ref_range is None:
            raise MissingRange(f"reference_range normalization needs a range for {metric or 'series'}")
        if ref_range.high == ref_range.low:
            raise DegenerateRange(f"reference range for {metric or 'series'} has low == high")
        span = ref_range.high - ref_range.low
        points = tuple((t, (v - ref_range.low) / span) for t, v in raw)
        return _normalized(metric, raw, points, mode)
    if mode is Normalization.MIN_MAX:
        values = [v for _, v in raw]
        lo, hi = min(values), max(values)
        if hi == lo:
            points = tuple((t, 0.5) for t, _ in raw)
        else:
            span = hi - lo
            points = tuple((t, (v - lo) / span) for t, v in raw)
        return _normalized(metric, raw, points, mode)
    return Series(metric, tuple((t, v) for t, v in raw))


def _normalized(metric, raw, points, mode) -> Series:
    """The normalized Series; DegenerateValueRange when only normalizing made a value non-finite.

    Finite values can still overflow: the span, or a value's distance from
    the low end, may exceed the largest float. Raw points that Series
    refuses on their own raise its ValueError, as under `none`.
    """
    try:
        return Series(metric, points, mode)
    except ValueError:
        Series(metric, tuple(raw))
        raise DegenerateValueRange(
            f"normalizing {metric or 'series'} ({mode.value}) overflows a float") from None


def line_segments(series: Series) -> list[Segment]:
    """Split a series into the paper's per-segment line pieces.

    Each consecutive point pair yields one independent segment
    v = slope * t + intercept, so a series of n points gives exactly n - 1
    segments and editing one point only disturbs its adjacent pieces
    (criterion 5 of tests/test_acceptance.py). The renderer draws the same
    pieces as one polyline through the points.
    """
    segments = []
    for (t0, v0), (t1, v1) in zip(series.points, series.points[1:]):
        slope = (v1 - v0) / (t1 - t0)
        intercept = v0 - slope * t0
        segments.append(Segment(slope, intercept, (t0, v0), (t1, v1)))
    return segments


def radial_point(
    i: int,
    n: int,
    value: float,
    vmin: float,
    vmax: float,
    r_inner: float,
    r_outer: float,
) -> tuple[float, float]:
    """Place slot i of n on the circle: returns (angle, radius).

    The angle is 2*pi*i/n, measured clockwise from 12 o'clock. The radius
    interpolates r_inner..r_outer so vmin sits at the inner ring and vmax
    at the periphery, exactly at both bounds and unclamped in between.
    """
    if not 0 <= i < n:
        raise ValueError(f"slot index {i} outside 0..{n - 1}")
    if vmin == vmax:
        raise DegenerateValueRange("radial placement needs vmin < vmax")
    if not 0 <= r_inner < r_outer:
        raise ValueError("radii must satisfy 0 <= r_inner < r_outer")
    angle = 2.0 * math.pi * i / n
    u = (value - vmin) / (vmax - vmin)
    radius = r_inner * (1.0 - u) + r_outer * u
    return angle, radius


# Bars keep a fixed 0.02 rad gap between neighbors; when slots get so
# narrow that the gap would eat half the pitch, the gap shrinks with it.
BAR_GAP_RAD = 0.02


def radial_bar_slots(n_slices: int, n_series: int) -> list[tuple[float, float]]:
    """Angular (start, width) of every bar, slice-major then series.

    The pitch between consecutive bars is 2*pi / (n_slices * n_series);
    each bar's width is the pitch minus the fixed gap.
    """
    total = n_slices * n_series
    if total < 1:
        raise ValueError("need at least one bar slot")
    pitch = 2.0 * math.pi / total
    gap = min(BAR_GAP_RAD, pitch / 2.0)
    return [(k * pitch + gap / 2.0, pitch - gap) for k in range(total)]


def build_line_chart(
    table: TemporalTable,
    metrics: Sequence[str] | None = None,
    time_range: tuple[TimePoint, TimePoint] | None = None,
    aggregator: Aggregator = Aggregator.MEAN,
    normalization: Normalization = Normalization.MIN_MAX,
) -> ChartSpec:
    """Build a line chart spec (compound when more than one metric).

    x positions are row indices of the sliced table; cells with several
    entries collapse through the aggregator before normalization.
    """
    return _build_chart(ChartKind.LINE, table, metrics, time_range, aggregator, normalization)


def build_radial_chart(
    table: TemporalTable,
    metrics: Sequence[str] | None = None,
    time_range: tuple[TimePoint, TimePoint] | None = None,
    aggregator: Aggregator = Aggregator.MEAN,
    normalization: Normalization = Normalization.MIN_MAX,
) -> ChartSpec:
    """Build a closed radial line chart: one polygon vertex per slice."""
    return _build_chart(ChartKind.RADIAL_LINE, table, metrics, time_range, aggregator, normalization)


def build_radial_bar_chart(
    table: TemporalTable,
    metrics: Sequence[str] | None = None,
    time_range: tuple[TimePoint, TimePoint] | None = None,
    aggregator: Aggregator = Aggregator.MEAN,
    normalization: Normalization = Normalization.MIN_MAX,
) -> ChartSpec:
    """Build a radial bar chart: one bar per (metric, slice)."""
    return _build_chart(ChartKind.RADIAL_BAR, table, metrics, time_range, aggregator, normalization)


def _build_chart(kind, table, metrics, time_range, aggregator, normalization) -> ChartSpec:
    """The one path from a table to a ChartSpec; a LINE of several metrics is a COMPOUND_LINE.

    metrics=None selects every metric; a given selection must name at least one.
    """
    known = set(table.metrics)
    # series come out in metric-name order (column order), deduplicated
    requested = sorted(known if metrics is None else set(metrics))
    if metrics is not None and not requested:
        raise EmptySelection("the metric selection names no metric")
    for metric in requested:
        if metric not in known:
            raise UnknownMetric(f"metric {metric!r} has no column in the table")
    if time_range is not None:
        table = slice_range(table, time_range[0], time_range[1])
    if not table.rows:
        raise EmptySelection("no cells fall inside the requested time range")
    if kind is ChartKind.RADIAL_LINE and len(table.rows) < 3:
        raise TooFewSlices(
            f"radial line charts need at least 3 slices, selection has {len(table.rows)}"
        )
    series = []
    for metric in requested:
        raw = []
        for index, row in enumerate(table.rows.values()):
            cell = row.get(metric)
            if cell is not None:
                raw.append((float(index), aggregate_cell(cell, aggregator)))
        if not raw:
            raise EmptySelection(f"metric {metric!r} has no cells in the requested range")
        ref = table.column_for(metric).reference_range
        series.append(normalize_series(raw, ref, normalization, metric=metric))
    if kind is ChartKind.LINE and len(series) != 1:
        kind = ChartKind.COMPOUND_LINE
    labels = tuple(ts.start_date.isoformat() for ts in table.rows)
    return ChartSpec(kind, tuple(series), labels)

