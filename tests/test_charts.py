import math
import random
import re

import pytest

from chronofuse import (
    Aggregator,
    ChartKind,
    ChartSpec,
    DeviceClass,
    Normalization,
    RefRange,
    Series,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
    default_profile,
    fuse,
    line_segments,
    normalize_series,
    radial_bar_slots,
    radial_point,
    render_svg,
    select_layout,
)
from chronofuse.errors import (
    DegenerateRange,
    DegenerateValueRange,
    EmptySelection,
    MissingRange,
    TooFewSlices,
    UnknownMetric,
)
from conftest import obs, overflowing_table

RANGE = RefRange(4.0, 10.0, "%")


def pts(*values):
    return [(float(i), float(v)) for i, v in enumerate(values)]


# --- normalize_series ---

def test_reference_range_bounds_exact():
    series = normalize_series(pts(4.0, 10.0, 7.0), RANGE, Normalization.REFERENCE_RANGE)
    assert series.points[0][1] == 0.0
    assert series.points[1][1] == 1.0
    assert series.points[2][1] == 0.5
    assert series.out_of_range == frozenset()


def test_reference_range_excursion_flagged_not_clamped():
    series = normalize_series(pts(12.0), RANGE, Normalization.REFERENCE_RANGE)
    assert series.points[0][1] == (12.0 - 4.0) / (10.0 - 4.0) == pytest.approx(4.0 / 3.0)
    assert series.out_of_range == {0}


def test_out_of_range_flags_only_under_reference_range():
    assert Series("a", pts(5.0, -2.0, 0.5), Normalization.NONE).out_of_range == frozenset()
    assert Series("a", pts(5.0, -2.0, 0.5), Normalization.MIN_MAX).out_of_range == frozenset()
    assert Series("a", pts(5.0, -2.0, 0.5, 0.0, 1.0),
                  Normalization.REFERENCE_RANGE).out_of_range == {0, 1}


def test_reference_range_requires_range():
    with pytest.raises(MissingRange):
        normalize_series(pts(1.0), None, Normalization.REFERENCE_RANGE)


def test_degenerate_range():
    broken = RefRange.__new__(RefRange)
    object.__setattr__(broken, "low", 5.0)
    object.__setattr__(broken, "high", 5.0)
    object.__setattr__(broken, "unit", "")
    with pytest.raises(DegenerateRange):
        normalize_series(pts(1.0), broken, Normalization.REFERENCE_RANGE)


def test_min_max_and_constant():
    series = normalize_series(pts(2.0, 4.0, 6.0), mode=Normalization.MIN_MAX)
    assert [v for _, v in series.points] == [0.0, 0.5, 1.0]
    constant = normalize_series(pts(3.0, 3.0), mode=Normalization.MIN_MAX)
    assert [v for _, v in constant.points] == [0.5, 0.5]


def test_none_is_identity():
    series = normalize_series(pts(2.0, -1.0), mode=Normalization.NONE)
    assert [v for _, v in series.points] == [2.0, -1.0]


@pytest.mark.parametrize("mode", [Normalization.REFERENCE_RANGE, Normalization.MIN_MAX])
def test_normalization_overflow_is_a_degenerate_value_range(mode):
    with pytest.raises(DegenerateValueRange, match=f"normalizing a \\({mode.value}\\) overflows"):
        build_line_chart(overflowing_table(mode), normalization=mode)


def test_normalizing_non_finite_raw_values_is_the_series_value_error():
    with pytest.raises(ValueError, match="non-finite t or values"):
        normalize_series([(0.0, math.nan)], RANGE, Normalization.REFERENCE_RANGE)
    with pytest.raises(ValueError, match="non-finite t or values"):
        normalize_series(pts(1.0, math.inf), mode=Normalization.MIN_MAX)


def test_normalization_is_affine_monotone():
    rng = random.Random(3)
    for _ in range(50):
        lo = rng.uniform(-50, 50)
        hi = lo + rng.uniform(0.1, 100)
        ref = RefRange(lo, hi)
        a, b = sorted((rng.uniform(-200, 200), rng.uniform(-200, 200)))
        sa = normalize_series([(0.0, a)], ref, Normalization.REFERENCE_RANGE).points[0][1]
        sb = normalize_series([(0.0, b)], ref, Normalization.REFERENCE_RANGE).points[0][1]
        assert sa <= sb


def test_scale_equivariance_sample():
    rng = random.Random(4)
    for _ in range(20):
        c = rng.uniform(0.01, 50.0)
        values = [rng.uniform(-10, 10) for _ in range(6)]
        ref = RefRange(-12.0, 14.0)
        base = normalize_series(pts(*values), ref, Normalization.REFERENCE_RANGE)
        scaled = normalize_series(
            pts(*(v * c for v in values)),
            RefRange(-12.0 * c, 14.0 * c),
            Normalization.REFERENCE_RANGE,
        )
        for (_, v0), (_, v1) in zip(base.points, scaled.points):
            assert v1 == pytest.approx(v0, abs=1e-12, rel=1e-12)
        assert base.out_of_range == scaled.out_of_range


# --- line_segments ---

def test_segments_from_three_points():
    # two-point solve oracle: y = mx + c through both endpoints
    series = normalize_series([(0.0, 0.0), (2.0, 4.0), (3.0, 4.0)])
    segments = line_segments(series)
    assert [(s.slope, s.intercept) for s in segments] == [(2.0, 0.0), (0.0, 4.0)]


def test_segments_single_point():
    assert line_segments(normalize_series([(0.0, 1.0)])) == []


def test_segments_count_and_endpoint_reproduction():
    rng = random.Random(5)
    values = [rng.uniform(-5, 5) for _ in range(10)]
    series = normalize_series(pts(*values))
    segments = line_segments(series)
    assert len(segments) == len(series.points) - 1
    for segment in segments:
        for t, v in (segment.p_start, segment.p_end):
            assert segment.slope * t + segment.intercept == pytest.approx(v, rel=1e-9, abs=1e-9)


def test_segment_locality():
    values = [1.0, 2.0, 3.0, 4.0]
    before = line_segments(normalize_series(pts(*values)))
    values[1] = 9.0
    after = line_segments(normalize_series(pts(*values)))
    assert before[2] == after[2]          # untouched pair unchanged
    assert before[0] != after[0] and before[1] != after[1]


# --- chart builders ---

@pytest.fixture()
def small_table(lexicon):
    observations = [
        obs("glucose", 90.0, "2021-01-01", "r1", unit="mg/dL"),
        obs("glucose", 110.0, "2021-01-02", "r1", unit="mg/dL"),
        obs("glucose", 100.0, "2021-01-03", "r1", unit="mg/dL"),
        obs("hba1c", 5.0, "2021-01-01", "r2", unit="%"),
        obs("hba1c", 6.0, "2021-01-02", "r2", unit="%"),
        obs("hba1c", 5.5, "2021-01-03", "r2", unit="%"),
        obs("creatinine", 1.0, "2021-01-02", "r2", unit="mg/dL"),
    ]
    table, _ = fuse(observations, ranges=lexicon.ranges())
    return table


def test_line_chart_single_metric(small_table):
    spec = build_line_chart(small_table, ["glucose"])
    assert spec.kind is ChartKind.LINE
    assert len(spec.series) == 1
    assert len(spec.series[0].points) == 3
    assert [t for t, _ in spec.series[0].points] == [0.0, 1.0, 2.0]
    assert (spec.slot_labels[0], spec.slot_labels[-1]) == ("2021-01-01", "2021-01-03")


def test_compound_chart_distinct_palette(small_table):
    spec = build_line_chart(small_table, ["glucose", "hba1c", "creatinine"])
    assert spec.kind is ChartKind.COMPOUND_LINE
    profile = default_profile(DeviceClass.MONITOR)
    svg = render_svg(spec, select_layout(spec, profile), profile).svg
    # one 2 px point marker per data point, stroked in its series' color
    strokes = re.findall(r'<circle cx="[^"]*" cy="[^"]*" r="2" stroke="([^"]+)"', svg)
    assert len(strokes) == sum(len(series.points) for series in spec.series)
    assert len(set(strokes)) == 3


def test_unknown_metric(small_table):
    with pytest.raises(UnknownMetric):
        build_line_chart(small_table, ["cholesterol"])


def test_empty_selection(small_table):
    from chronofuse import TimePoint
    import datetime as dt

    with pytest.raises(EmptySelection):
        build_line_chart(
            small_table,
            ["glucose"],
            time_range=(TimePoint.day(dt.date(2030, 1, 1)), TimePoint.day(dt.date(2030, 2, 1))),
        )


@pytest.mark.parametrize("build", [build_line_chart, build_radial_chart, build_radial_bar_chart])
def test_an_empty_metric_selection_is_not_all_metrics(small_table, build):
    with pytest.raises(EmptySelection):
        build(small_table, metrics=[])
    assert len(build(small_table, metrics=None).series) == len(small_table.metrics)


def test_reference_range_normalization_uses_column_range(small_table):
    spec = build_line_chart(small_table, ["glucose"], normalization=Normalization.REFERENCE_RANGE)
    # (90 - 70) / (140 - 70)
    assert spec.series[0].points[0][1] == pytest.approx(20.0 / 70.0)


def test_chart_building_is_pure(small_table):
    a = build_line_chart(small_table, ["glucose", "hba1c"])
    b = build_line_chart(small_table, ["glucose", "hba1c"])
    assert a == b


def test_aggregator_resolves_collisions(lexicon):
    observations = [
        obs("glucose", 90.0, "2021-01-01", "r1"),
        obs("glucose", 110.0, "2021-01-01", "r2"),
        obs("glucose", 100.0, "2021-01-02", "r1"),
    ]
    table, _ = fuse(observations)
    spec = build_line_chart(table, aggregator=Aggregator.MEAN, normalization=Normalization.NONE)
    assert spec.series[0].points[0][1] == 100.0


# --- radial geometry ---

def test_radial_point_origin_side_bound():
    assert radial_point(0, 8, 0.0, 0.0, 1.0, 5.0, 50.0) == (0.0, 5.0)


def test_radial_point_periphery_bound():
    angle, radius = radial_point(2, 8, 1.0, 0.0, 1.0, 5.0, 50.0)
    assert angle == math.pi / 2
    assert radius == 50.0


def test_radial_point_bounds_exact_for_awkward_floats():
    # the interpolation form must hit both radii exactly, not within epsilon
    _, inner = radial_point(0, 4, 0.1, 0.1, 0.3, 0.1, 0.3)
    _, outer = radial_point(0, 4, 0.3, 0.1, 0.3, 0.1, 0.3)
    assert inner == 0.1 and outer == 0.3


def test_radial_point_midpoint():
    _, radius = radial_point(0, 4, 0.5, 0.0, 1.0, 10.0, 30.0)
    assert radius == pytest.approx((10.0 + 30.0) / 2.0)


def test_radial_point_equal_angular_spacing():
    n = 12
    angles = [radial_point(i, n, 0.5, 0.0, 1.0, 1.0, 2.0)[0] for i in range(n)]
    for i, angle in enumerate(angles):
        assert angle == pytest.approx(2.0 * math.pi * i / n, abs=1e-12)
    deltas = [b - a for a, b in zip(angles, angles[1:])]
    for delta in deltas:
        assert delta == pytest.approx(2.0 * math.pi / n, abs=1e-12)


def test_radial_point_degenerate_value_range():
    with pytest.raises(DegenerateValueRange):
        radial_point(0, 4, 1.0, 2.0, 2.0, 1.0, 2.0)


def test_radial_chart_requires_three_slices(small_table):
    import datetime as dt

    from chronofuse import TimePoint

    spec = build_radial_chart(small_table, ["glucose"])
    assert spec.kind is ChartKind.RADIAL_LINE
    assert len(spec.slot_labels) == 3
    with pytest.raises(TooFewSlices):
        build_radial_chart(
            small_table,
            ["glucose"],
            time_range=(TimePoint.day(dt.date(2021, 1, 1)), TimePoint.day(dt.date(2021, 1, 2))),
        )


def test_radial_chart_constant_series_maps_to_midpoint(lexicon):
    observations = [obs("a", 7.0, f"2021-01-0{i}") for i in range(1, 5)]
    table, _ = fuse(observations)
    spec = build_radial_chart(table, normalization=Normalization.MIN_MAX)
    assert len(spec.slot_labels) == 4
    assert len(spec.series[0].points) == 4
    assert all(v == 0.5 for _, v in spec.series[0].points)


def test_radial_bar_slots_pitch():
    slots = radial_bar_slots(6, 1)
    assert len(slots) == 6
    starts = [s for s, _ in slots]
    for a, b in zip(starts, starts[1:]):
        assert b - a == pytest.approx(2.0 * math.pi / 6.0)
    for start, width in slots:
        assert width == pytest.approx(2.0 * math.pi / 6.0 - 0.02)


def test_radial_bar_slots_two_series():
    slots = radial_bar_slots(6, 2)
    assert len(slots) == 12
    pitch = 2.0 * math.pi / 12.0
    assert slots[1][0] - slots[0][0] == pytest.approx(pitch)


@pytest.mark.parametrize("kind", [ChartKind.RADIAL_LINE, ChartKind.RADIAL_BAR])
def test_radial_spec_without_labels_is_refused(kind):
    with pytest.raises(ValueError, match="slot labels"):
        ChartSpec(kind, (Series("a", pts(1.0, 2.0, 3.0)),), ())


@pytest.mark.parametrize("kind, points, labels, message", [
    (ChartKind.LINE, pts(1.0, 2.0), (), "slot labels"),
    (ChartKind.RADIAL_LINE, ((0.0, 0.2), (5.0, 0.5)), ("x", "y", "z"), "slot index 0..2"),
    (ChartKind.LINE, ((0.5, 0.5),), ("x", "y"), "slot index 0..1"),
    (ChartKind.RADIAL_BAR, ((-1.0, 0.5),), ("x",), "slot index 0..0"),
    (ChartKind.COMPOUND_LINE, (), ("x",), "no points"),
])
def test_spec_refuses_points_that_are_not_slot_indices(kind, points, labels, message):
    with pytest.raises(ValueError, match=message):
        ChartSpec(kind, (Series("a", tuple(points)),), labels)


def test_radial_bar_chart(small_table):
    spec = build_radial_bar_chart(small_table, ["glucose", "hba1c"])
    assert spec.kind is ChartKind.RADIAL_BAR
    assert len(spec.slot_labels) == 3
    assert len(spec.series) == 2


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_series_refuses_a_non_finite_t(t):
    # every comparison with NaN is false, so the order check alone lets a NaN t through
    with pytest.raises(ValueError, match="non-finite t"):
        Series("glucose", ((0.0, 0.2), (t, 0.5), (2.0, 0.9)))
