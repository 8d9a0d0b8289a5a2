"""Property tests for rendering.

`legibility_check` fills its 4px grid one row span at a time, and skips a
mark that lies inside a tall mark it has already set. It is checked against
a reference copy of the per-cell loop it replaced, kept below, on generated
marks over the viewports of the default device profiles, among them tall
boxes followed by boxes inside them, on their cell edges and across them.

Every `ChartSpec` that constructs, on every valid `DeviceProfile`, renders
and is judged, or raises a `ChronofuseError`, and renders to the same bytes
twice. No text it draws is under the profile's minimum font.

No two text runs of a rendered chart overlap, for specs of every kind with
1-6 metrics over 2-260 slots, on the default devices and a smaller monitor
with a larger minimum font.

Numbers are written to the SVG and the diagnostics by one formatter with a
fast path for everyday magnitudes. Its text is checked, through
`legibility_report`, against a reference copy of the formatter without that
path, kept below, on floats of every magnitude.
"""

import datetime as dt
import itertools
import math
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronofuse import (
    DEFAULT_PROFILES,
    ChartKind,
    ChartSpec,
    Diagnostics,
    DeviceClass,
    DeviceProfile,
    Mark,
    Normalization,
    Rect,
    RenderedChart,
    Series,
    default_profile,
    legibility_check,
    legibility_report,
    render_svg,
    select_layout,
)
from chronofuse.errors import ChronofuseError
from chronofuse.render import CELL_PX, MAX_PROFILE_SIZE, RULE_BLANK

# --- reference implementations ---


def reference_fmt(x):
    if not math.isfinite(x):
        return repr(x)
    r = round(x, 9) + 0.0
    if r == int(r) and abs(r) < 1e15:
        return str(int(r))
    return repr(r)


def reference_blank_ratio(marks, w, h):
    nx = max(1, math.ceil(w / CELL_PX))
    ny = max(1, math.ceil(h / CELL_PX))
    occupied = bytearray(nx * ny)
    for mark in marks:
        b = mark.bbox
        x0 = max(b.x, 0.0)
        y0 = max(b.y, 0.0)
        x1 = min(b.x1, w)
        y1 = min(b.y1, h)
        if x1 <= x0 or y1 <= y0:
            continue
        ix0 = int(math.floor(x0 / CELL_PX))
        ix1 = min(nx, int(math.ceil(x1 / CELL_PX)))
        iy0 = int(math.floor(y0 / CELL_PX))
        iy1 = min(ny, int(math.ceil(y1 / CELL_PX)))
        for iy in range(iy0, iy1):
            base = iy * nx
            for ix in range(ix0, ix1):
                occupied[base + ix] = 1
    return 1.0 - sum(occupied) / (nx * ny)


# --- strategies ---


def _position(extent):
    """A coordinate on a cell boundary, just off one, or anywhere, inside or out."""
    cells = int(extent // CELL_PX)
    boundary = st.integers(-8, cells + 8).map(lambda k: k * CELL_PX)
    near = st.tuples(boundary, st.sampled_from([-1e-9, 1e-9, -0.5, 0.5, 1.999, 2.0])).map(sum)
    anywhere = st.floats(-2.0 * extent, 2.0 * extent, allow_nan=False)
    return st.one_of(boundary, near, anywhere)


def _length(extent):
    """Zero, a whole number of cells, fractional, or longer than the view."""
    return st.one_of(
        st.just(0.0),
        st.integers(1, 16).map(lambda k: k * CELL_PX),
        st.floats(0.0, 64.0, allow_nan=False),
        st.floats(0.0, 1.5 * extent, allow_nan=False),
    )


def _edge(lo, hi):
    """A coordinate on the outer cell edge of lo or hi, just off it or a cell past it, or anywhere between."""
    edges = st.sampled_from([math.floor(lo / CELL_PX) * CELL_PX, math.ceil(hi / CELL_PX) * CELL_PX])
    offsets = st.sampled_from([0.0, -1e-9, 1e-9, -0.5, 0.5, -CELL_PX, CELL_PX])
    return st.one_of(st.tuples(edges, offsets).map(sum), st.floats(lo, hi))


@st.composite
def _nested(draw, w, h):
    """A container box 8 to 40 cells high, then boxes inside it, on its cell edges and across them.

    The container's transpose may follow too: it lies inside the container
    only if the x and y ranges were confused.
    """
    container = draw(st.builds(Rect, _position(w), _position(h), st.floats(CELL_PX, 40 * CELL_PX),
                               st.floats(8 * CELL_PX, 40 * CELL_PX)))
    boxes = [container]
    for _ in range(draw(st.integers(1, 6))):
        xs = sorted((draw(_edge(container.x, container.x1)), draw(_edge(container.x, container.x1))))
        ys = sorted((draw(_edge(container.y, container.y1)), draw(_edge(container.y, container.y1))))
        boxes.append(Rect(xs[0], ys[0], xs[1] - xs[0], ys[1] - ys[0]))
    if draw(st.booleans()):
        x, y, bw, bh = container
        boxes.insert(draw(st.integers(1, len(boxes))), Rect(y, x, bh, bw))
    return boxes


@st.composite
def viewport_and_marks(draw):
    profile = default_profile(draw(st.sampled_from(list(DeviceClass))))
    w, h = profile.width_px, profile.height_px
    if draw(st.booleans()):  # phones render in the lateral orientation
        w, h = h, w
    boxes = draw(st.lists(
        st.builds(Rect, _position(w), _position(h), _length(w), _length(h)), max_size=12))
    if draw(st.booleans()):
        whole = draw(st.sampled_from([Rect(0.0, 0.0, w, h), Rect(-5.0, -5.0, w + 10.0, h + 10.0)]))
        boxes.insert(draw(st.integers(0, len(boxes))), whole)
    for group in draw(st.lists(_nested(w, h), max_size=2)):
        at = draw(st.integers(0, len(boxes)))
        boxes[at:at] = group
    return profile, w, h, [Mark("box", box) for box in boxes]


# --- properties ---


@settings(max_examples=300, deadline=None)
@given(viewport_and_marks())
def test_blank_ratio_matches_per_cell_reference(case):
    profile, w, h, marks = case
    chart = RenderedChart(svg="<svg/>", marks=tuple(marks), viewbox=(w, h))
    assert legibility_check(chart, profile).blank_ratio == reference_blank_ratio(marks, w, h)


# --- every spec renders or raises a ChronofuseError ---

# From everyday values to spans whose arithmetic overflows a float.
VALUE_SCALES = [1.0, 1e3, 1e-300, 1e154, 1e300, sys.float_info.max]


@st.composite
def specs_and_profiles(draw):
    n = draw(st.integers(1, 400))
    stem = draw(st.text(max_size=8))
    labels = tuple(f"{stem}{i}" for i in range(n)) if draw(st.booleans()) else (stem,) * n
    rnd = draw(st.randoms(use_true_random=False))
    series = []
    for k in range(draw(st.integers(1, 6))):
        ts = sorted(rnd.sample(range(n), draw(st.integers(1, n))))
        scale = draw(st.sampled_from(VALUE_SCALES))
        if draw(st.booleans()):  # a constant series
            points = tuple((float(t), scale) for t in ts)
        else:
            points = tuple((float(t), scale * rnd.uniform(-1.0, 1.0)) for t in ts)
        series.append(Series(f"m{k}", points, draw(st.sampled_from(list(Normalization)))))
    spec = ChartSpec(draw(st.sampled_from(list(ChartKind))), tuple(series), labels)
    size = st.floats(0.0, MAX_PROFILE_SIZE, exclude_min=True)
    profile = DeviceProfile(draw(st.sampled_from(list(DeviceClass))), draw(size), draw(size),
                            draw(size), draw(st.floats(0.0, 1.0, exclude_min=True)))
    return spec, profile


def _render_and_judge(spec, profile):
    rendered = render_svg(spec, select_layout(spec, profile), profile)
    diagnostics = legibility_check(rendered, profile)
    # no text is drawn under the profile's minimum, read at the SVG's 9 decimals
    assert diagnostics.min_text_px >= round(profile.min_font_px, 9), (diagnostics, profile)
    return rendered.svg, legibility_report(diagnostics, profile)


# A constant line whose value is at least 2**53: widening it by 0.5 either way
# rounds back to the value itself.
HUGE_CONSTANT_LINE = (
    ChartSpec(ChartKind.LINE, (Series("a", ((0.0, 1e17), (1.0, 1e17), (2.0, 1e17))),), ("x", "y", "z")),
    default_profile(DeviceClass.MONITOR),
)

# One metric over 100 weekly slices on the default tablet: its labels thin
# past three rounds at the 12px base font.
_WEEKS = tuple((dt.date(2020, 1, 6) + dt.timedelta(weeks=k)).isoformat() for k in range(100))
_WEEKLY_VALUES = tuple((float(k), (k * 7 % 37 * 1.5 - 10.0) / 30.0) for k in range(100))
LONG_WEEKLY_LINE = (
    ChartSpec(ChartKind.LINE, (Series("m0", _WEEKLY_VALUES, Normalization.REFERENCE_RANGE),), _WEEKS),
    default_profile(DeviceClass.TABLET),
)


@settings(max_examples=100, deadline=None)
@given(specs_and_profiles())
@example(HUGE_CONSTANT_LINE)
@example(LONG_WEEKLY_LINE)
def test_every_chart_spec_renders_or_raises_a_chronofuse_error(case):
    spec, profile = case
    try:
        first = _render_and_judge(spec, profile)
    except ChronofuseError:
        return
    assert _render_and_judge(spec, profile) == first


# --- text runs never overlap ---

# The default devices and a smaller monitor with a larger minimum font.
TEXT_PROFILES = [*DEFAULT_PROFILES.values(), DeviceProfile(DeviceClass.MONITOR, 1280, 800, 14, 0.9)]


@st.composite
def charts_on_profiles(draw):
    """Specs of every kind with 1-6 metrics over 2-260 slots, on TEXT_PROFILES."""
    n = draw(st.integers(2, 260))
    if draw(st.booleans()):  # slice start dates, as the chart builders label slots
        start = dt.date(2020, 1, 1) + dt.timedelta(days=draw(st.integers(0, 3650)))
        step = draw(st.sampled_from([1, 7, 30, 91, 365]))
        labels = tuple((start + dt.timedelta(days=step * i)).isoformat() for i in range(n))
    else:
        stem = draw(st.text(max_size=8))
        labels = tuple(f"{stem}{i}" for i in range(n))
    rnd = draw(st.randoms(use_true_random=False))
    series = []
    for k in range(draw(st.integers(1, 6))):
        ts = sorted(rnd.sample(range(n), draw(st.integers(1, n))))
        scale = draw(st.sampled_from(VALUE_SCALES[:-1]))  # a span past the largest float is refused
        points = tuple((float(t), scale * rnd.uniform(-1.0, 1.0)) for t in ts)
        metric = draw(st.text(min_size=1, max_size=12)) if draw(st.booleans()) else f"m{k}"
        series.append(Series(metric, points, draw(st.sampled_from(list(Normalization)))))
    spec = ChartSpec(draw(st.sampled_from(list(ChartKind))), tuple(series), labels)
    return spec, draw(st.sampled_from(TEXT_PROFILES))


@settings(max_examples=200, deadline=None)
@given(charts_on_profiles())
# a one-point chart on a narrow tablet: its frame is far shorter than its plot rect
@example((ChartSpec(ChartKind.LINE, (Series("a", ((0.0, 0.0),)),), ("x",)),
          DeviceProfile(DeviceClass.TABLET, 200, 1180, 12, 0.85)))
def test_no_two_text_runs_of_a_rendered_chart_overlap(case):
    spec, profile = case
    try:
        rendered = render_svg(spec, select_layout(spec, profile), profile)
    except ChronofuseError:
        return
    texts = [m for m in rendered.marks if m.text is not None]
    for a, b in itertools.combinations(texts, 2):
        assert not a.bbox.overlaps(b.bbox), (a, b)


# --- the number formatter ---

_BOUNDARIES = [b * s for b in (1e-4, 1e6) for s in (1.0, -1.0)]
_BOUNDARIES += [math.nextafter(b, d) for b in _BOUNDARIES for d in (0.0, math.copysign(math.inf, b))]


def _magnitudes():
    """A mantissa in [1, 10) times a power of ten from 1e-320 to 1e307, either sign."""
    return st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                     st.floats(1.0, 10.0, exclude_max=True), st.integers(-320, 307),
                     st.sampled_from([1.0, -1.0]))


def _ninth_decimal_ties():
    """k + 0.5 units of the 9th decimal, which binary floats hold only approximately."""
    return st.integers(-10**15, 10**15).map(lambda k: (k + 0.5) / 1e9)


NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from(_BOUNDARIES + [0.0, -0.0, math.inf, -math.inf, 1e15, -1e15, 2.0**53]),
    _magnitudes(),
    st.integers(-2**60, 2**60).map(float),
    _ninth_decimal_ties(),
    st.integers(-10**15, 10**15).map(lambda k: k / 1e9),
)


@settings(max_examples=2000, deadline=None)
@given(NUMBERS)
@example(1e-4)
@example(1e6)
@example(999999.9999999999)
@example(0.0001000000005)
@example(-2.5e-9)
def test_report_numbers_match_the_reference_formatter(x):
    profile = default_profile(DeviceClass.TABLET)
    diagnostics = Diagnostics(out_of_view_marks=0, blank_ratio=x, min_text_px=12.0, passed=True)
    line = legibility_report(diagnostics, profile).splitlines()[1]
    rule, value, threshold, _ = line.split(": ")
    assert (rule, value, threshold) == (RULE_BLANK, reference_fmt(x), reference_fmt(profile.max_blank_ratio))
