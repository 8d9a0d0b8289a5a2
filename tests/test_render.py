import math
import random
import xml.etree.ElementTree as ET

import pytest

from chronofuse import (
    DeviceClass,
    DeviceProfile,
    Mark,
    Normalization,
    Orientation,
    Rect,
    RenderedChart,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
    default_profile,
    legibility_check,
    render_svg,
    scale_to_viewport,
    select_layout,
)
from chronofuse.charts import ChartSpec, Series
from chronofuse.errors import PanelTooSmall
from chronofuse.render import CELL_PX, LINE_BOX_H, LINE_BOX_W, RULE_BLANK, RULE_OUT_OF_VIEW, RULE_TEXT


def synthetic_spec(n_series: int, n_points: int = 4) -> ChartSpec:
    series = tuple(
        Series(
            metric=f"metric_{i}",
            points=tuple((float(t), (t + i) % 3 / 2.0) for t in range(n_points)),
            normalization=Normalization.MIN_MAX,
        )
        for i in range(n_series)
    )
    labels = tuple(f"2021-01-{d + 1:02d}" for d in range(n_points))
    return ChartSpec(
        kind=ChartKind_for(n_series),
        series=series,
        slot_labels=labels,
    )


def ChartKind_for(n):
    from chronofuse import ChartKind

    return ChartKind.LINE if n == 1 else ChartKind.COMPOUND_LINE


@pytest.fixture(scope="module")
def line_spec(weekly_table):
    return build_line_chart(weekly_table)


# --- select_layout ---


def test_phone_layout_is_lateral():
    plan = select_layout(synthetic_spec(2), default_profile(DeviceClass.PHONE))
    assert plan.orientation is Orientation.LATERAL
    assert plan.viewport == (844, 390)
    assert len(plan.panels) == 1


def test_tablet_layout_stacks_facets():
    plan = select_layout(synthetic_spec(3), default_profile(DeviceClass.TABLET))
    assert plan.orientation is Orientation.VERTICAL
    assert len(plan.panels) == 3
    xs = {p.rect.x for p in plan.panels}
    assert len(xs) == 1
    ys = [p.rect.y for p in plan.panels]
    assert ys == sorted(ys) and len(set(ys)) == 3


def test_monitor_layout_grid_equal_ratio():
    plan = select_layout(synthetic_spec(4), default_profile(DeviceClass.MONITOR))
    assert plan.orientation is Orientation.GRID
    assert len(plan.panels) == 4  # ceil(sqrt(4)) = 2 columns, 2 rows
    ratios = {round(p.rect.w / p.rect.h, 9) for p in plan.panels}
    assert len(ratios) == 1


def test_layout_totality_non_overlapping():
    # brute-force pairwise overlap oracle over 1..16 facets, all classes;
    # only the tablet's strips for 13 or more facets are too thin to fit
    too_small = set()
    for n in range(1, 17):
        spec = synthetic_spec(n)
        for device in DeviceClass:
            try:
                plan = select_layout(spec, default_profile(device))
            except PanelTooSmall:
                too_small.add((device, n))
                continue
            view = Rect(0, 0, plan.viewport[0], plan.viewport[1])
            rects = [panel.rect for panel in plan.panels]
            for i, a in enumerate(rects):
                assert view.contains(a), (device, n)
                for b in rects[i + 1:]:
                    assert not a.overlaps(b), (device, n)
    assert too_small == {(DeviceClass.TABLET, n) for n in range(13, 17)}


# --- scale_to_viewport ---


def test_scale_wide_box_centered_vertically():
    t = scale_to_viewport(Rect(0, 0, 100, 50), Rect(0, 0, 200, 200))
    assert t.scale == 2.0
    assert t.apply(0, 0) == (0.0, 50.0)
    assert t.apply(100, 50) == (200.0, 150.0)


def test_scale_identity():
    t = scale_to_viewport(Rect(0, 0, 120, 80), Rect(0, 0, 120, 80))
    assert (t.scale, t.tx, t.ty) == (1.0, 0.0, 0.0)


def test_scale_down():
    t = scale_to_viewport(Rect(0, 0, 200, 100), Rect(0, 0, 100, 100))
    assert t.scale == 0.5


def test_scale_preserves_aspect_ratio():
    rng = random.Random(11)
    for _ in range(100):
        box = Rect(rng.uniform(-10, 10), rng.uniform(-10, 10),
                   rng.uniform(0.1, 500), rng.uniform(0.1, 500))
        view = Rect(0, 0, rng.uniform(10, 2000), rng.uniform(10, 2000))
        scaled = scale_to_viewport(box, view).apply_rect(box)
        assert scaled.w / scaled.h == pytest.approx(box.w / box.h, rel=1e-9)
        assert view.contains(scaled, eps=1e-6)


# --- render_svg ---


def test_monitor_render_passes_legibility(line_spec):
    profile = default_profile(DeviceClass.MONITOR)
    rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
    # oracle: run the check independently of the attached diagnostics
    assert legibility_check(rendered, profile).passed
    assert rendered.diagnostics.passed


def test_render_is_deterministic(line_spec):
    profile = default_profile(DeviceClass.PHONE)
    plan = select_layout(line_spec, profile)
    first = render_svg(line_spec, plan, profile)
    second = render_svg(line_spec, plan, profile)
    assert first.svg == second.svg
    assert first.marks == second.marks


def test_render_tiny_panel_fails():
    spec = synthetic_spec(1)
    profile = DeviceProfile(DeviceClass.MONITOR, 1, 1, 12)
    with pytest.raises(PanelTooSmall):
        select_layout(spec, profile)


@pytest.mark.parametrize("device", list(DeviceClass))
@pytest.mark.parametrize(("planned", "drawn"), [(2, 3), (3, 2)])
def test_render_refuses_a_plan_of_another_series_count(device, planned, drawn):
    # every series of the spec is drawn exactly once, or the plan is refused
    profile = default_profile(device)
    plan = select_layout(synthetic_spec(planned), profile)
    with pytest.raises(ValueError, match="layout plan does not match the chart spec's series"):
        render_svg(synthetic_spec(drawn), plan, profile)


@pytest.mark.xfail(strict=True, reason="the line fit reserves a fixed 8px right of the plot, not half a "
                                       "label, so the right column's last x tick label runs past the view")
def test_right_column_line_chart_on_a_small_monitor_keeps_its_tick_labels_in_view():
    spec = synthetic_spec(2, 3)
    profile = DeviceProfile(DeviceClass.MONITOR, 1280, 800, 14, 0.9)
    rendered = render_svg(spec, select_layout(spec, profile), profile)
    assert rendered.diagnostics.passed, rendered.diagnostics


def test_render_escapes_metric_names():
    spec = synthetic_spec(1)
    series = spec.series[0]
    spiky = ChartSpec(
        kind=spec.kind,
        series=(Series("a<b> & c", series.points, series.normalization),),
        slot_labels=spec.slot_labels,
    )
    profile = default_profile(DeviceClass.MONITOR)
    rendered = render_svg(spiky, select_layout(spiky, profile), profile)
    ET.fromstring(rendered.svg)
    assert "a&lt;b&gt; &amp; c" in rendered.svg


def test_render_single_slice_chart():
    spec = ChartSpec(
        kind=ChartKind_for(1),
        series=(Series("solo", ((0.0, 0.5),), Normalization.MIN_MAX),),
        slot_labels=("2021-01-01",),
    )
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(spec, select_layout(spec, profile), profile)
        assert rendered.diagnostics.out_of_view_marks == 0
        points = [m for m in rendered.marks if m.kind == "series_point"]
        assert len(points) == 1


def test_render_well_formed_xml(line_spec):
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
        root = ET.fromstring(rendered.svg)
        assert root.tag.endswith("svg")
        w, h = rendered.viewbox
        assert root.attrib["viewBox"] == f"0 0 {w:g} {h:g}"
        assert float(root.attrib["width"]) == w
        assert float(root.attrib["height"]) == h


def test_passing_render_keeps_marks_in_view(line_spec):
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
        assert rendered.diagnostics.passed
        view = Rect(0, 0, *rendered.viewbox)
        for mark in rendered.marks:
            assert view.contains(mark.bbox)


def test_frame_marks_preserve_plot_box_aspect(line_spec):
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
        frames = [m for m in rendered.marks if m.kind == "frame"]
        assert frames
        for frame in frames:
            assert frame.bbox.w / frame.bbox.h == pytest.approx(
                LINE_BOX_W / LINE_BOX_H, rel=1e-9
            )


def test_render_matches_committed_goldens(line_spec, fixtures_dir):
    # bit-exact per-profile goldens for the fixture chart
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
        golden_svg = (fixtures_dir / "golden" / f"line-{device.value}.svg").read_text(encoding="utf-8")
        assert rendered.svg == golden_svg, f"SVG drifted for {device.value}"
        from chronofuse import legibility_report

        golden_diag = (fixtures_dir / "golden" / f"line-{device.value}-diagnostics.txt").read_text(
            encoding="utf-8"
        )
        assert legibility_report(rendered.diagnostics, profile) == golden_diag


@pytest.mark.parametrize("kind, build", [("radial", build_radial_chart),
                                         ("radial-bar", build_radial_bar_chart)])
def test_radial_render_matches_committed_goldens(weekly_table, fixtures_dir, kind, build):
    # bit-exact per-profile goldens for the fixture table drawn as a ring
    from chronofuse import legibility_report

    spec = build(weekly_table)
    for device in DeviceClass:
        profile = default_profile(device)
        rendered = render_svg(spec, select_layout(spec, profile), profile)
        golden = fixtures_dir / "golden"
        golden_svg = (golden / f"{kind}-{device.value}.svg").read_text(encoding="utf-8")
        assert rendered.svg == golden_svg, f"{kind} SVG drifted for {device.value}"
        golden_diag = (golden / f"{kind}-{device.value}-diagnostics.txt").read_text(encoding="utf-8")
        assert legibility_report(rendered.diagnostics, profile) == golden_diag


@pytest.mark.parametrize("kind, build", [("line", build_line_chart),
                                         ("radial-bar", build_radial_bar_chart)])
def test_windowed_render_matches_committed_goldens(weekly_table, fixtures_dir, kind, build):
    # the window of the CI quick start's `--from 2021-03-03 --to 2021-09-29` renders,
    # which start and end inside a week
    import datetime as dt

    from chronofuse import TimePoint, legibility_report

    window = (TimePoint.day(dt.date(2021, 3, 3)), TimePoint.day(dt.date(2021, 9, 29)))
    spec = build(weekly_table, time_range=window)
    profile = default_profile(DeviceClass.MONITOR)
    rendered = render_svg(spec, select_layout(spec, profile), profile)
    golden = fixtures_dir / "golden" / "window"
    assert rendered.svg == (golden / f"{kind}-monitor.svg").read_text(encoding="utf-8")
    diagnostics = legibility_report(rendered.diagnostics, profile)
    assert diagnostics == (golden / f"{kind}-monitor-diagnostics.txt").read_text(encoding="utf-8")
    assert rendered.diagnostics.passed


def test_radial_polygon_closes(weekly_table):
    spec = build_radial_chart(weekly_table, ["glucose"])
    profile = default_profile(DeviceClass.MONITOR)
    rendered = render_svg(spec, select_layout(spec, profile), profile)
    polygons = [m for m in rendered.marks if m.kind == "radial_polygon"]
    assert len(polygons) == 1
    vertices = polygons[0].vertices
    assert vertices[0] == vertices[-1]
    assert len(vertices) == len(spec.series[0].points) + 1


def _element_vertices(element):
    """The vertices an SVG polyline or sector path writes, each number read with float()."""
    if element.tag.endswith("polyline"):
        return tuple(tuple(map(float, pair.split(","))) for pair in element.attrib["points"].split(" "))
    # M p0 L p1 A rx ry rot large sweep p2 L p3 A rx ry rot large sweep p0 Z
    tokens = element.attrib["d"].split(" ")
    points = []
    i = 0
    while tokens[i] != "Z":
        i += 6 if tokens[i] == "A" else 1
        points.append((float(tokens[i]), float(tokens[i + 1])))
        i += 2
    assert points[-1] == points[0]
    return tuple(points[:-1])


@pytest.mark.parametrize("build", [build_line_chart, build_radial_chart, build_radial_bar_chart])
@pytest.mark.parametrize("device", list(DeviceClass))
def test_geometry_index_vertices_are_what_the_svg_reads_back_as(weekly_table, build, device):
    spec = build(weekly_table)
    profile = default_profile(device)
    rendered = render_svg(spec, select_layout(spec, profile), profile)
    elements = [e for e in ET.fromstring(rendered.svg) if e.tag.rsplit("}", 1)[-1] in ("polyline", "path")]
    marks = [m for m in rendered.marks if m.vertices is not None]
    assert elements and len(elements) == len(marks)
    for element, mark in zip(elements, marks):
        assert _element_vertices(element) == mark.vertices


# --- legibility_check ---


def synthetic_chart(marks, w=100.0, h=100.0):
    return RenderedChart(svg="<svg/>", marks=tuple(marks), viewbox=(w, h))


def oracle_blank_ratio(marks, w, h):
    nx, ny = math.ceil(w / CELL_PX), math.ceil(h / CELL_PX)
    occupied = 0
    for iy in range(ny):
        for ix in range(nx):
            cx0, cy0 = ix * CELL_PX, iy * CELL_PX
            cx1, cy1 = cx0 + CELL_PX, cy0 + CELL_PX
            for mark in marks:
                b = mark.bbox
                ox = min(b.x1, cx1, w) - max(b.x, cx0, 0.0)
                oy = min(b.y1, cy1, h) - max(b.y, cy0, 0.0)
                if ox > 0 and oy > 0:
                    occupied += 1
                    break
    return 1.0 - occupied / (nx * ny)


def test_geometry_records_are_immutable_hashable_values():
    box = Rect(1.0, 2.0, 3.0, 4.5)
    mark = Mark("tick_label", box, font_px=12.0, text="a", vertices=((1.0, 2.0),))
    for record, field in ((box, "x"), (mark, "bbox")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert Rect(1.0, 2.0, 3.0, 4.5) == box and hash(Rect(1.0, 2.0, 3.0, 4.5)) == hash(box)
    twin = Mark("tick_label", Rect(1.0, 2.0, 3.0, 4.5), 12.0, "a", ((1.0, 2.0),))
    assert twin == mark and hash(twin) == hash(mark)
    assert repr(box) == "Rect(x=1.0, y=2.0, w=3.0, h=4.5)"
    assert repr(Mark("box", box)) == (
        "Mark(kind='box', bbox=Rect(x=1.0, y=2.0, w=3.0, h=4.5), font_px=None, text=None, vertices=None)"
    )
    assert (box.x1, box.y1) == (4.0, 6.5)


def test_all_marks_inside_means_zero_out_of_view():
    chart = synthetic_chart([Mark("box", Rect(10, 10, 20, 20)), Mark("box", Rect(50, 50, 10, 5))])
    diag = legibility_check(chart, default_profile(DeviceClass.MONITOR))
    assert diag.out_of_view_marks == 0


def test_out_of_view_counts_exiting_marks():
    chart = synthetic_chart([Mark("box", Rect(95, 95, 20, 20)), Mark("box", Rect(-5, 0, 10, 10))])
    diag = legibility_check(chart, default_profile(DeviceClass.MONITOR))
    assert diag.out_of_view_marks == 2
    assert RULE_OUT_OF_VIEW in diag.failed_rules


def test_blank_ratio_matches_oracle_for_sparse_panel():
    marks = [Mark("box", Rect(0, 0, 10, 10))]
    chart = synthetic_chart(marks)
    expected = oracle_blank_ratio(marks, 100.0, 100.0)
    diag = legibility_check(chart, default_profile(DeviceClass.MONITOR))
    assert diag.blank_ratio == expected == 1.0 - 9 / 625
    assert diag.blank_ratio > 0.98
    assert RULE_BLANK in diag.failed_rules


def test_blank_ratio_matches_oracle_random_marks():
    rng = random.Random(13)
    marks = [
        Mark("box", Rect(rng.uniform(-20, 110), rng.uniform(-20, 110),
                         rng.uniform(0.5, 40), rng.uniform(0.5, 40)))
        for _ in range(25)
    ]
    chart = synthetic_chart(marks, 120.0, 80.0)
    diag = legibility_check(chart, default_profile(DeviceClass.MONITOR))
    assert diag.blank_ratio == pytest.approx(oracle_blank_ratio(marks, 120.0, 80.0), abs=1e-12)


def test_small_text_fails_named_rule():
    marks = [Mark("box", Rect(0, 0, 100, 100)), Mark("label", Rect(10, 10, 30, 6), font_px=6.0)]
    diag = legibility_check(synthetic_chart(marks), default_profile(DeviceClass.MONITOR))
    assert diag.min_text_px == 6.0
    assert not diag.passed
    assert RULE_TEXT in diag.failed_rules
    assert RULE_BLANK not in diag.failed_rules


def test_no_text_passes_vacuously():
    marks = [Mark("box", Rect(0, 0, 100, 100))]
    diag = legibility_check(synthetic_chart(marks), default_profile(DeviceClass.MONITOR))
    assert diag.min_text_px == math.inf
    assert diag.passed


def test_enlarging_viewport_never_increases_out_of_view(line_spec):
    base = default_profile(DeviceClass.MONITOR)
    counts = []
    for factor in (1.0, 1.5, 2.0):
        profile = DeviceProfile(
            DeviceClass.MONITOR, base.width_px * factor, base.height_px * factor,
            base.min_font_px,
        )
        rendered = render_svg(line_spec, select_layout(line_spec, profile), profile)
        counts.append(rendered.diagnostics.out_of_view_marks)
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 0
