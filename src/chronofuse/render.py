"""Device-adapted SVG rendering and machine-checkable legibility checks.

A chart spec is laid out for a device class (phone: lateral single panel,
tablet: vertical facet stack, monitor: equal-ratio grid), emitted as SVG
1.1, and audited for the classic adaptation defects: out-of-view marks,
blank space, and unreadable text. Every emitted shape and text run is
recorded in a geometry index holding the exact coordinates written to the
SVG, so the checks never need to parse or rasterize anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from xml.sax.saxutils import escape

from .charts import ChartKind, ChartSpec, Normalization, radial_bar_slots, radial_point
from .errors import PanelTooSmall

# Fixed 8-color cycle; series carry palette indices, colors repeat past 8.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)

RULE_OUT_OF_VIEW = "out of view"
RULE_BLANK = "blank space"
RULE_TEXT = "unreadable text"

OUTER_MARGIN = 12.0
PANEL_GAP = 10.0
MIN_PLOT_PX = 32.0       # plot areas below this cannot hold a legible chart
FONT_FLOOR = 8.0         # never emit text smaller than this; fail instead
BASE_TICK_FONT = 12.0
THINNING_ROUNDS = 3      # halve the tick labels at most this many times
CHAR_W = 0.6             # estimated glyph width as a fraction of font size
LABEL_GAP = 6.0
CELL_PX = 4.0            # occupancy grid resolution for the blank-space check
MAX_PROFILE_SIZE = 16384  # above every real display; bounds the legibility grid and font search

# Abstract chart boxes (chart units). Data is mapped into the box with the
# chart's own axes; the box is then scaled uniformly into the panel, which
# is what keeps mark aspect ratios intact across devices. The line box is
# wide so long time spans keep room for their tick labels.
LINE_BOX_W, LINE_BOX_H = 200.0, 90.0
BOX_PAD = 6.0
RADIAL_BOX = 120.0
R_OUTER = 50.0
R_INNER = 0.1 * R_OUTER


class DeviceClass(str, Enum):
    MONITOR = "monitor"
    TABLET = "tablet"
    PHONE = "phone"


class Orientation(str, Enum):
    LATERAL = "lateral"
    VERTICAL = "vertical"
    GRID = "grid"


@dataclass(frozen=True)
class DeviceProfile:
    """Target screen class with resolution and legibility thresholds."""

    device_class: DeviceClass
    width_px: float
    height_px: float
    dpi: float
    min_font_px: float
    max_blank_ratio: float = 0.85

    def __post_init__(self):
        sizes = (self.width_px, self.height_px, self.dpi, self.min_font_px)
        if not all(0 < n <= MAX_PROFILE_SIZE for n in sizes):
            raise ValueError(f"profile dimensions, dpi, and min font must be finite and in "
                             f"(0, {MAX_PROFILE_SIZE}]")
        if not 0 < self.max_blank_ratio <= 1:
            raise ValueError("max_blank_ratio must be in (0, 1]")


DEFAULT_PROFILES = {
    DeviceClass.MONITOR: DeviceProfile(DeviceClass.MONITOR, 1920, 1080, 96, 12),
    DeviceClass.TABLET: DeviceProfile(DeviceClass.TABLET, 820, 1180, 264, 12),
    DeviceClass.PHONE: DeviceProfile(DeviceClass.PHONE, 390, 844, 460, 10),
}


def default_profile(device_class: DeviceClass) -> DeviceProfile:
    return DEFAULT_PROFILES[device_class]


@dataclass(frozen=True)
class Rect:
    x: float
    y: float
    w: float
    h: float

    @property
    def x1(self) -> float:
        return self.x + self.w

    @property
    def y1(self) -> float:
        return self.y + self.h

    def overlaps(self, other: "Rect") -> bool:
        return self.x < other.x1 and other.x < self.x1 and self.y < other.y1 and other.y < self.y1

    def contains(self, other: "Rect", eps: float = 1e-6) -> bool:
        return (
            other.x >= self.x - eps
            and other.y >= self.y - eps
            and other.x1 <= self.x1 + eps
            and other.y1 <= self.y1 + eps
        )


@dataclass(frozen=True)
class Transform:
    """Uniform scale followed by a translation."""

    scale: float
    tx: float
    ty: float

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.scale * x + self.tx, self.scale * y + self.ty)

    def apply_rect(self, rect: Rect) -> Rect:
        x, y = self.apply(rect.x, rect.y)
        return Rect(x, y, self.scale * rect.w, self.scale * rect.h)


def scale_to_viewport(box: Rect, viewport: Rect) -> Transform:
    """Fit `box` inside `viewport` with a centered, aspect-preserving scale."""
    if box.w <= 0 or box.h <= 0 or viewport.w <= 0 or viewport.h <= 0:
        raise ValueError("box and viewport must have positive area")
    scale = min(viewport.w / box.w, viewport.h / box.h)
    tx = viewport.x + (viewport.w - scale * box.w) / 2.0 - scale * box.x
    ty = viewport.y + (viewport.h - scale * box.h) / 2.0 - scale * box.y
    return Transform(scale, tx, ty)


@dataclass(frozen=True)
class LayoutPlan:
    orientation: Orientation
    viewport: tuple[float, float]
    panels: tuple[Rect, ...]
    margins: float


@dataclass(frozen=True)
class Mark:
    """Geometry index entry: one emitted shape or text run."""

    kind: str
    bbox: Rect
    font_px: float | None = None
    text: str | None = None
    vertices: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class Diagnostics:
    out_of_view_marks: int
    blank_ratio: float
    min_text_px: float
    passed: bool
    failed_rules: tuple[str, ...] = ()


@dataclass(frozen=True)
class RenderedChart:
    svg: str
    marks: tuple[Mark, ...]
    viewbox: tuple[float, float]
    diagnostics: Diagnostics | None = None


def select_layout(spec: ChartSpec, profile: DeviceProfile) -> LayoutPlan:
    """Pick the device-appropriate arrangement of panels.

    Phones rotate to a lateral (landscape) viewport with one shared panel
    so long time spans keep their width. Tablets stack one facet per
    series vertically. Monitors arrange per-series facets in a grid of
    identical panels.
    """
    n = len(spec.series)
    w, h = profile.width_px, profile.height_px
    if profile.device_class is DeviceClass.PHONE:
        orientation, cols, count = Orientation.LATERAL, 1, 1
        w, h = max(w, h), min(w, h)
    elif profile.device_class is DeviceClass.TABLET:
        orientation, cols, count = Orientation.VERTICAL, 1, n
    else:
        orientation, cols, count = Orientation.GRID, math.ceil(math.sqrt(n)), n
    rows = math.ceil(count / cols)
    panel_w = (w - 2 * OUTER_MARGIN - PANEL_GAP * (cols - 1)) / cols
    panel_h = (h - 2 * OUTER_MARGIN - PANEL_GAP * (rows - 1)) / rows
    panels = tuple(
        Rect(
            OUTER_MARGIN + (i % cols) * (panel_w + PANEL_GAP),
            OUTER_MARGIN + (i // cols) * (panel_h + PANEL_GAP),
            panel_w,
            panel_h,
        )
        for i in range(count)
    )
    return LayoutPlan(orientation, (w, h), panels, OUTER_MARGIN)


# --- SVG emission ---


def _r(x: float) -> float:
    # One rounding step shared by the geometry index and the SVG text, so
    # the index reflects the emitted coordinates exactly.
    return round(x, 9) + 0.0


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return repr(x)
    r = _r(x)
    if r == int(r) and abs(r) < 1e15:
        return str(int(r))
    return repr(r)


class _Emitter:
    def __init__(self):
        self.parts: list[str] = []
        self.marks: list[Mark] = []

    def line(self, x0, y0, x1, y1, color, width=1.0, kind="axis"):
        x0, y0, x1, y1 = _r(x0), _r(y0), _r(x1), _r(y1)
        self.parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>'
        )
        half = width / 2.0
        bbox = Rect(min(x0, x1) - half, min(y0, y1) - half,
                    abs(x1 - x0) + width, abs(y1 - y0) + width)
        self.marks.append(Mark(kind, bbox))

    def rect(self, r: Rect, stroke, fill="none", kind="frame", width=1.0):
        r = Rect(_r(r.x), _r(r.y), _r(r.w), _r(r.h))
        self.parts.append(
            f'<rect x="{_fmt(r.x)}" y="{_fmt(r.y)}" width="{_fmt(r.w)}" height="{_fmt(r.h)}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{_fmt(width)}"/>'
        )
        self.marks.append(Mark(kind, r))

    def circle(self, cx, cy, radius, stroke, fill="none", kind="ring", width=1.0):
        cx, cy, radius = _r(cx), _r(cy), _r(radius)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{_fmt(width)}"/>'
        )
        half = width / 2.0
        bbox = Rect(cx - radius - half, cy - radius - half, 2 * (radius + half), 2 * (radius + half))
        self.marks.append(Mark(kind, bbox))

    def polyline(self, points, color, width=1.5, kind="series_line", close=False):
        pts = tuple((_r(x), _r(y)) for x, y in points)
        if close:
            pts = pts + (pts[0],)
        text = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{text}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'
        )
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        half = width / 2.0
        bbox = Rect(min(xs) - half, min(ys) - half,
                    max(xs) - min(xs) + width, max(ys) - min(ys) + width)
        self.marks.append(Mark(kind, bbox, vertices=pts))

    def path(self, d, vertices, bbox: Rect, color, kind="radial_bar"):
        self.parts.append(f'<path d="{d}" fill="{color}" stroke="none"/>')
        self.marks.append(Mark(kind, bbox, vertices=vertices))

    def text(self, x, y, content, font, anchor="middle", color="#333", kind="tick_label"):
        x, y, font = _r(x), _r(y), _r(font)
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(font)}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="Helvetica, Arial, sans-serif">{escape(content)}</text>'
        )
        width = CHAR_W * font * len(content)
        if anchor == "middle":
            x0 = x - width / 2.0
        elif anchor == "end":
            x0 = x - width
        else:
            x0 = x
        bbox = Rect(x0, y - 0.8 * font, width, font)
        self.marks.append(Mark(kind, bbox, font_px=font, text=content))


def render_svg(spec: ChartSpec, plan: LayoutPlan, profile: DeviceProfile) -> RenderedChart:
    """Render a chart spec into SVG for one device, with diagnostics attached.

    Data marks are scaled into their panels with an aspect-preserving
    uniform transform; tick text keeps its pixel size and is thinned
    (and, as a last resort, shrunk toward 8px) until it fits. Identical
    inputs produce byte-identical SVG.
    """
    n = len(spec.series)
    if len(plan.panels) not in (1, n):
        raise ValueError("layout plan does not match the chart spec's series count")
    emitter = _Emitter()
    radial = spec.kind in (ChartKind.RADIAL_LINE, ChartKind.RADIAL_BAR)
    render_panel = _render_radial_panel if radial else _render_line_panel
    last = len(plan.panels) - 1
    for i, panel in enumerate(plan.panels):
        # a single panel draws every series; stacked facets share the bottom x labels
        indices = [i] if last else list(range(n))
        with_x_labels = plan.orientation is not Orientation.VERTICAL or i == last
        render_panel(emitter, spec, panel, indices, profile, with_x_labels)
    w, h = plan.viewport
    body = "\n".join(emitter.parts)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n'
        f"{body}\n</svg>\n"
    )
    partial = RenderedChart(svg=svg, marks=tuple(emitter.marks), viewbox=(w, h))
    diagnostics = legibility_check(partial, profile)
    return RenderedChart(svg=svg, marks=partial.marks, viewbox=(w, h), diagnostics=diagnostics)


def _fit_panel(emitter, spec, panel, indices, profile, fit, *args):
    """Emit the panel's title and return (tick_font, layout) at the largest font that fits.

    The title band is sized from the base font. `fit(panel, *args, font,
    title_band)` is the chart kind's layout at one tick font, or None when
    it does not fit; the font descends 1px at a time from the base font to
    FONT_FLOOR.
    """
    base = max(BASE_TICK_FONT, profile.min_font_px)
    title_font = base + 4.0
    title_band = title_font + 10.0
    font = base
    while (layout := fit(panel, *args, font, title_band)) is None:
        font -= 1.0
        if font < FONT_FLOOR:
            raise PanelTooSmall(
                f"panel {panel.w:.0f}x{panel.h:.0f}px cannot fit the plot box at >= {FONT_FLOOR:.0f}px text"
            )
    title = ", ".join(spec.series[i].metric for i in indices)
    emitter.text(panel.x + panel.w / 2.0, panel.y + title_font, title,
                 title_font, kind="title", color="#111")
    return font, layout


def _value_bounds(spec: ChartSpec, indices) -> tuple[float, float]:
    values = [v for i in indices for _, v in spec.series[i].points]
    lo, hi = min(values), max(values)
    if spec.series[indices[0]].normalization is not Normalization.NONE:
        lo, hi = min(0.0, lo), max(1.0, hi)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5  # display-only widening for constant data
    return lo, hi


def _render_line_panel(emitter, spec, panel, indices, profile, with_x_labels):
    lo, hi = _value_bounds(spec, indices)
    n_slots = len(spec.slot_labels)

    # The fit is computed as if labels were drawn even on facets that share
    # their time axis with the bottom one, so all facet frames align.
    tick_font, (step, plot, y_ticks) = _fit_panel(
        emitter, spec, panel, indices, profile, _fit_line_panel, spec.slot_labels, lo, hi
    )

    transform = scale_to_viewport(Rect(0, 0, LINE_BOX_W, LINE_BOX_H), plot)
    frame = transform.apply_rect(Rect(0, 0, LINE_BOX_W, LINE_BOX_H))

    emitter.rect(frame, stroke="#bbbbbb", kind="frame")
    emitter.line(frame.x, frame.y1, frame.x1, frame.y1, "#444444", kind="axis")
    emitter.line(frame.x, frame.y, frame.x, frame.y1, "#444444", kind="axis")

    def data_xy(t: float, v: float) -> tuple[float, float]:
        if n_slots > 1:
            bx = BOX_PAD + (t / (n_slots - 1)) * (LINE_BOX_W - 2 * BOX_PAD)
        else:
            bx = LINE_BOX_W / 2.0
        by = LINE_BOX_H - BOX_PAD - ((v - lo) / (hi - lo)) * (LINE_BOX_H - 2 * BOX_PAD)
        return transform.apply(bx, by)

    # x ticks at the kept slice labels
    if with_x_labels:
        for slot in range(0, n_slots, step):
            x_px, _ = data_xy(float(slot), lo)
            emitter.line(x_px, frame.y1, x_px, frame.y1 + 4.0, "#444444", kind="tick")
            emitter.text(x_px, frame.y1 + 6.0 + tick_font, spec.slot_labels[slot], tick_font)
    # y ticks
    for j in range(y_ticks):
        v = lo + (hi - lo) * j / (y_ticks - 1)
        _, y_px = data_xy(0.0, v)
        emitter.line(frame.x - 4.0, y_px, frame.x, y_px, "#444444", kind="tick")
        emitter.text(frame.x - 8.0, y_px + tick_font / 3.0, f"{v:.6g}", tick_font, anchor="end")

    for i in indices:
        series = spec.series[i]
        color = PALETTE[spec.palette[i] % len(PALETTE)]
        pts = [data_xy(t, v) for t, v in series.points]
        if len(pts) > 1:
            emitter.polyline(pts, color)
        for idx, (x, y) in enumerate(pts):
            marker = "#d62728" if idx in series.out_of_range else color
            emitter.circle(x, y, 2.0, stroke=marker, fill=marker, kind="series_point")

    if len(indices) > 1:
        _render_legend(emitter, spec, indices, frame, tick_font)


def _fit_line_panel(panel, labels, lo, hi, font, title_band):
    """The line layout at one tick font, with the least thinning that fits.

    Thinning drops every other tick label per round, at most three rounds;
    past that the font must shrink. Returns (label_step, plot_rect,
    y_tick_count), or None when nothing fits at this font.
    """
    n = len(labels)
    y_labels = [f"{lo + (hi - lo) * j / 4.0:.6g}" for j in range(5)]
    gutter_left = max(CHAR_W * font * len(t) for t in y_labels) + 12.0
    gutter_bottom = font + 14.0
    plot = Rect(
        panel.x + gutter_left,
        panel.y + title_band,
        panel.w - gutter_left - 8.0,
        panel.h - title_band - gutter_bottom,
    )
    if plot.w < MIN_PLOT_PX or plot.h < MIN_PLOT_PX:
        return None
    y_ticks = 5 if plot.h >= 5 * (font + 4.0) else (3 if plot.h >= 3 * (font + 4.0) else 2)
    scale = min(plot.w / LINE_BOX_W, plot.h / LINE_BOX_H)
    inner_w = scale * (LINE_BOX_W - 2 * BOX_PAD)
    label_w = max(CHAR_W * font * len(lbl) for lbl in labels)
    for round_ in range(THINNING_ROUNDS + 1):
        step = 2 ** round_
        # a step that keeps a single label always fits
        if n <= step or inner_w * step / (n - 1) >= label_w + LABEL_GAP:
            return step, plot, y_ticks
    return None


def _render_legend(emitter, spec, indices, frame, font):
    x = frame.x + 8.0
    y = frame.y + 8.0
    for i in indices:
        color = PALETTE[spec.palette[i] % len(PALETTE)]
        emitter.rect(Rect(x, y, font, font), stroke=color, fill=color, kind="legend_swatch")
        emitter.text(x + font + 6.0, y + 0.8 * font, spec.series[i].metric, font,
                     anchor="start", kind="legend_label")
        y += font + 6.0


def _render_radial_panel(emitter, spec, panel, indices, profile, with_x_labels):
    # with_x_labels is unused: a ring has no x axis to share
    n = spec.angular_slots or len(spec.slot_labels)
    lo, hi = _value_bounds(spec, indices)
    max_label = max((len(lbl) for lbl in spec.slot_labels), default=0)
    font, region = _fit_panel(emitter, spec, panel, indices, profile, _fit_radial_panel, max_label)

    transform = scale_to_viewport(Rect(0, 0, RADIAL_BOX, RADIAL_BOX), region)
    cx, cy = transform.apply(RADIAL_BOX / 2.0, RADIAL_BOX / 2.0)
    r_out = transform.scale * R_OUTER
    r_in = transform.scale * R_INNER

    emitter.circle(cx, cy, r_out, stroke="#bbbbbb")
    emitter.circle(cx, cy, r_in, stroke="#dddddd")

    def polar_xy(angle: float, radius_units: float) -> tuple[float, float]:
        # Angles run clockwise from 12 o'clock; SVG y grows downward.
        r_px = transform.scale * radius_units
        return (cx + r_px * math.sin(angle), cy - r_px * math.cos(angle))

    if spec.kind is ChartKind.RADIAL_LINE:
        for i in indices:
            series = spec.series[i]
            color = PALETTE[spec.palette[i] % len(PALETTE)]
            vertices = []
            for t, v in series.points:
                angle, radius = radial_point(int(t), n, v, lo, hi, R_INNER, R_OUTER)
                vertices.append(polar_xy(angle, radius))
            emitter.polyline(vertices, color, kind="radial_polygon", close=True)
    else:
        slots = radial_bar_slots(n, len(indices))
        by_slot = []  # per series: slot -> the first point in that slot
        for i in indices:
            first = {}
            for p in spec.series[i].points:
                first.setdefault(int(p[0]), p)
            by_slot.append(first)
        for slot_idx, series_pos in ((s, j) for s in range(n) for j in range(len(indices))):
            i = indices[series_pos]
            point = by_slot[series_pos].get(slot_idx)
            if point is None:
                continue
            _, radius = radial_point(slot_idx, n, point[1], lo, hi, R_INNER, R_OUTER)
            start, width = slots[slot_idx * len(indices) + series_pos]
            color = PALETTE[spec.palette[i] % len(PALETTE)]
            _emit_sector(emitter, polar_xy, start, start + width, R_INNER, radius, color)

    # Four cardinal slot labels (dates) just outside the outer ring.
    for slot in sorted({0, n // 4, n // 2, (3 * n) // 4}):
        if slot >= len(spec.slot_labels):
            continue
        angle = 2.0 * math.pi * slot / n
        x, y = polar_xy(angle, R_OUTER)
        x += 10.0 * math.sin(angle)
        y -= 10.0 * math.cos(angle)
        anchor = "middle"
        if math.sin(angle) > 0.1:
            anchor = "start"
        elif math.sin(angle) < -0.1:
            anchor = "end"
        if math.cos(angle) > 0.9:
            y -= 2.0
        elif math.cos(angle) < -0.9:
            y += font
        else:
            y += font / 3.0
        emitter.text(x, y, spec.slot_labels[slot], font, anchor=anchor, kind="slot_label")


def _fit_radial_panel(panel, max_label, font, title_band):
    """The ring's region at one slot-label font, or None when it is too small."""
    inset_lr = CHAR_W * font * max_label + 16.0
    inset_tb = font + 16.0
    region = Rect(
        panel.x + inset_lr,
        panel.y + title_band + inset_tb,
        panel.w - 2 * inset_lr,
        panel.h - title_band - 2 * inset_tb,
    )
    if region.w < MIN_PLOT_PX or region.h < MIN_PLOT_PX:
        return None
    return region


def _emit_sector(emitter, polar_xy, a0, a1, r0_units, r1_units, color):
    p00 = polar_xy(a0, r0_units)
    p01 = polar_xy(a0, r1_units)
    p11 = polar_xy(a1, r1_units)
    p10 = polar_xy(a1, r0_units)
    zero = polar_xy(0.0, 0.0)
    r1_px = math.hypot(p01[0] - zero[0], p01[1] - zero[1])
    r0_px = math.hypot(p00[0] - zero[0], p00[1] - zero[1])
    large = 1 if (a1 - a0) > math.pi else 0
    pts = [(_r(x), _r(y)) for x, y in (p00, p01, p11, p10)]
    d = (
        f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} "
        f"L {_fmt(pts[1][0])} {_fmt(pts[1][1])} "
        f"A {_fmt(r1_px)} {_fmt(r1_px)} 0 {large} 1 {_fmt(pts[2][0])} {_fmt(pts[2][1])} "
        f"L {_fmt(pts[3][0])} {_fmt(pts[3][1])} "
        f"A {_fmt(r0_px)} {_fmt(r0_px)} 0 {large} 0 {_fmt(pts[0][0])} {_fmt(pts[0][1])} Z"
    )
    candidates = list(pts)
    for radius_units in (r0_units, r1_units):
        for k in range(5):
            cardinal = k * math.pi / 2.0
            if a0 <= cardinal <= a1:
                candidates.append(tuple(_r(c) for c in polar_xy(cardinal, radius_units)))
    xs = [p[0] for p in candidates]
    ys = [p[1] for p in candidates]
    bbox = Rect(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))
    emitter.path(d, tuple(pts), bbox, color)


# --- legibility diagnostics ---


def legibility_check(rendered: RenderedChart, profile: DeviceProfile) -> Diagnostics:
    """Audit a rendered chart against the profile's legibility thresholds.

    out_of_view_marks counts marks whose bounding box exits the viewBox.
    blank_ratio is 1 minus the occupied share of a 4px occupancy grid over
    the viewport, where a cell is occupied when any mark box overlaps it
    with positive area. min_text_px is the smallest emitted font (inf when
    the chart has no text).
    """
    w, h = rendered.viewbox
    view = Rect(0.0, 0.0, w, h)
    out_of_view = sum(1 for mark in rendered.marks if not view.contains(mark.bbox))
    blank = _blank_ratio(rendered.marks, w, h)
    fonts = [m.font_px for m in rendered.marks if m.font_px is not None]
    min_text = min(fonts) if fonts else math.inf
    failed = [rule for rule, _, _, fails in _rules(out_of_view, blank, min_text, profile) if fails]
    return Diagnostics(
        out_of_view_marks=out_of_view,
        blank_ratio=blank,
        min_text_px=min_text,
        passed=not failed,
        failed_rules=tuple(failed),
    )


def _blank_ratio(marks, w: float, h: float) -> float:
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
        span = ix1 - ix0
        if span <= 0:
            continue
        row = b"\x01" * span
        for iy in range(iy0, iy1):
            base = iy * nx + ix0
            occupied[base:base + span] = row
    return 1.0 - occupied.count(1) / (nx * ny)


def _rules(out_of_view, blank, min_text, profile) -> tuple[tuple[str, float, float, bool], ...]:
    """(rule, value, threshold, fails) for each legibility rule, in report order."""
    return (
        (RULE_OUT_OF_VIEW, out_of_view, 0, out_of_view > 0),
        (RULE_BLANK, blank, profile.max_blank_ratio, blank > profile.max_blank_ratio),
        (RULE_TEXT, min_text, profile.min_font_px, min_text < profile.min_font_px),
    )


def legibility_report(diagnostics: Diagnostics, profile: DeviceProfile) -> str:
    """Line-oriented diagnostics: `rule: value: threshold: pass|fail`."""
    rules = _rules(diagnostics.out_of_view_marks, diagnostics.blank_ratio, diagnostics.min_text_px, profile)
    lines = [
        f"{rule}: {_fmt(value)}: {_fmt(threshold)}: {'fail' if fails else 'pass'}"
        for rule, value, threshold, fails in rules
    ]
    verdict = "pass" if diagnostics.passed else "fail: " + ", ".join(diagnostics.failed_rules)
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"
