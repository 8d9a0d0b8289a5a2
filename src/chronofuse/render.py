"""Device-adapted SVG rendering and machine-checkable legibility checks.

A chart spec is laid out for a device class (phone: lateral single panel,
tablet: vertical facet stack, monitor: equal-ratio grid), emitted as SVG
1.1, and audited for the classic adaptation defects: out-of-view marks,
blank space, and unreadable text. Every emitted shape and text run is
recorded in a geometry index holding the exact coordinates written to the
SVG, so the checks never need to parse or rasterize anything.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .charts import ChartKind, ChartSpec, Normalization, radial_bar_slots, radial_point
from .errors import DegenerateValueRange, PanelTooSmall

# Fixed 8-color cycle; series i takes color i, colors repeat past 8.
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
BASE_TICK_FONT = 12.0
CHAR_W = 0.6             # estimated glyph width as a fraction of font size
LABEL_GAP = 6.0
CELL_PX = 4.0            # occupancy grid resolution for the blank-space check
TALL_ROWS = 8            # the grid skips marks inside a set mark more grid rows tall than this
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
    min_font_px: float
    max_blank_ratio: float = 0.85

    def __post_init__(self):
        sizes = (self.width_px, self.height_px, self.min_font_px)
        if not all(0 < n <= MAX_PROFILE_SIZE for n in sizes):
            raise ValueError(f"profile dimensions and min font must be finite and in "
                             f"(0, {MAX_PROFILE_SIZE}]")
        if not 0 < self.max_blank_ratio <= 1:
            raise ValueError("max_blank_ratio must be in (0, 1]")


DEFAULT_PROFILES = {
    DeviceClass.MONITOR: DeviceProfile(DeviceClass.MONITOR, 1920, 1080, 12),
    DeviceClass.TABLET: DeviceProfile(DeviceClass.TABLET, 820, 1180, 12),
    DeviceClass.PHONE: DeviceProfile(DeviceClass.PHONE, 390, 844, 10),
}


def default_profile(device_class: DeviceClass) -> DeviceProfile:
    return DEFAULT_PROFILES[device_class]


class Rect(NamedTuple):
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


class Panel(NamedTuple):
    """A fitted panel; `layout` is the line fit's (label_step, plot, y_ticks) or the ring's region."""

    rect: Rect
    indices: tuple[int, ...]
    bounds: tuple[float, float]
    title: str
    title_font: float
    tick_font: float
    layout: tuple[int, Rect, int] | Rect
    x_labels: bool


@dataclass(frozen=True)
class LayoutPlan:
    orientation: Orientation
    viewport: tuple[float, float]
    panels: tuple[Panel, ...]
    spec: ChartSpec = field(repr=False, compare=False)  # the spec the panels were fitted for


class Mark(NamedTuple):
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
    """Pick the device-appropriate arrangement of panels and fit each one.

    Phones rotate to a lateral (landscape) viewport with one shared panel
    so long time spans keep their width. Tablets stack one facet per
    series vertically. Monitors arrange per-series facets in a grid of
    identical panels.

    A font search that emits nothing fits each panel: tick labels are
    thinned until they fit, and the font shrinks 1px at a time, never under
    the profile's min_font_px, only where the gutters leave too small a
    plot box. A panel with no fit at a legible font raises PanelTooSmall.
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
    radial = spec.kind in (ChartKind.RADIAL_LINE, ChartKind.RADIAL_BAR)
    fit = _fit_radial_panel if radial else _fit_line_panel
    base = max(BASE_TICK_FONT, profile.min_font_px)
    title_font = base + 4.0
    title_band = title_font + 10.0
    panels = []
    for i in range(count):
        rect = Rect(
            OUTER_MARGIN + (i % cols) * (panel_w + PANEL_GAP),
            OUTER_MARGIN + (i // cols) * (panel_h + PANEL_GAP),
            panel_w,
            panel_h,
        )
        # a single panel draws every series; stacked facets share the bottom x labels
        indices = (i,) if count > 1 else tuple(range(n))
        lo, hi = _value_bounds(spec, indices)
        font = base
        while (layout := fit(rect, spec.slot_labels, lo, hi, font, title_band)) is None:
            font -= 1.0
            if font < profile.min_font_px:
                raise PanelTooSmall(f"panel {rect.w:.0f}x{rect.h:.0f}px cannot fit the plot box "
                                    f"at >= {profile.min_font_px:g}px text")
        title = ", ".join(spec.series[j].metric for j in indices)
        x_labels = orientation is not Orientation.VERTICAL or i == count - 1
        panels.append(Panel(rect, indices, (lo, hi), title, title_font, font, layout, x_labels))
    return LayoutPlan(orientation, (w, h), tuple(panels), spec)


# --- SVG emission ---


def _r(x: float) -> float:
    """x rounded to 9 decimals, with -0.0 as 0.0: the value _fmt(x)'s text reads back as."""
    return round(x, 9) + 0.0


def _fmt(x: float) -> str:
    """The SVG text of x: rounded to 9 decimals, shortest form, integral values without '.0'.

    float() of the text is exactly _r(x), so the geometry index stores what
    the SVG reads back as.
    """
    if 1e-4 <= abs(x) < 1e6:
        # %.9f rounds as round(x, 9) does, and its at most 15 significant
        # digits are repr's shortest, fixed-point text for that double
        text = ("%.9f" % x).rstrip("0")
        return text[:-1] if text[-1] == "." else text
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
        sx0, sy0, sx1, sy1 = _fmt(x0), _fmt(y0), _fmt(x1), _fmt(y1)
        x0, y0, x1, y1 = float(sx0), float(sy0), float(sx1), float(sy1)
        self.parts.append(
            f'<line x1="{sx0}" y1="{sy0}" x2="{sx1}" y2="{sy1}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"/>'
        )
        half = width / 2.0
        bbox = Rect(min(x0, x1) - half, min(y0, y1) - half,
                    abs(x1 - x0) + width, abs(y1 - y0) + width)
        self.marks.append(Mark(kind, bbox))

    def rect(self, r: Rect, stroke, fill="none", kind="frame", width=1.0):
        sx, sy, sw, sh = _fmt(r.x), _fmt(r.y), _fmt(r.w), _fmt(r.h)
        r = Rect(float(sx), float(sy), float(sw), float(sh))
        self.parts.append(
            f'<rect x="{sx}" y="{sy}" width="{sw}" height="{sh}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{_fmt(width)}"/>'
        )
        self.marks.append(Mark(kind, r))

    def circle(self, cx, cy, radius, stroke, fill="none", kind="ring", width=1.0):
        scx, scy, sr = _fmt(cx), _fmt(cy), _fmt(radius)
        cx, cy, radius = float(scx), float(scy), float(sr)
        self.parts.append(
            f'<circle cx="{scx}" cy="{scy}" r="{sr}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{_fmt(width)}"/>'
        )
        half = width / 2.0
        bbox = Rect(cx - radius - half, cy - radius - half, 2 * (radius + half), 2 * (radius + half))
        self.marks.append(Mark(kind, bbox))

    def polyline(self, points, color, width=1.5, kind="series_line", close=False):
        texts = [(_fmt(x), _fmt(y)) for x, y in points]
        if close:
            texts.append(texts[0])
        pts = tuple((float(x), float(y)) for x, y in texts)
        text = " ".join([f"{x},{y}" for x, y in texts])
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
        sx, sy, sfont = _fmt(x), _fmt(y), _fmt(font)
        x, y, font = float(sx), float(sy), float(sfont)
        self.parts.append(
            f'<text x="{sx}" y="{sy}" font-size="{sfont}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="Helvetica, Arial, sans-serif">{html.escape(content, quote=False)}</text>'
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
    """Draw a chart spec's fitted layout plan as SVG, with diagnostics attached.

    Each panel's title and marks, data scaled in uniformly, are drawn at
    the fonts and layout that `select_layout` fitted; nothing is searched
    here. Identical inputs give identical SVG.
    """
    if plan.spec != spec:
        raise ValueError("layout plan does not match the chart spec's series")
    emitter = _Emitter()
    radial = spec.kind in (ChartKind.RADIAL_LINE, ChartKind.RADIAL_BAR)
    draw = _draw_radial_panel if radial else _draw_line_panel
    for panel in plan.panels:
        rect, font = panel.rect, panel.title_font
        emitter.text(rect.x + rect.w / 2.0, rect.y + font, panel.title, font, kind="title", color="#111")
        draw(emitter, spec, panel)
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


def _value_bounds(spec: ChartSpec, indices) -> tuple[float, float]:
    values = [v for i in indices for _, v in spec.series[i].points]
    lo, hi = min(values), max(values)
    if spec.series[indices[0]].normalization is not Normalization.NONE:
        lo, hi = min(0.0, lo), max(1.0, hi)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5  # display-only widening for constant data
        if lo == hi:  # the value is so large that rounding undoes the widening
            raise DegenerateValueRange(f"constant value {lo!r} is too large to widen into a range")
    if not math.isfinite(4.0 * (hi - lo)):  # the y ticks step by a quarter of this span
        raise DegenerateValueRange(f"value range {lo!r}..{hi!r} is too wide to draw")
    return lo, hi


def _draw_line_panel(emitter, spec, panel):
    # fitted as if every facet drew x labels, so all facet frames align
    step, plot, y_ticks = panel.layout
    (lo, hi), tick_font = panel.bounds, panel.tick_font
    n_slots = len(spec.slot_labels)
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
    if panel.x_labels:
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

    for i in panel.indices:
        series = spec.series[i]
        color = PALETTE[i % len(PALETTE)]
        pts = [data_xy(t, v) for t, v in series.points]
        if len(pts) > 1:
            emitter.polyline(pts, color)
        outside = series.out_of_range
        for idx, (x, y) in enumerate(pts):
            marker = "#d62728" if idx in outside else color
            emitter.circle(x, y, 2.0, stroke=marker, fill=marker, kind="series_point")

    if len(panel.indices) > 1:  # the legend
        x, y = frame.x + 8.0, frame.y + 8.0
        for i in panel.indices:
            color = PALETTE[i % len(PALETTE)]
            emitter.rect(Rect(x, y, tick_font, tick_font), stroke=color, fill=color, kind="legend_swatch")
            emitter.text(x + tick_font + 6.0, y + 0.8 * tick_font, spec.series[i].metric, tick_font,
                         anchor="start", kind="legend_label")
            y += tick_font + 6.0


def _fit_line_panel(panel, labels, lo, hi, font, title_band):
    """The line layout at one tick font, with the least thinning that fits.

    Thinning doubles the label step until the labels fit. Returns
    (label_step, plot_rect, y_tick_count), or None when the plot box is too
    small at this font.
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
    scale = min(plot.w / LINE_BOX_W, plot.h / LINE_BOX_H)
    frame_h = scale * LINE_BOX_H  # a width-bound frame is shorter than the plot rect
    y_ticks = 5 if frame_h >= 5 * (font + 4.0) else (3 if frame_h >= 3 * (font + 4.0) else 2)
    inner_w = scale * (LINE_BOX_W - 2 * BOX_PAD)
    label_w = max(CHAR_W * font * len(lbl) for lbl in labels)
    step = 1
    # a step that keeps a single label always fits
    while n > step and inner_w * step / (n - 1) < label_w + LABEL_GAP:
        step *= 2
    return step, plot, y_ticks


def _draw_radial_panel(emitter, spec, panel):
    n = len(spec.slot_labels)
    indices, (lo, hi), font = panel.indices, panel.bounds, panel.tick_font
    transform = scale_to_viewport(Rect(0, 0, RADIAL_BOX, RADIAL_BOX), panel.layout)
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
            color = PALETTE[i % len(PALETTE)]
            vertices = []
            for t, v in series.points:
                angle, radius = radial_point(int(t), n, v, lo, hi, R_INNER, R_OUTER)
                vertices.append(polar_xy(angle, radius))
            emitter.polyline(vertices, color, kind="radial_polygon", close=True)
    else:
        slots = radial_bar_slots(n, len(indices))
        zero = polar_xy(0.0, 0.0)
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
            color = PALETTE[i % len(PALETTE)]
            _emit_sector(emitter, (cx, cy), zero, start, start + width, r_in,
                         transform.scale * radius, color)

    # Four cardinal slot labels (dates) just outside the outer ring.
    for slot in sorted({0, n // 4, n // 2, (3 * n) // 4}):
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


def _fit_radial_panel(panel, labels, lo, hi, font, title_band):
    """The ring's region at one slot-label font, or None when it is too small; lo, hi are unused."""
    inset_lr = CHAR_W * font * max(map(len, labels)) + 16.0
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


_CARDINALS = tuple(k * math.pi / 2.0 for k in range(5))  # 12, 3, 6, 9 and 12 o'clock again


def _emit_sector(emitter, center, zero, a0, a1, r0_px, r1_px, color):
    """One radial bar: the ring sector from angle a0 to a1 between radii r0_px and r1_px.

    Its corners are the panel's polar_xy points, with each angle's sine and
    cosine taken once; `zero` is polar_xy(0, 0), which the arc radii are
    measured from.
    """
    cx, cy = center
    sin0, cos0, sin1, cos1 = math.sin(a0), math.cos(a0), math.sin(a1), math.cos(a1)
    x00, y00 = cx + r0_px * sin0, cy - r0_px * cos0
    x01, y01 = cx + r1_px * sin0, cy - r1_px * cos0
    zx, zy = zero
    sx00, sy00, sx01, sy01, sx11, sy11, sx10, sy10, s1, s0 = map(_fmt, (
        x00, y00, x01, y01, cx + r1_px * sin1, cy - r1_px * cos1, cx + r0_px * sin1, cy - r0_px * cos1,
        math.hypot(x01 - zx, y01 - zy), math.hypot(x00 - zx, y00 - zy),
    ))
    large = 1 if (a1 - a0) > math.pi else 0
    d = (f"M {sx00} {sy00} L {sx01} {sy01} A {s1} {s1} 0 {large} 1 {sx11} {sy11} "
         f"L {sx10} {sy10} A {s0} {s0} 0 {large} 0 {sx00} {sy00} Z")
    xs = [float(sx00), float(sx01), float(sx11), float(sx10)]
    ys = [float(sy00), float(sy01), float(sy11), float(sy10)]
    pts = tuple(zip(xs, ys))
    for cardinal in _CARDINALS:
        if a0 <= cardinal <= a1:
            for r_px in (r0_px, r1_px):
                xs.append(_r(cx + r_px * math.sin(cardinal)))
                ys.append(_r(cy - r_px * math.cos(cardinal)))
    x_min, y_min = min(xs), min(ys)
    emitter.path(d, pts, Rect(x_min, y_min, max(xs) - x_min, max(ys) - y_min), color)


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
    marks = rendered.marks
    x_hi, y_hi = w + 1e-6, h + 1e-6  # Rect(0, 0, w, h).contains(bbox), on the bbox fields
    out_of_view = 0
    for mark in marks:
        x, y, bw, bh = mark.bbox
        if not (x >= -1e-6 and y >= -1e-6 and x + bw <= x_hi and y + bh <= y_hi):
            out_of_view += 1
    blank = _blank_ratio(marks, w, h)
    fonts = [m.font_px for m in marks if m.font_px is not None]
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
    """The share of the 4px grid over w x h that no mark's box overlaps with positive area.

    A mark whose cell range lies inside the cell range of a tall mark
    already set is skipped: it would set no new cell.
    """
    nx = max(1, math.ceil(w / CELL_PX))
    ny = max(1, math.ceil(h / CELL_PX))
    occupied = bytearray(nx * ny)
    containers = []  # (ix0, ix1, iy0, iy1) of the tall marks set so far
    for mark in marks:
        x, y, bw, bh = mark.bbox
        x0 = max(x, 0.0)
        y0 = max(y, 0.0)
        x1 = min(x + bw, w)
        y1 = min(y + bh, h)
        if x1 <= x0 or y1 <= y0:
            continue
        ix0 = int(math.floor(x0 / CELL_PX))
        ix1 = min(nx, int(math.ceil(x1 / CELL_PX)))
        iy0 = int(math.floor(y0 / CELL_PX))
        iy1 = min(ny, int(math.ceil(y1 / CELL_PX)))
        span = ix1 - ix0
        if span <= 0:
            continue
        for cx0, cx1, cy0, cy1 in containers:
            if cx0 <= ix0 and ix1 <= cx1 and cy0 <= iy0 and iy1 <= cy1:
                break  # every cell of this mark is set already
        else:
            if iy1 - iy0 > TALL_ROWS:
                containers.append((ix0, ix1, iy0, iy1))
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
