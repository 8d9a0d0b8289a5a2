"""Span tracing around the calls into each chronofuse layer.

The tracer replaces module attributes with timing wrappers. It wraps the
attributes that callers look up at call time: the names `chronofuse.cli`
bound at import, `chronofuse.charts.slice_range` (which chart building
calls through the charts module), `chronofuse.render.legibility_check`
(which `render_svg` calls through the render module), and the public
functions of each layer that the benchmark calls itself. Spans are kept in
memory as (name, start, end, parent, operation id) and written out when
the run ends. Counts are taken after a span closes, inside a `trace.count`
span, so that their cost leaves every other span's time. A target that no
longer exists raises, rather than leaving its metrics silently at 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("ingest", "temporal", "charts", "render", "cli")
COUNT_SPAN = "trace.count"

TARGETS = {
    "chronofuse.ingest": ("load_report", "load_lexicon", "extract_observations"),
    "chronofuse.temporal": ("fuse", "add_report", "rebucket", "load_table", "save_table",
                            "save_observations", "load_observations"),
    "chronofuse.charts": ("build_line_chart", "build_radial_chart", "build_radial_bar_chart",
                          "slice_range"),
    "chronofuse.render": ("select_layout", "render_svg", "legibility_check", "legibility_report"),
    "chronofuse.cli": ("cmd_ingest", "cmd_render", "cmd_check", "load_report", "load_lexicon",
                       "extract_observations", "save_observations", "fuse", "add_report",
                       "rebucket", "load_table", "save_table", "load_observations",
                       "build_line_chart", "build_radial_chart", "build_radial_bar_chart",
                       "select_layout", "render_svg", "legibility_report"),
}

# (metric, unit) of every per-layer number, in report order.
PER_LAYER = (
    ("ingest.extract_observations.ms", "ms"), ("ingest.plain.us_per_line", "us"),
    ("ingest.rows.us_per_line", "us"), ("ingest.load_report.ms", "ms"),
    ("ingest.load_lexicon.ms", "ms"), ("ingest.lines", "count"),
    ("ingest.observations", "count"), ("ingest.warnings", "count"),
    ("ingest.hit_ratio", "ratio"),
    ("temporal.fuse.ms", "ms"), ("temporal.save_observations.ms", "ms"),
    ("temporal.add_report.ms", "ms"), ("temporal.load_table.ms", "ms"),
    ("temporal.save_table.ms", "ms"), ("temporal.rebucket.ms", "ms"),
    ("temporal.slice_range.ms", "ms"), ("temporal.observations_in", "count"),
    ("temporal.slices", "count"), ("temporal.columns", "count"),
    ("temporal.multi_entry_cells", "count"), ("temporal.store_bytes", "bytes"),
    ("charts.build_line_chart.ms", "ms"), ("charts.build_radial_chart.ms", "ms"),
    ("charts.build_radial_bar_chart.ms", "ms"), ("charts.series", "count"),
    ("charts.points", "count"),
    ("render.select_layout.ms", "ms"), ("render.render_svg.ms", "ms"),
    ("render.legibility_check.ms", "ms"), ("render.marks", "count"),
    ("render.svg_bytes", "bytes"), ("render.gate_failed", "ratio"),
    ("render.panel_too_small", "count"),
    ("cli.ingest.ms", "ms"), ("cli.render.ms", "ms"), ("cli.check.ms", "ms"),
    ("cli.self.ms", "ms"),
) + tuple((f"{layer}.share", "ratio") for layer in LAYERS)


def _span_name(module: str, attr: str, fn) -> str:
    if attr.startswith("cmd_"):
        return "cli." + attr[len("cmd_"):]
    defining = getattr(fn, "__module__", module) or module
    return f"{defining.rsplit('.', 1)[-1]}.{attr}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _entries(table) -> int:
    return sum(len(cell.entries) for row in table.rows.values() for cell in row.values())


class Tracer:
    """Timing wrappers plus the spans and counts they record."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.op_phase: dict[int, str] = {}
        self.sums: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.tags: dict[int, str] = {}
        self._patches = []
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr, None)
                if original is None:
                    raise AttributeError(f"{module_name}.{attr} is gone: update TARGETS and "
                                         f"PER_LAYER in {Path(__file__).name}")
                wrapper = self.wrap(original, _span_name(module_name, attr, original))
                self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def wrap(self, fn, name: str):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                mark = [COUNT_SPAN, clock(), 0, span[3], self.op]
                count(index, args, kwargs, result)
                mark[2] = clock()
                spans.append(mark)
            return result

        return wrapper

    def run_op(self, phase: str, step, *args):
        """Run one benchmark operation as the root span of a new operation id."""
        self.op += 1
        self.op_phase[self.op] = phase
        return self.wrap(step, "op." + phase)(*args)

    # --- counts, taken after the span closed ---

    def _add(self, key: str, value: float) -> None:
        self.sums[key] += value
        self.calls[key] += 1

    def _count_ingest_extract_observations(self, index, args, kwargs, result):
        doc = _arg(args, kwargs, 0, "doc")
        observations, warnings = result
        kind = "plain" if doc.format.value == "plain_text" else "rows"
        self.tags[index] = kind
        self._add("ingest.lines", len(doc.lines))
        self._add(f"ingest.{kind}.lines", len(doc.lines))
        self._add("ingest.observations", len(observations))
        self._add("ingest.warnings", len(warnings))

    def _table_counts(self, table) -> None:
        self._add("temporal.slices", len(table.rows))
        self._add("temporal.columns", len(table.columns))
        self._add("temporal.multi_entry_cells", sum(
            1 for row in table.rows.values() for cell in row.values() if len(cell.entries) > 1))

    def _count_temporal_fuse(self, index, args, kwargs, result):
        table, _ = result
        self._add("temporal.observations_in", _entries(table))
        self._table_counts(table)

    def _count_temporal_add_report(self, index, args, kwargs, result):
        self._add("temporal.observations_in",
                  _entries(result) - _entries(_arg(args, kwargs, 0, "table")))
        self._table_counts(result)

    def _count_temporal_rebucket(self, index, args, kwargs, result):
        self._table_counts(result)

    def _count_temporal_save_table(self, index, args, kwargs, result):
        self._add("temporal.store_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    def _count_chart(self, index, args, kwargs, spec):
        self._add("charts.series", len(spec.series))
        self._add("charts.points", sum(len(s.points) for s in spec.series))

    _count_charts_build_line_chart = _count_chart
    _count_charts_build_radial_chart = _count_chart
    _count_charts_build_radial_bar_chart = _count_chart

    def _count_render_render_svg(self, index, args, kwargs, rendered):
        self._add("render.marks", len(rendered.marks))
        self._add("render.svg_bytes", len(rendered.svg.encode("utf-8")))
        self._add("render.gate_failed", 0 if rendered.diagnostics.passed else 1)

    # --- derived numbers ---

    def self_times(self) -> tuple[list[int], list[int]]:
        """Per span: duration without counting time, and self time without children."""
        n = len(self.spans)
        net, children, counting = [0] * n, [0] * n, [0] * n
        for i in range(n - 1, -1, -1):  # children come after their parent
            name, start, end, parent, _ = self.spans[i]
            if name == COUNT_SPAN:
                if parent >= 0:
                    counting[parent] += end - start
                continue
            net[i] = end - start - counting[i]
            if parent >= 0:
                children[parent] += net[i]
                counting[parent] += counting[i]
        return net, [net[i] - children[i] for i in range(n)]

    def per_layer(self, native_phase: str, panel_too_small: int):
        """Every per-layer metric as {name: (value, unit)}, and the timed ones with no span.

        A timed metric without spans reads 0 and fails the run's checks, so
        a renamed or bypassed function cannot read as a gain.
        """
        net, own = self.self_times()
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        unrecorded = []

        def mean(metric: str, values) -> float:
            values = list(values)
            if not values:
                unrecorded.append(metric)
                return 0.0
            return sum(values) / len(values)

        def mean_of(key: str) -> float:
            return self.sums[key] / self.calls[key] if self.calls[key] else 0.0

        values: dict[str, float] = {}
        for metric, unit in PER_LAYER:
            if unit == "ms" and not metric.startswith("cli."):
                values[metric] = mean(metric, (own[i] for i in by_name[metric[:-3]])) / 1e6
        verbs = [i for name in ("cli.ingest", "cli.render", "cli.check") for i in by_name[name]]
        for verb in ("ingest", "render", "check"):
            values[f"cli.{verb}.ms"] = mean(f"cli.{verb}.ms",
                                            (net[i] for i in by_name["cli." + verb])) / 1e6
        values["cli.self.ms"] = mean("cli.self.ms", (own[i] for i in verbs)) / 1e6

        for kind in ("plain", "rows"):
            metric = f"ingest.{kind}.us_per_line"
            spent = sum(own[i] for i in by_name["ingest.extract_observations"]
                        if self.tags.get(i) == kind)
            lines = self.sums[f"ingest.{kind}.lines"]
            values[metric] = spent / 1e3 / lines if lines else 0.0
            if not lines:
                unrecorded.append(metric)
        for key in ("ingest.lines", "ingest.observations", "ingest.warnings",
                    "temporal.observations_in", "temporal.slices", "temporal.columns",
                    "temporal.multi_entry_cells", "temporal.store_bytes", "charts.series",
                    "charts.points", "render.marks", "render.svg_bytes", "render.gate_failed"):
            values[key] = mean_of(key)
        lines = self.sums["ingest.lines"]
        values["ingest.hit_ratio"] = self.sums["ingest.observations"] / lines if lines else 0.0
        values["render.panel_too_small"] = float(panel_too_small)

        # Share of layer self time within the workload's own operations.
        layer_ns = dict.fromkeys(LAYERS, 0)
        for i, (name, _, _, _, op) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in layer_ns and self.op_phase.get(op) == native_phase:
                layer_ns[layer] += own[i]
        total = sum(layer_ns.values()) or 1
        for layer in LAYERS:
            values[f"{layer}.share"] = layer_ns[layer] / total
        return {metric: (values[metric], unit) for metric, unit in PER_LAYER}, unrecorded

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op,
                                      "phase": self.op_phase.get(op)}) + "\n")
