"""Set-up, operations and correctness checks of the benchmark's phases.

Every workload runs all three phases: its own phase at the heavy size and
for the run's time budget, the other two at the light size for a fixed
number of steps, so that every metric has a value on every workload. All
calls into chronofuse go through module attributes looked up at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
from pathlib import Path

from chronofuse import charts, cli, ingest, render, temporal
from chronofuse.errors import PanelTooSmall
from chronofuse.ingest import TimePoint
from chronofuse.render import DeviceClass, default_profile
from chronofuse.temporal import Granularity

import generate

DEVICES = tuple(DeviceClass)
BUILDERS = {"line": "build_line_chart", "radial": "build_radial_chart",
            "radial-bar": "build_radial_bar_chart"}


def _render(spec, device: DeviceClass):
    profile = default_profile(device)
    plan = render.select_layout(spec, profile)
    rendered = render.render_svg(spec, plan, profile)
    render.legibility_report(rendered.diagnostics, profile)
    return rendered


def _gate(rendered) -> int:
    return 0 if rendered.diagnostics.passed else 1


def _extract(paths, lexicon) -> list:
    observations = []
    for path in paths:
        found, _ = ingest.extract_observations(ingest.load_report(path), lexicon)
        observations.extend(found)
    return observations


def _window(slices, weeks: int) -> tuple[TimePoint, TimePoint]:
    """The latest `weeks` slices of a weekly table."""
    return TimePoint.day(slices[-weeks].start_date), TimePoint.day(slices[-1].start_date)


def run_cli(argv: list[str]) -> int:
    """Run the CLI in-process with its output captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2


class BatchPhase:
    """`ingest --store --granularity week` -> `render` (line) -> `check` (radial bar)."""

    name = "batch"
    cycle = 1

    def __init__(self, inputs: generate.Inputs, out: Path):
        corpus = inputs.corpus
        window = ["--from", corpus.window[0].isoformat(), "--to", corpus.window[1].isoformat()]
        self.corpus = corpus
        self.store = out / cli.STORE_NAME
        self.argv = [
            ["ingest", *map(str, corpus.reports), "--lexicon", str(inputs.lexicon), "--store",
             "--granularity", "week", "--out", str(out)],
            ["render", str(self.store), "--kind", "line", "--metrics",
             ",".join(corpus.render_metrics), *window, "--device", "monitor", "--out", str(out)],
            ["check", str(self.store), "--kind", "radial-bar", "--metrics",
             ",".join(corpus.check_metrics), *window],
        ]
        self.codes: list[int | None] = []
        lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in corpus.reports)
        self.size = (f"{len(corpus.reports)} reports, {lines} lines, "
                     f"{len(generate.METRICS)}-metric lexicon")

    def reset(self) -> None:
        """Nothing carries over between batches: each ingest writes a new store."""

    def step(self, i: int, outcomes) -> None:
        self.codes = [outcomes.call(run_cli, argv) for argv in self.argv]

    def check(self) -> list[str]:
        ingest_code, render_code, check_code = self.codes
        if ingest_code != 0 or render_code not in (0, 1) or check_code not in (0, 1):
            return [f"batch: exit codes {self.codes}"]
        written: dict[tuple[str, str], list] = {}
        for r in self.corpus.readings:
            week = (r.date - dt.timedelta(days=r.date.weekday())).isoformat()
            written.setdefault((week, r.metric), []).append((r.source, r.value))
        expected = {key: tuple(sorted(entries)) for key, entries in written.items()}
        stored = _store_cells(self.store.read_text(encoding="utf-8"))
        if stored != expected:
            wrong = sorted(set(stored.items()) ^ set(expected.items()))
            return [f"batch: stored cells differ from the generated readings, first at {wrong[0][0]}"]
        return []


def _store_cells(text: str) -> dict[tuple[str, str], tuple]:
    """Cells of a table store, read from its text: (slice, metric) -> sorted (source, value)."""
    cells = {}
    for line in text.splitlines():
        if not line.startswith("row "):
            continue
        day, *fields = line[len("row "):].split("|")
        for field in fields:
            metric, _, entries = field.partition("=")
            cells[(day, metric)] = tuple(sorted(
                (source, float(value))
                for value, _, source in (entry.partition("@") for entry in entries.split(";"))))
    return cells


class ChartPhase:
    """Closed-loop chart requests over an in-memory weekly table.

    The request list crosses chart kind, device, metric count (1, 2, 4) and
    window (26 or 52 weeks for lines, 52 weeks or the full span for the
    radial kinds). Runs stop only at the end of a pass over the list, so
    every run has the same request mix.
    """

    name = "chart"

    def __init__(self, inputs: generate.Inputs, lexicon):
        observations = _extract(inputs.table_reports, lexicon)
        self.table, _ = temporal.fuse(observations, Granularity.WEEK, ranges=lexicon.ranges())
        slices = list(self.table.rows)
        names = inputs.table_metrics
        self.requests = []
        for kind in BUILDERS:
            windows = (26, 52) if kind == "line" else (52, len(slices))
            for device in DEVICES:
                for count in (1, 2, 4):
                    for weeks in windows:
                        j = len(self.requests)
                        metrics = [names[(j + k) % len(names)] for k in range(count)]
                        self.requests.append((kind, device, metrics, weeks, _window(slices, weeks)))
        self.cycle = len(self.requests)
        self.svgs: dict[int, str] = {}
        self.size = (f"{len(slices)} weekly slices x {len(self.table.columns)} metrics, "
                     f"{self.cycle} requests per pass")

    def request(self, index: int) -> int:
        kind, device, metrics, _, window = self.requests[index]
        spec = getattr(charts, BUILDERS[kind])(self.table, metrics=metrics, time_range=window)
        rendered = _render(spec, device)
        self.svgs[index] = rendered.svg
        return _gate(rendered)

    def reset(self) -> None:
        """Nothing carries over between passes: the table is only read."""

    def step(self, i: int, outcomes) -> None:
        outcomes.call(self.request, i % self.cycle)

    def check(self) -> list[str]:
        problems = []
        for index, (kind, device, metrics, weeks, window) in enumerate(self.requests):
            view = temporal.slice_range(self.table, *window)
            empty = [m for m in metrics if not any(m in row for row in view.rows.values())]
            if empty:
                problems.append(f"chart: {kind} over {weeks} weeks has no cells for {empty}")
            first = self.svgs.get(index)
            self.request(index)
            if first is None or self.svgs[index] != first:
                problems.append(f"chart: {kind} {device.value} {metrics} {weeks}w is not repeatable")
        return problems


class AppendPhase:
    """Append one visit report to a day store on disk, then refresh a chart.

    Each operation extracts the visit, loads the store, adds the report,
    saves the store, rebuckets to weeks and renders a line chart of the
    latest 26 weeks on a rotating device. A pass appends the visits in
    date order; each pass starts again from the base store, so every pass
    sees the same store sizes however fast the appends run.
    """

    name = "append"

    def __init__(self, inputs: generate.Inputs, lexicon, out: Path):
        self.lexicon = lexicon
        self.ranges = lexicon.ranges()
        self.base = _extract(inputs.store_reports, lexicon)
        table, _ = temporal.fuse(self.base, Granularity.DAY, ranges=self.ranges)
        out.mkdir(parents=True, exist_ok=True)
        self.store = out / "store.txt"
        temporal.save_table(table, self.store)
        self.base_bytes = self.store.read_bytes()
        self.visits = inputs.visits
        self.first_visit = inputs.first_visit
        self.chart_metrics = list(inputs.chart_metrics)
        self.out = out
        self.cycle = len(self.visits)
        self.done = 0  # visits appended since the last reset
        self.size = (f"{len(table.rows)} daily slices x {len(table.columns)} metrics, "
                     f"{self.cycle} visits per pass")

    def reset(self) -> None:
        """Put the base store back, before the first visit of a pass."""
        self.store.write_bytes(self.base_bytes)
        self.done = 0

    def append(self, v: int) -> int:
        doc = ingest.load_report(self.visits[v])
        observations, _ = ingest.extract_observations(doc, self.lexicon)
        table = temporal.load_table(self.store)
        table = temporal.add_report(table, observations, ranges=self.ranges)
        temporal.save_table(table, self.store)
        weekly = temporal.rebucket(table, Granularity.WEEK)
        day = self.first_visit + dt.timedelta(days=v)
        window = (TimePoint.day(day - dt.timedelta(weeks=26, days=-1)), TimePoint.day(day))
        spec = charts.build_line_chart(weekly, metrics=self.chart_metrics, time_range=window)
        return _gate(_render(spec, DEVICES[v % len(DEVICES)]))

    def step(self, i: int, outcomes) -> None:
        v = i % self.cycle
        outcomes.call(self.append, v)
        self.done = v + 1

    def check(self) -> list[str]:
        visits = _extract(self.visits[:self.done], self.lexicon)
        reference, _ = temporal.fuse(self.base + visits, Granularity.DAY, ranges=self.ranges)
        path = self.out / "reference.txt"
        temporal.save_table(reference, path)
        if path.read_bytes() != self.store.read_bytes():
            return [f"append: store after {self.done} visits differs from fusing them all at once"]
        return []


def envelope_probe(inputs: generate.Inputs, lexicon) -> tuple[int, list[str]]:
    """Count line requests past the rendering envelope that raise PanelTooSmall."""
    table, _ = temporal.fuse(_extract([inputs.envelope_report], lexicon), Granularity.WEEK,
                             ranges=lexicon.ranges())
    slices = list(table.rows)
    too_small, problems = 0, []
    for count, weeks, device in generate.ENVELOPE:
        spec = charts.build_line_chart(table, metrics=list(table.metrics[:count]),
                                       time_range=_window(slices, weeks))
        try:
            _render(spec, DeviceClass(device))
        except PanelTooSmall:
            too_small += 1
        except Exception as exc:  # anything else is a defect the probe reports
            problems.append(f"envelope: {count} metric(s) x {weeks} on {device}: {exc!r}")
    return too_small, problems


def golden_problems(root: Path) -> list[str]:
    """Re-render the fixture corpus and compare with the committed line goldens."""
    fixtures = root / "tests" / "fixtures"
    lexicon = ingest.load_lexicon(fixtures / "lexicon.txt")
    observations = _extract([fixtures / "reports" / "report_a.txt",
                             fixtures / "reports" / "report_b.csv"], lexicon)
    table, _ = temporal.fuse(observations, Granularity.WEEK, ranges=lexicon.ranges())
    spec = charts.build_line_chart(table)
    problems = []
    for device in DEVICES:
        profile = default_profile(device)
        rendered = render.render_svg(spec, render.select_layout(spec, profile), profile)
        outputs = {f"line-{device.value}.svg": rendered.svg,
                   f"line-{device.value}-diagnostics.txt":
                       render.legibility_report(rendered.diagnostics, profile)}
        for name, text in outputs.items():
            if text != (fixtures / "golden" / name).read_text(encoding="utf-8"):
                problems.append(f"golden: {name} differs")
    return problems
