"""Command line interface driving the full pipeline.

Verbs: ingest (reports -> observation archive), render (archive or store
-> SVG + diagnostics), check (render for all device classes, report
diagnostics only), report (efficacy checklist with executable probes).

Exit codes: 0 success, 1 legibility gate failure, 2 input or pipeline
error. Nothing else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .charts import (
    ChartSpec,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
)
from .config import Config, load_config
from .errors import (
    ChronofuseError,
    ConfigError,
    DuplicateReport,
    MalformedStore,
    OutputWriteError,
    read_text,
)
from .ingest import (
    Observation,
    TimePoint,
    extract_observations,
    load_lexicon,
    load_report,
    parse_timestamp,
)
from .render import DeviceClass, legibility_report, render_svg, select_layout
from .temporal import (
    ARCHIVE_MAGIC,
    STORE_MAGIC,
    Granularity,
    TemporalTable,
    add_report,
    atomic_write_text,
    fuse,
    load_observations,
    load_table,
    rebucket,
    save_observations,
    save_table,
)

ARCHIVE_NAME = "observations.txt"
STORE_NAME = "table.txt"

FEATURE_MULTIVARIATE = "Multivariate data accommodation"
FEATURE_HIGHER_TIME = "Higher time series graph"
FEATURE_DEVICES = "Device transparency"
FEATURE_DETAILS = "Descriptive details on implementation"
FEATURE_DYNAMIC = "Dynamic data accumulation"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # per call, so that a wrapper set on a cmd_* attribute (bench/tracing.py) is the one called
    handlers = dict(ingest=cmd_ingest, render=cmd_render, check=cmd_check, report=cmd_report)
    try:
        return handlers[args.command](args)
    except ChronofuseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit codes are contractually 0, 1, or 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronofuse",
        description="Fuse medical report files into time-keyed tables and device-adapted charts.",
    )
    parser.add_argument("--version", action="version", version=f"chronofuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input", help="table store or observation archive")
    chart = argparse.ArgumentParser(add_help=False)
    chart.add_argument("--kind", choices=("line", "radial", "radial-bar"), default="line")
    chart.add_argument("--metrics", help="comma-separated metric names, at least one (default: all)")
    chart.add_argument("--from", dest="time_from", help="range start (accepted timestamp format)")
    chart.add_argument("--to", dest="time_to", help="range end")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--granularity", choices=[g.value for g in Granularity],
                        help="bucket size when fusing observations")
    common.add_argument("--config", help="config file (falls back to $CHRONOFUSE_CONFIG)")

    p_ingest = sub.add_parser("ingest", parents=[common],
                              help="extract observations from report files")
    p_ingest.add_argument("reports", nargs="+", help="report files (.txt, .csv, .rec)")
    p_ingest.add_argument("--lexicon", help="metric lexicon file")
    p_ingest.add_argument("--store", action="store_true",
                          help="also write a fused table store next to the archive")
    p_ingest.add_argument("--out", help="output directory")

    p_render = sub.add_parser("render", parents=[source, chart, common],
                              help="render a chart for one device")
    p_render.add_argument("--device", choices=[d.value for d in DeviceClass], default="monitor")
    p_render.add_argument("--out", help="output directory")

    sub.add_parser("check", parents=[source, chart, common],
                   help="render for all devices, print diagnostics only")
    sub.add_parser("report", parents=[source, common], help="run the efficacy checklist probes")
    return parser


def _load_effective_config(args) -> Config:
    config = load_config(args.config)
    if args.granularity:
        config.granularity = Granularity(args.granularity)
    if getattr(args, "lexicon", None):
        config.lexicon_path = Path(args.lexicon)
    if getattr(args, "out", None):
        config.out_dir = Path(args.out)
    return config


def cmd_ingest(args) -> int:
    config = _load_effective_config(args)
    if config.lexicon_path is None:
        raise ConfigError("no lexicon given (use --lexicon or a config file)")
    lexicon = load_lexicon(config.lexicon_path)

    docs = [load_report(path) for path in args.reports]
    seen: dict[str, str] = {}
    for doc in docs:
        if doc.report_id in seen:
            raise DuplicateReport(
                f"{doc.source_path} and {seen[doc.report_id]} both resolve to id {doc.report_id!r}"
            )
        seen[doc.report_id] = doc.source_path

    all_observations: list[Observation] = []
    total_warnings = 0
    for doc in sorted(docs, key=lambda d: d.report_id):  # merge in report id order
        observations, warnings = extract_observations(doc, lexicon, config.date_order)
        all_observations.extend(observations)
        total_warnings += len(warnings)
        print(f"{doc.report_id}: {len(observations)} observation(s), {len(warnings)} warning(s)")
        for warning in warnings:
            print(f"  warning: {warning}")

    if args.store:  # fused before either write, so a fuse error leaves both files as they were
        table, fuse_warnings = fuse(all_observations, config.granularity, ranges=lexicon.ranges())
    _make_dir(config.out_dir)
    archive_path = config.out_dir / ARCHIVE_NAME
    save_observations(all_observations, archive_path, ranges=lexicon.ranges())
    print(f"wrote {archive_path} ({len(all_observations)} observation(s), "
          f"{total_warnings} warning(s) total)")
    if args.store:
        store_path = config.out_dir / STORE_NAME
        save_table(table, store_path)
        print(f"wrote {store_path} ({len(table.columns)} column(s), {len(table.rows)} slice(s))")
        for warning in fuse_warnings:
            print(f"  note: {warning}")
    return 0


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputWriteError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc


def _load_input_table(args, config: Config) -> TemporalTable:
    path = args.input
    first = read_text(Path(path), MalformedStore, "input file").partition("\n")[0].strip()
    if first.startswith(STORE_MAGIC):
        # only an explicit --granularity rebuckets a store; the config file's key is for archives
        table = load_table(path)
        return rebucket(table, Granularity(args.granularity)) if args.granularity else table
    if not first.startswith(ARCHIVE_MAGIC):
        raise MalformedStore(f"{path} is neither a table store nor an observation archive")
    observations, ranges = load_observations(path)
    table, _ = fuse(observations, config.granularity, ranges=ranges)
    return table


def _build_spec(args) -> tuple[Config, ChartSpec]:
    """The effective config and the chart that the chart flags ask for from `args.input`."""
    config = _load_effective_config(args)
    table = _load_input_table(args, config)
    metrics = None if args.metrics is None else [m.strip() for m in args.metrics.split(",") if m.strip()]
    time_range = None
    # `is not None`: an empty bound is given, and names no timestamp
    if args.time_from is not None or args.time_to is not None:
        if args.time_from is None or args.time_to is None:
            raise ChronofuseError("--from and --to must be given together")
        time_range = (
            parse_timestamp(args.time_from, config.date_order),
            parse_timestamp(args.time_to, config.date_order),
        )
    builders = {
        "line": build_line_chart,
        "radial": build_radial_chart,
        "radial-bar": build_radial_bar_chart,
    }
    return config, builders[args.kind](
        table,
        metrics=metrics,
        time_range=time_range,
        aggregator=config.aggregator,
        normalization=config.normalization,
    )


def _render(spec: ChartSpec, config: Config, device: DeviceClass):
    profile = config.profile(device)
    return profile, render_svg(spec, select_layout(spec, profile), profile)


def cmd_render(args) -> int:
    config, spec = _build_spec(args)
    device = DeviceClass(args.device)
    profile, rendered = _render(spec, config, device)

    _make_dir(config.out_dir)
    svg_path = config.out_dir / f"{args.kind}-{device.value}.svg"
    diag_path = config.out_dir / f"{args.kind}-{device.value}-diagnostics.txt"
    atomic_write_text(svg_path, rendered.svg)
    atomic_write_text(diag_path, legibility_report(rendered.diagnostics, profile))
    print(f"wrote {svg_path}")
    print(f"wrote {diag_path}")
    if rendered.diagnostics.passed:
        print("legibility: pass")
        return 0
    print(f"legibility: fail ({', '.join(rendered.diagnostics.failed_rules)})", file=sys.stderr)
    return 1


def cmd_check(args) -> int:
    config, spec = _build_spec(args)
    all_passed = True
    for device in DeviceClass:
        profile, rendered = _render(spec, config, device)
        print(f"[{device.value}]")
        for line in legibility_report(rendered.diagnostics, profile).splitlines():
            print(f"  {line}")
        all_passed = all_passed and rendered.diagnostics.passed
    return 0 if all_passed else 1


def cmd_report(args) -> int:
    config = _load_effective_config(args)
    table = _load_input_table(args, config)
    rows = [
        (FEATURE_MULTIVARIATE, len(table.columns) >= 2),
        (FEATURE_HIGHER_TIME, _probe_higher_time_series(table, config)),
        (FEATURE_DEVICES, _renders_legibly(table, config, DeviceClass)),
        (FEATURE_DETAILS, True),
        (FEATURE_DYNAMIC, _probe_dynamic_accumulation(table)),
    ]
    for feature, ok in rows:
        print(f"{feature}: {'Yes' if ok else 'No'}")
    print(
        f"# chronofuse {__version__}; granularity={table.granularity.value}; "
        f"columns={len(table.columns)}; slices={len(table.rows)}; "
        f"aggregator={config.aggregator.value}; normalization={config.normalization.value}"
    )
    return 0


def _probe_higher_time_series(table: TemporalTable, config: Config) -> bool:
    """At least 52 weekly slices exist and their line chart renders legibly."""
    if table.granularity is Granularity.MONTH:
        return False
    weekly = rebucket(table, Granularity.WEEK)
    if len(weekly.rows) < 52 or not weekly.columns:
        return False
    return _renders_legibly(weekly, config, [DeviceClass.MONITOR])


def _renders_legibly(table: TemporalTable, config: Config, devices) -> bool:
    if not table.columns or not table.rows:
        return False
    try:
        spec = build_line_chart(
            table,
            aggregator=config.aggregator,
            normalization=config.normalization,
        )
        return all(_render(spec, config, device)[1].diagnostics.passed for device in devices)
    except ChronofuseError:
        return False


def _probe_dynamic_accumulation(table: TemporalTable) -> bool:
    """Spot-check that incremental addition equals a full re-fuse."""
    observations = _observations_from(table)
    if not observations:
        return False
    report_ids = sorted({obs.source for obs in observations})
    first_half = set(report_ids[: max(1, len(report_ids) // 2)])
    part_a = [o for o in observations if o.source in first_half]
    part_b = [o for o in observations if o.source not in first_half]
    ranges = {
        c.metric: c.reference_range for c in table.columns if c.reference_range is not None
    }
    base, _ = fuse(part_a, table.granularity, ranges=ranges)
    incremental = add_report(base, part_b, ranges=ranges)
    full, _ = fuse(part_a + part_b, table.granularity, ranges=ranges)
    return incremental == full


def _observations_from(table: TemporalTable) -> list[Observation]:
    units = {c.metric: c.unit for c in table.columns}
    return [
        Observation(
            metric=metric,
            value=entry.value,
            unit=units.get(metric, ""),
            time=TimePoint.day(ts.start_date),
            source=entry.source,
        )
        for ts, row in table.rows.items()
        for metric, cell in row.items()
        for entry in cell.entries
    ]


if __name__ == "__main__":
    sys.exit(main())
