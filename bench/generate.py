"""Seeded input generator for the chronofuse benchmark.

Writes everything a workload feeds to the program: the metric lexicon,
report files (plain-text notes, CSV lab exports, `.rec` device logs), the
reports a starting store is fused from, and the visit reports that are
appended later. The same seed gives the same bytes. The generator also
returns the readings it wrote, so the benchmark can check the program's
output against them without asking the program.

Run from the repository root:

    python3 bench/generate.py --workload corpus-batch --seed 1 --out inputs
"""

from __future__ import annotations

import argparse
import datetime as dt
import random
from dataclasses import dataclass
from pathlib import Path

START = dt.date(2019, 1, 7)  # a Monday, so weekly slices align with the data

# 40 metrics, each with 4 aliases: a 160-alias lexicon (plus 40 canonical names).
METRIC_NAMES = (
    "glucose", "hba1c", "creatinine", "urea", "sodium", "potassium", "chloride",
    "calcium", "magnesium", "phosphate", "albumin", "bilirubin", "alt", "ast",
    "alp", "ggt", "ldh", "ck", "crp", "esr", "ferritin", "iron", "transferrin",
    "tsh", "ft4", "ft3", "cortisol", "insulin", "lactate", "troponin", "bnp",
    "ddimer", "fibrinogen", "inr", "hemoglobin", "hematocrit", "platelets",
    "leukocytes", "neutrophils", "lymphocytes",
)
UNITS = ("mg/dL", "mmol/L", "U/L", "g/L", "%", "ng/mL", "pg/mL", "10^9/L")

# Prose words never equal a metric name, carry no digits and form no date.
PROSE = (
    "patient", "reports", "feeling", "well", "today", "follow-up", "advised",
    "to", "continue", "current", "medication", "diet", "and", "exercise",
    "sleep", "quality", "stable", "denies", "chest", "pain", "mild", "fatigue",
    "review", "at", "next", "visit", "plan", "discussed", "with", "family",
    "no", "new", "complaints", "appetite", "normal", "weight", "unchanged",
    "walking", "daily", "tolerating", "treatment", "without", "side",
    "effects", "reassured", "monitoring", "remains", "adequate", "hydration",
    "encouraged",
)


@dataclass(frozen=True)
class Metric:
    name: str
    aliases: tuple[str, ...]
    unit: str
    low: float
    high: float

    def lexicon_line(self) -> str:
        return f"{self.name}|{','.join(self.aliases)}|{self.unit}|{self.low:g}..{self.high:g}"


def make_metrics() -> tuple[Metric, ...]:
    """The fixed 40-metric lexicon; only values and wording vary by seed."""
    return tuple(
        Metric(
            name=name,
            aliases=(f"{name} level", f"serum {name}", f"{name} result", f"lab {name}"),
            unit=UNITS[i % len(UNITS)],
            low=float(5 + 3 * i),
            high=float(25 + 4 * i),
        )
        for i, name in enumerate(METRIC_NAMES)
    )


METRICS = make_metrics()


# --- sizes ---


@dataclass(frozen=True)
class CorpusSize:
    """A report corpus for `ingest --store` -> `render` -> `check`."""

    weeks: int
    notes: int            # plain-text notes
    blocks: int           # dated blocks per note, 9 lines each
    labs: int             # CSV lab exports, one row per metric per week
    lab_metrics: int      # metrics per lab export
    logs: int             # .rec device logs
    log_rows: int


@dataclass(frozen=True)
class TableSize:
    """A weekly table fused from lab exports; every metric has a cell every week."""

    weeks: int
    metrics: int


@dataclass(frozen=True)
class StoreSize:
    """A day-granularity store on disk plus the visits appended to it."""

    days: int
    metrics: int
    visits: int           # appended in one pass, on consecutive days
    visit_rows: int


@dataclass(frozen=True)
class Sizes:
    """The inputs of each phase: `batch`, `chart` and `append`."""

    batch: CorpusSize
    chart: TableSize
    append: StoreSize


# The heavy size of a workload's own phase; the others run light.
HEAVY = Sizes(
    batch=CorpusSize(weeks=208, notes=5, blocks=50, labs=8, lab_metrics=3, logs=4, log_rows=600),
    chart=TableSize(weeks=156, metrics=12),
    append=StoreSize(days=1092, metrics=12, visits=25, visit_rows=20),
)
LIGHT = Sizes(
    batch=CorpusSize(weeks=60, notes=1, blocks=10, labs=2, lab_metrics=2, logs=1, log_rows=100),
    chart=TableSize(weeks=60, metrics=4),
    append=StoreSize(days=120, metrics=4, visits=25, visit_rows=6),
)
# Each workload's own phase.
NATIVE = {"corpus-batch": "batch", "chart-sweep": "chart", "append-refresh": "append"}

# Line requests past the rendering envelope, (metrics, weekly slices, device):
# twice the lengths after which line charts start to raise PanelTooSmall
# (ROADMAP item 4: 200/100/80 slices for one metric, 100/60 for four).
ENVELOPE = ((1, 400, "monitor"), (1, 200, "tablet"), (1, 160, "phone"),
            (4, 200, "monitor"), (4, 120, "tablet"))
ENVELOPE_WEEKS = 400


def sizes_for(workload: str) -> Sizes:
    native = NATIVE[workload]
    return Sizes(**{phase: getattr(HEAVY if phase == native else LIGHT, phase)
                    for phase in ("batch", "chart", "append")})


# --- writers ---


@dataclass
class Reading:
    date: dt.date
    metric: str
    value: float
    source: str


@dataclass
class Corpus:
    reports: list[Path]
    readings: list[Reading]
    render_metrics: tuple[str, ...]
    check_metrics: tuple[str, ...]
    window: tuple[dt.date, dt.date]


@dataclass
class Inputs:
    lexicon: Path
    corpus: Corpus
    table_reports: list[Path]
    table_metrics: tuple[str, ...]
    store_reports: list[Path]
    chart_metrics: tuple[str, ...]
    visits: list[Path]
    first_visit: dt.date
    envelope_report: Path


def _value(rng: random.Random, metric: Metric) -> str:
    mid = (metric.low + metric.high) / 2.0
    spread = (metric.high - metric.low) / 2.0
    value = max(0.05, rng.gauss(mid, 0.7 * spread))  # about one in six out of range
    return f"{value:.2f}"


def _spelling(rng: random.Random, metric: Metric) -> str:
    name = rng.choice((metric.name,) + metric.aliases)
    return rng.choice((name, name.capitalize(), name.upper()))


def _date_text(rng: random.Random, day: dt.date) -> str:
    form = rng.randrange(3)
    if form == 0:
        text = day.isoformat()
    elif form == 1:
        text = f"{day.day:02d}/{day.month:02d}/{day.year}"  # slash form, day first
    else:
        text = f"{day.month:02d}-{day.day:02d}-{day.year}"  # dash form, month first
    if rng.random() < 0.3:
        text += f" {rng.randrange(7, 19):02d}:{rng.randrange(60):02d}"
    return text


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_lexicon(path: Path) -> Path:
    lines = ["# benchmark lexicon: canonical|aliases|units|reference range"]
    lines += [m.lexicon_line() for m in METRICS]
    return _write(path, lines)


def write_corpus(rng: random.Random, size: CorpusSize, out: Path) -> Corpus:
    """Notes, lab exports and device logs over `size.weeks` weeks."""
    out.mkdir(parents=True, exist_ok=True)
    days = size.weeks * 7
    readings: list[Reading] = []
    reports: list[Path] = []

    # Plain-text notes: a header, then dated blocks of 1 date line, 7 body
    # lines and a blank. The share of prose among body lines varies by note.
    for k in range(size.notes):
        source = f"note_{k:02d}.txt"
        measured = (2, 3, 5)[k % 3]
        lines = [f"Patient: P-{k:04d}", "Source: outpatient clinic note", ""]
        for b in range(size.blocks):
            day = START + dt.timedelta(days=int(days * (b + rng.random()) / size.blocks))
            lines.append(rng.choice(("", "Visit ", "Seen ")) + _date_text(rng, day))
            body = []
            for _ in range(measured):
                metric = rng.choice(METRICS)
                value = _value(rng, metric)
                template = rng.choice(("{a}: {v} {u}", "{a} {v} {u}", "{a} measured at {v} {u}"))
                body.append(template.format(a=_spelling(rng, metric), v=value, u=metric.unit))
                readings.append(Reading(day, metric.name, float(value), source))
            for _ in range(7 - measured):
                if rng.random() < 0.25:  # names a metric without a value: a warning
                    body.append(f"{_spelling(rng, rng.choice(METRICS))} pending, sample not analysed")
                else:
                    body.append(" ".join(rng.choice(PROSE) for _ in range(rng.randrange(6, 17))))
            rng.shuffle(body)
            lines += body + [""]
        reports.append(_write(out / source, lines))

    # CSV lab exports: one row per metric per week, metrics named by any alias.
    for k in range(size.labs):
        source = f"lab_{k:02d}.csv"
        metrics = [METRICS[(k + j * size.labs) % len(METRICS)] for j in range(size.lab_metrics)]
        lines = ["date,metric,value,unit"]
        for w in range(size.weeks):
            for metric in metrics:
                day = START + dt.timedelta(weeks=w, days=rng.randrange(7))
                value = _value(rng, metric)
                date_text = day.isoformat() if rng.random() < 0.8 else f"{day.day:02d}/{day.month:02d}/{day.year}"
                lines.append(f"{date_text},{_spelling(rng, metric)},{value},{metric.unit}")
                readings.append(Reading(day, metric.name, float(value), source))
        reports.append(_write(out / source, lines))

    # .rec device logs: timestamped readings of a few vital-like metrics.
    for k in range(size.logs):
        source = f"device_{k:02d}.rec"
        metrics = METRICS[30 + 2 * k: 32 + 2 * k]
        lines = [f"# device log {k}"]
        stamps = sorted(rng.randrange(days * 24 * 60) for _ in range(size.log_rows))
        for stamp in stamps:
            day = START + dt.timedelta(days=stamp // 1440)
            metric = rng.choice(metrics)
            value = _value(rng, metric)
            minute = stamp % 1440
            lines.append(f"{day.isoformat()} {minute // 60:02d}:{minute % 60:02d}|"
                         f"{metric.name}|{value}|{metric.unit}")
            readings.append(Reading(day, metric.name, float(value), source))
        reports.append(_write(out / source, lines))

    lab_names = [METRICS[k % len(METRICS)].name for k in range(size.labs)]
    last_year = START + dt.timedelta(weeks=size.weeks - 52)
    return Corpus(
        reports=reports,
        readings=readings,
        render_metrics=tuple(lab_names[:4]),
        check_metrics=tuple(lab_names[:2]),
        window=(last_year, last_year + dt.timedelta(days=52 * 7 - 1)),
    )


def write_series(rng: random.Random, metrics, weeks: int, out: Path, stem: str,
                 daily: bool = False, always: int = 0, per_file: int = 3) -> list[Path]:
    """Lab exports of `metrics`, `per_file` metrics per file.

    Weekly series give every metric one or two readings every week. Daily
    series give the first `always` metrics a reading every day and the rest
    one on about half the days.
    """
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(0, len(metrics), per_file):
        group = metrics[k:k + per_file]
        lines = ["date,metric,value,unit"]
        for w in range(weeks):
            for metric in group:
                if daily:
                    offsets = [d for d in range(7)
                               if metrics.index(metric) < always or rng.random() < 0.5]
                else:
                    offsets = sorted(rng.randrange(7) for _ in range(1 + (rng.random() < 0.3)))
                for d in offsets:
                    day = START + dt.timedelta(weeks=w, days=d)
                    lines.append(f"{day.isoformat()},{_spelling(rng, metric)},"
                                 f"{_value(rng, metric)},{metric.unit}")
        paths.append(_write(out / f"{stem}_{k // per_file:02d}.csv", lines))
    return paths


def write_visits(rng: random.Random, metrics, first_day: dt.date, size: StoreSize,
                 out: Path) -> list[Path]:
    """One small CSV per visit, each dated the day after the previous one."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for v in range(size.visits):
        day = first_day + dt.timedelta(days=v)
        lines = ["date,metric,value,unit"]
        for _ in range(size.visit_rows):
            metric = rng.choice(metrics)
            lines.append(f"{day.isoformat()},{_spelling(rng, metric)},"
                         f"{_value(rng, metric)},{metric.unit}")
        paths.append(_write(out / f"visit_{v:04d}.csv", lines))
    return paths


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write every input of `workload` for `seed` under `out`."""
    sizes = sizes_for(workload)
    out.mkdir(parents=True, exist_ok=True)
    lexicon = write_lexicon(out / "lexicon.txt")
    corpus = write_corpus(random.Random(f"{seed}/corpus"), sizes.batch, out / "corpus")

    order = list(METRICS)
    random.Random(f"{seed}/metrics").shuffle(order)
    table_metrics = order[:sizes.chart.metrics]
    table_reports = write_series(random.Random(f"{seed}/table"), table_metrics,
                                 sizes.chart.weeks, out / "table", "weekly")

    store_metrics = order[:sizes.append.metrics]
    store_weeks = sizes.append.days // 7
    first_visit = START + dt.timedelta(weeks=store_weeks)
    rng = random.Random(f"{seed}/store")
    store_reports = write_series(rng, store_metrics, store_weeks, out / "store", "daily",
                                 daily=True, always=3)
    visits = write_visits(rng, store_metrics, first_visit, sizes.append, out / "visits")

    (envelope_report,) = write_series(random.Random(f"{seed}/envelope"), order[:4],
                                      ENVELOPE_WEEKS, out / "envelope", "weekly", per_file=4)

    return Inputs(
        lexicon=lexicon,
        corpus=corpus,
        table_reports=table_reports,
        table_metrics=tuple(m.name for m in table_metrics),
        store_reports=store_reports,
        chart_metrics=tuple(m.name for m in store_metrics[:3]),
        visits=visits,
        first_visit=first_visit,
        envelope_report=envelope_report,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NATIVE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    print(f"wrote {len(inputs.corpus.reports)} corpus reports, {len(inputs.visits)} visits "
          f"and the lexicon under {args.out}")


if __name__ == "__main__":
    main()
