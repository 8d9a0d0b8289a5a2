import datetime as dt
from pathlib import Path

import pytest

from chronofuse import (
    Granularity,
    MetricLexicon,
    Normalization,
    Observation,
    RefRange,
    TimePoint,
    extract_observations,
    fuse,
    load_lexicon,
    load_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def lexicon() -> MetricLexicon:
    return load_lexicon(FIXTURES / "lexicon.txt")


@pytest.fixture(scope="session")
def report_paths() -> list[Path]:
    return [FIXTURES / "reports" / "report_a.txt", FIXTURES / "reports" / "report_b.csv"]


@pytest.fixture(scope="session")
def corpus_observations(lexicon, report_paths):
    observations = []
    for path in report_paths:
        extracted, warnings = extract_observations(load_report(path), lexicon)
        assert not warnings, f"fixture corpus should extract cleanly: {warnings}"
        observations.extend(extracted)
    return observations


@pytest.fixture(scope="session")
def weekly_table(corpus_observations, lexicon):
    table, _ = fuse(corpus_observations, Granularity.WEEK, ranges=lexicon.ranges())
    return table


def obs(metric: str, value: float, day: str, source: str = "r1", unit: str = "") -> Observation:
    """Shorthand observation constructor for tests."""
    return Observation(
        metric=metric,
        value=value,
        unit=unit,
        time=TimePoint.day(dt.date.fromisoformat(day)),
        source=source,
    )


def overflowing_table(mode: Normalization):
    """A day table of finite values whose normalization under `mode` overflows a float.

    reference_range: a value far above a narrow range; min_max: a value
    span wider than the largest float.
    """
    other = 1.0 if mode is Normalization.REFERENCE_RANGE else -1.7e308
    table, _ = fuse([obs("a", 1.7e308, "2021-01-01"), obs("a", other, "2021-01-02")],
                    ranges={"a": RefRange(0.0, 0.5)})
    return table
