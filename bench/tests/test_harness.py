"""Self-tests of the benchmark harness: generator, percentiles, failure counting."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from measure import Outcomes, highest_percentile, percentile  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.NATIVE))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    generate.generate(workload, 8, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")
    assert first.keys() == _tree(tmp_path / "c").keys()


def test_lexicon_has_40_metrics_and_160_aliases():
    assert len(generate.METRICS) == 40
    aliases = [a.lower() for m in generate.METRICS for a in m.aliases]
    assert len(aliases) == len(set(aliases)) == 160


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError, match="at least 100"):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)


def test_highest_percentile_has_ten_samples_beyond_it():
    assert highest_percentile(range(19)) is None
    assert highest_percentile(range(20)) == 0.5
    assert highest_percentile(range(99)) == 0.5
    assert highest_percentile(range(100)) == 0.9
    assert highest_percentile(range(999)) == 0.9
    assert highest_percentile(range(1000)) == 0.99


def test_failed_ratio_counts_exit_2_and_exceptions_not_exit_1():
    def boom():
        raise RuntimeError("boom")

    outcomes = Outcomes()
    for op in (lambda: 0, lambda: 1, lambda: 2, boom):
        outcomes.call(op)
    assert (outcomes.attempted, outcomes.failed) == (4, 2)
    assert outcomes.failed_ratio == 0.5


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(generate.NATIVE)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER) + list(run.RUN_LEVEL)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tracer_refuses_a_target_that_is_gone(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "chronofuse.charts", ("build_chart",))
    with pytest.raises(AttributeError, match="chronofuse.charts.build_chart is gone"):
        tracing.Tracer()


def test_per_layer_names_every_timed_metric_without_spans():
    metrics, unrecorded = tracing.Tracer().per_layer("chart", 0)
    timed = [name for name, unit in tracing.PER_LAYER if unit in ("ms", "us")]
    assert sorted(unrecorded) == sorted(timed)
    assert all(metrics[name][0] == 0.0 for name in timed)
