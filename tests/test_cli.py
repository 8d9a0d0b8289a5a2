import datetime as dt
import subprocess
import sys
from pathlib import Path

import pytest

import chronofuse
from chronofuse import (
    DeviceClass, Granularity, Normalization, fuse, load_observations, load_table, save_table,
)
from chronofuse.cli import main
from chronofuse.config import load_config, parse_config
from chronofuse.errors import ConfigError
from conftest import obs, overflowing_table


@pytest.fixture()
def lexicon_arg(fixtures_dir):
    return str(fixtures_dir / "lexicon.txt")


@pytest.fixture()
def corpus_args(report_paths):
    return [str(p) for p in report_paths]


def run_ingest(tmp_path, lexicon_arg, corpus_args, extra=()):
    out = tmp_path / "out"
    code = main(
        ["ingest", *corpus_args, "--lexicon", lexicon_arg, "--out", str(out),
         "--granularity", "week", *extra]
    )
    return code, out


# --- ingest ---


def test_ingest_writes_archive(tmp_path, lexicon_arg, corpus_args, capsys):
    code, out = run_ingest(tmp_path, lexicon_arg, corpus_args)
    assert code == 0
    captured = capsys.readouterr().out
    assert "report_a.txt" in captured and "report_b.csv" in captured
    observations, ranges = load_observations(out / "observations.txt")
    assert {o.source for o in observations} == {"report_a.txt", "report_b.csv"}
    assert "glucose" in ranges


def test_ingest_store_flag(tmp_path, lexicon_arg, corpus_args):
    code, out = run_ingest(tmp_path, lexicon_arg, corpus_args, extra=["--store"])
    assert code == 0
    table = load_table(out / "table.txt")
    assert len(table.rows) == 60
    assert table.granularity is Granularity.WEEK


def test_ingest_is_idempotent(tmp_path, lexicon_arg, corpus_args):
    _, first = run_ingest(tmp_path / "one", lexicon_arg, corpus_args, extra=["--store"])
    _, second = run_ingest(tmp_path / "two", lexicon_arg, corpus_args, extra=["--store"])
    for name in ("observations.txt", "table.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_ingest_store_that_fails_to_fuse_leaves_both_files_as_they_were(tmp_path, capsys):
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("glucose|glucose,glu|mg/dL,mmol/L|70..140\n", encoding="utf-8")
    note, lab = tmp_path / "note.txt", tmp_path / "lab.csv"
    note.write_text("2021-01-04 glucose 95 mg/dL\n", encoding="utf-8")
    lab.write_text("date,metric,value,unit\n2021-01-05,glu,5.4,mmol/L\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--lexicon", str(lexicon), "--out", str(out), "--store"]
    assert main(["ingest", str(note), *args]) == 0
    before = {name: (out / name).read_bytes() for name in ("observations.txt", "table.txt")}
    # the two listed units of one metric meet in a slice: fuse raises before either file is written
    assert main(["ingest", str(note), str(lab), *args]) == 2
    assert "error: UnitConflict:" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in before} == before


def test_ingest_no_reports_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest"])
    assert excinfo.value.code == 2


def test_ingest_report_without_timestamp(tmp_path, lexicon_arg, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Glucose: 100 mg/dL\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ingest", str(bad), "--lexicon", lexicon_arg, "--out", str(out)])
    assert code == 2
    assert "NoTimestampInDocument" in capsys.readouterr().err
    assert not (out / "observations.txt").exists()  # partial archive not written


def test_ingest_two_reports_with_one_id_is_an_error(tmp_path, lexicon_arg, capsys):
    reports = [tmp_path / "a b.txt", tmp_path / "a_b.txt"]  # both sanitize to id a_b.txt
    for report in reports:
        report.write_text("2021-01-01\nGlucose: 100 mg/dL\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ingest", *map(str, reports), "--lexicon", lexicon_arg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DuplicateReport: ") and "'a_b.txt'" in err
    assert not (out / "observations.txt").exists()


def test_ingest_missing_lexicon(tmp_path, corpus_args, capsys):
    code = main(["ingest", *corpus_args, "--out", str(tmp_path)])
    assert code == 2
    assert "lexicon" in capsys.readouterr().err


# --- render ---


@pytest.fixture()
def store_path(tmp_path, weekly_table):
    path = tmp_path / "table.txt"
    save_table(weekly_table, path)
    return path


def test_render_line_monitor(tmp_path, store_path, capsys):
    out = tmp_path / "render"
    code = main(["render", str(store_path), "--kind", "line", "--device", "monitor",
                 "--out", str(out)])
    assert code == 0
    svg = (out / "line-monitor.svg").read_text(encoding="utf-8")
    diag = (out / "line-monitor-diagnostics.txt").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert diag.splitlines()[-1] == "verdict: pass"


def test_render_is_idempotent(tmp_path, store_path):
    out = tmp_path / "render"
    for _ in range(2):
        assert main(["render", str(store_path), "--out", str(out)]) == 0
    first = (out / "line-monitor.svg").read_bytes()
    assert main(["render", str(store_path), "--out", str(out)]) == 0
    assert (out / "line-monitor.svg").read_bytes() == first


def test_render_radial_too_few_slices(tmp_path, capsys):
    table, _ = fuse([obs("a", 1.0, "2021-01-01"), obs("a", 2.0, "2021-01-02")])
    path = tmp_path / "two.txt"
    save_table(table, path)
    code = main(["render", str(path), "--kind", "radial", "--out", str(tmp_path)])
    assert code == 2
    assert "TooFewSlices" in capsys.readouterr().err


def test_render_legibility_failure_still_writes_svg(tmp_path, store_path, capsys):
    # a cramped phone with a strict blank-space limit: the chart fits, but fails that rule
    config = tmp_path / "strict.cfg"
    config.write_text("phone.width_px = 280\nphone.height_px = 520\nphone.max_blank_ratio = 0.2\n",
                      encoding="utf-8")
    out = tmp_path / "strict-out"
    code = main(["render", str(store_path), "--device", "phone", "--out", str(out),
                 "--config", str(config)])
    assert code == 1
    assert (out / "line-phone.svg").exists()
    diag = (out / "line-phone-diagnostics.txt").read_text(encoding="utf-8")
    assert "blank space: 0.277032967: 0.2: fail" in diag


@pytest.mark.parametrize("verb", ["render", "check"])
def test_a_monitor_too_small_for_its_panel_exits_2_and_writes_nothing(tmp_path, fixtures_dir, capsys, verb):
    config = tmp_path / "tiny.cfg"
    config.write_text("monitor.width_px = 140\nmonitor.height_px = 90\n", encoding="utf-8")
    out = tmp_path / "out"
    args = [verb, str(fixtures_dir / "golden" / "table_weekly.txt"), "--kind", "line", "--config", str(config)]
    assert main(args + ["--device", "monitor", "--out", str(out)] if verb == "render" else args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: PanelTooSmall: panel 53x28px cannot fit the plot box at >= 12px text\n"
    assert captured.out == ""
    assert not out.exists()


def test_render_from_archive(tmp_path, lexicon_arg, corpus_args):
    code, out = run_ingest(tmp_path, lexicon_arg, corpus_args)
    assert code == 0
    code = main(["render", str(out / "observations.txt"), "--granularity", "week",
                 "--metrics", "glucose,hba1c", "--out", str(out)])
    assert code == 0
    assert (out / "line-monitor.svg").exists()


def test_render_time_range_flags(tmp_path, store_path):
    out = tmp_path / "ranged"
    code = main(["render", str(store_path), "--kind", "radial",
                 "--from", "2021-02-01", "--to", "2021-05-31", "--out", str(out)])
    assert code == 0
    assert (out / "radial-monitor.svg").exists()
    # --from without --to is a pipeline error
    assert main(["render", str(store_path), "--from", "2021-02-01",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("verb", ["render", "check"])
@pytest.mark.parametrize("bounds", [("", ""), ("", "2021-03-01"), ("2021-02-01", "")])
def test_an_empty_window_bound_exits_2_and_writes_nothing(tmp_path, store_path, capsys, verb, bounds):
    # an empty --from or --to is given, so it must name a timestamp, as " " must
    out = tmp_path / "out"
    args = [verb, str(store_path), "--from", bounds[0], "--to", bounds[1]]
    assert main(args + ["--out", str(out)] if verb == "render" else args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: NoTimestamp: no accepted timestamp in ''\n"
    assert captured.out == ""
    assert not out.exists()


def test_render_rejects_garbage_input(tmp_path, capsys):
    noise = tmp_path / "noise.txt"
    noise.write_text("not a store\n", encoding="utf-8")
    assert main(["render", str(noise), "--out", str(tmp_path)]) == 2


def test_render_rejects_reversed_store(tmp_path, capsys):
    # loading this as it stands would draw a time axis that runs backwards
    store = tmp_path / "reversed.txt"
    store.write_text(
        "chronofuse-table 1\ngranularity day\ncolumns 1\ncol a||||r1\nrows 2\n"
        "row 2021-01-05|a=1.0@r1\nrow 2021-01-04|a=2.0@r1\nend\n",
        encoding="utf-8",
    )
    assert main(["render", str(store), "--out", str(tmp_path / "out")]) == 2
    assert "error: MalformedStore:" in capsys.readouterr().err


def test_render_unknown_metric(tmp_path, store_path):
    assert main(["render", str(store_path), "--metrics", "nope", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("verb", ["render", "check"])
@pytest.mark.parametrize("metrics", [",", "", " "])
def test_metrics_that_name_no_metric_exit_2_and_write_nothing(tmp_path, store_path, capsys, verb, metrics):
    out = tmp_path / "out"
    args = [verb, str(store_path), "--metrics", metrics]
    assert main(args + ["--out", str(out)] if verb == "render" else args) == 2
    captured = capsys.readouterr()
    assert "error: EmptySelection:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("mode", [Normalization.REFERENCE_RANGE, Normalization.MIN_MAX])
def test_render_normalization_overflow_is_a_named_error(tmp_path, capsys, mode):
    path = tmp_path / "table.txt"
    save_table(overflowing_table(mode), path)
    config = tmp_path / "chronofuse.cfg"
    config.write_text(f"normalization = {mode.value}\n", encoding="utf-8")
    code = main(["render", str(path), "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: DegenerateValueRange: normalizing a"), err


# --- check ---


def test_check_all_devices_pass(store_path, capsys):
    assert main(["check", str(store_path)]) == 0
    captured = capsys.readouterr().out
    for device in ("monitor", "tablet", "phone"):
        assert f"[{device}]" in captured


def test_check_reports_failure(tmp_path, store_path, capsys):
    config = tmp_path / "strict.cfg"
    config.write_text("monitor.max_blank_ratio = 0.05\n", encoding="utf-8")
    assert main(["check", str(store_path), "--config", str(config)]) == 1
    assert "blank space" in capsys.readouterr().out


# --- report ---


def test_report_fixture_all_yes(store_path, capsys):
    assert main(["report", str(store_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [
        "Multivariate data accommodation: Yes",
        "Higher time series graph: Yes",
        "Device transparency: Yes",
        "Descriptive details on implementation: Yes",
        "Dynamic data accumulation: Yes",
    ]
    assert lines[:5] == expected
    assert lines[5].startswith("# chronofuse")


def test_report_of_three_years_of_twelve_weekly_metrics_has_a_higher_time_series_graph(tmp_path, capsys):
    start = dt.date(2020, 1, 6)
    observations = [
        obs(f"metric_{m:02d}", 40.0 + (k * (7 + 3 * m) + 11 * m) % 37 * 1.5,
            (start + dt.timedelta(weeks=k)).isoformat())
        for m in range(12) for k in range(156)
    ]
    table, _ = fuse(observations, Granularity.WEEK)
    path = tmp_path / "weekly.txt"
    save_table(table, path)
    assert main(["report", str(path)]) == 0
    assert "Higher time series graph: Yes" in capsys.readouterr().out.splitlines()


def test_report_single_metric_store(tmp_path, capsys):
    observations = [obs("a", float(i), f"2021-01-{i:02d}") for i in range(1, 10)]
    table, _ = fuse(observations)
    path = tmp_path / "single.txt"
    save_table(table, path)
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Multivariate data accommodation: No" in out
    assert "Higher time series graph: No" in out  # only 2 weekly slices


def test_report_corrupt_store(tmp_path, capsys):
    path = tmp_path / "corrupt.txt"
    path.write_text("chronofuse-table 1\ngranularity day\ncolumns 1\n", encoding="utf-8")
    assert main(["report", str(path)]) == 2


def test_report_misaligned_store_row_names_the_date(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("chronofuse-table 1\ngranularity month\ncolumns 1\ncol a||||r1\nrows 1\n"
                    "row 2021-01-05|a=1.0@r1\nend\n", encoding="utf-8")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: MalformedStore: t.txt:6: slice start 2021-01-05 not aligned to month"
    ]


# --- --granularity on a table store ---


def test_granularity_flag_rebuckets_a_store_to_a_coarser_one(tmp_path, store_path, capsys):
    assert main(["report", str(store_path), "--granularity", "month"]) == 0
    assert "; granularity=month;" in capsys.readouterr().out
    assert main(["render", str(store_path), "--granularity", "month", "--out", str(tmp_path)]) == 0
    assert main(["check", str(store_path), "--granularity", "month"]) == 0
    monthly = chronofuse.rebucket(load_table(store_path), Granularity.MONTH)
    points = sum(len(row) for row in monthly.rows.values())  # one marker per monthly cell
    assert (tmp_path / "line-monitor.svg").read_text(encoding="utf-8").count("<circle") == points


def test_granularity_flag_equal_to_the_stores_changes_nothing(tmp_path, store_path, capsys):
    outputs = []
    for flag in ([], ["--granularity", "week"]):
        out = tmp_path / f"out{len(flag)}"
        assert main(["report", str(store_path), *flag]) == 0
        assert main(["render", str(store_path), *flag, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                        (out / "line-monitor.svg").read_bytes()))
    assert outputs[0] == outputs[1]
    assert "; granularity=week;" in outputs[0][0]


@pytest.mark.parametrize("verb", ["render", "check", "report"])
def test_granularity_flag_finer_than_the_stores_exits_2(tmp_path, store_path, capsys, verb):
    argv = [verb, str(store_path), "--granularity", "day"]
    assert main(argv + (["--out", str(tmp_path)] if verb == "render" else [])) == 2
    assert capsys.readouterr().err == "error: FinerGranularity: cannot rebucket week table to day\n"


def test_config_granularity_applies_to_archives_only(tmp_path, store_path, capsys):
    config = tmp_path / "month.cfg"
    config.write_text("granularity = month\n", encoding="utf-8")
    assert main(["report", str(store_path), "--config", str(config)]) == 0
    assert "; granularity=week;" in capsys.readouterr().out


# --- config ---


def test_config_file_and_overrides(tmp_path, store_path):
    config = tmp_path / "chronofuse.cfg"
    config.write_text(
        "# render settings\naggregator = median\nnormalization = min_max\n"
        "monitor.width_px = 2560\nmonitor.height_px = 1440\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfg-out"
    assert main(["render", str(store_path), "--config", str(config), "--out", str(out)]) == 0
    svg = (out / "line-monitor.svg").read_text(encoding="utf-8")
    assert 'width="2560"' in svg


def test_config_env_fallback(tmp_path, store_path, monkeypatch):
    config = tmp_path / "env.cfg"
    config.write_text("monitor.width_px = 2048\n", encoding="utf-8")
    monkeypatch.setenv("CHRONOFUSE_CONFIG", str(config))
    out = tmp_path / "env-out"
    assert main(["render", str(store_path), "--out", str(out)]) == 0
    assert 'width="2048"' in (out / "line-monitor.svg").read_text(encoding="utf-8")


def test_config_rejects_unknown_key(tmp_path, store_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("palete = 12\n", encoding="utf-8")
    assert main(["render", str(store_path), "--config", str(config),
                 "--out", str(tmp_path)]) == 2


def test_config_date_order(tmp_path, lexicon_arg):
    report = tmp_path / "us.txt"
    report.write_text("03/14/2021\nGlucose: 100 mg/dL\n", encoding="utf-8")
    config = tmp_path / "us.cfg"
    config.write_text("date_order = mdy\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ingest", str(report), "--lexicon", lexicon_arg, "--out", str(out),
                 "--config", str(config)])
    assert code == 0
    observations, _ = load_observations(out / "observations.txt")
    assert observations[0].time.date.isoformat() == "2021-03-14"


# --- non-finite numbers in inputs ---


@pytest.mark.parametrize(
    "name, text",
    [
        ("cell.txt", "chronofuse-table 1\ngranularity day\ncolumns 1\ncol a||||r1\n"
                     "rows 1\nrow 2021-01-01|a=nan@r1\nend\n"),
        ("col-range.txt", "chronofuse-table 1\ngranularity day\ncolumns 1\ncol a||0.0..inf||r1\n"
                          "rows 1\nrow 2021-01-01|a=1.0@r1\nend\n"),
        ("obs.txt", "chronofuse-observations 1\nranges 0\nobservations 1\n"
                    "obs r1|a|inf||2021-01-01|\nend\n"),
        ("obs-range.txt", "chronofuse-observations 1\nranges 1\nrange a|-inf..1.0|\n"
                          "observations 0\nend\n"),
    ],
    ids=["cell-value", "column-range", "observation-value", "archive-range"],
)
def test_non_finite_inputs_exit_2_with_named_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: MalformedStore:" in err
    assert "internal error" not in err


def test_render_of_a_non_ascii_count_exits_2_with_named_error(tmp_path, capsys):
    store = tmp_path / "table.txt"
    store.write_text("chronofuse-table 1\ngranularity day\ncolumns ²\nend\n", encoding="utf-8")
    assert main(["render", str(store), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: MalformedStore:" in err
    assert "internal error" not in err


@pytest.mark.parametrize("suffix, text", [
    (".txt", "2021-01-04\nGlucose: {big} mg/dL\n2021-01-11\nGlucose: 104 mg/dL\n"),
    (".csv", "date,metric,value,unit\n2021-01-04,glucose,{big},mg/dL\n2021-01-11,glu,104,mg/dL\n"),
], ids=["plain", "csv"])
def test_ingest_skips_numerals_too_long_for_a_float_and_its_outputs_load(
    tmp_path, lexicon_arg, capsys, suffix, text
):
    report = tmp_path / f"long{suffix}"
    report.write_text(text.format(big="1" * 400), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", str(report), "--lexicon", lexicon_arg, "--out", str(out), "--store"]) == 0
    assert "warning: long" in capsys.readouterr().out
    observations, _ = load_observations(out / "observations.txt")
    assert [o.value for o in observations] == [104.0]
    assert len(load_table(out / "table.txt").rows) == 1
    assert main(["render", str(out / "table.txt"), "--out", str(tmp_path / "r")]) == 0


def test_ingest_prints_each_explicit_row_warning_in_row_order(tmp_path, lexicon_arg, capsys):
    lab = tmp_path / "lab.csv"
    lab.write_text(
        "date,metric,value,unit\n2021-01-04,glucose,95,mg/dL\n2021-01-05,Glu,101,mg/dl\n"
        "2021-01-06,glu,99\n2021-13-01,glucose,97,mg/dL\n2021-01-07,weight,70,kg\n"
        "2021-01-08,glucose,9x,mg/dL\n2021-01-09,glucose,103,mmol\n2021-01-10,GLU,104,mmol\n"
        " ,\t, \n2021-01-11,a1c,5.1,%\n", encoding="utf-8")
    device = tmp_path / "dev.rec"
    device.write_text(
        "# device log\n2021-01-04 07:45|systolic|118|mmHg\n2021-01-05|sys bp|121\n"
        "2021-01-05|systolic|bp|mmHg\nyesterday|systolic|120|mmHg\n2021-01-06|Sys BP|125|mm\n"
        "2021-01-07|sys bp|126|mm\n2021-01-08|pulse|60|bpm\n\n2021-01-09|creat|0.9|mg/dL\n",
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", str(lab), str(device), "--lexicon", lexicon_arg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dev.rec: 4 observation(s), 6 warning(s)",
        "  warning: dev.rec:3: expected 4 pipe-delimited fields",
        "  warning: dev.rec:4: malformed value 'bp' for metric 'systolic_bp'",
        "  warning: dev.rec:5: unparseable date 'yesterday'",
        "  warning: dev.rec:6: unexpected unit 'mm' for 'systolic_bp'; expected one of mmHg",
        "  warning: dev.rec:7: unexpected unit 'mm' for 'systolic_bp'; expected one of mmHg",
        "  warning: dev.rec:8: unknown metric 'pulse'",
        "lab.csv: 5 observation(s), 6 warning(s)",
        "  warning: lab.csv:4: expected 4 fields, got 3",
        "  warning: lab.csv:5: unparseable date '2021-13-01'",
        "  warning: lab.csv:6: unknown metric 'weight'",
        "  warning: lab.csv:7: malformed value '9x' for metric 'glucose'",
        "  warning: lab.csv:8: unexpected unit 'mmol' for 'glucose'; expected one of mg/dL",
        "  warning: lab.csv:9: unexpected unit 'mmol' for 'glucose'; expected one of mg/dL",
        f"wrote {out / 'observations.txt'} (9 observation(s), 12 warning(s) total)",
    ]


def test_ingest_with_a_lexicon_bound_too_long_for_a_float_exits_2(tmp_path, corpus_args, capsys):
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text(f"glucose|glu|mg/dL|70..{'1' * 400}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", *corpus_args, "--lexicon", str(lexicon), "--out", str(out), "--store"]) == 2
    err = capsys.readouterr().err
    assert "error: InvalidLexicon:" in err and "internal error" not in err
    assert not out.exists()


def test_ingest_files_a_word_under_one_metric_from_a_note_and_from_a_csv(tmp_path, capsys):
    # 'ı' (dotless i) folds with 'i' under the lexicon's one case rule, in notes and fields alike
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("m|ix||\n", encoding="utf-8")
    note, lab = tmp_path / "note.txt", tmp_path / "lab.csv"
    note.write_text("2021-01-04 ıx 5\n", encoding="utf-8")
    lab.write_text("date,metric,value,unit\n2021-01-05,ıx,6,\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["ingest", str(note), str(lab), "--lexicon", str(lexicon), "--out", str(out), "--store"]
    assert main(args) == 0
    assert "(2 observation(s), 0 warning(s) total)" in capsys.readouterr().out
    table = load_table(out / "table.txt")
    assert [column.metric for column in table.columns] == ["m"]
    assert table.columns[0].source_reports == {"note.txt", "lab.csv"}


def test_ingest_with_aliases_that_collide_under_the_case_rule_exits_2(tmp_path, corpus_args, capsys):
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("m1|ıx||\nm2|ix||\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", *corpus_args, "--lexicon", str(lexicon), "--out", str(out), "--store"]) == 2
    err = capsys.readouterr().err
    assert "error: InvalidLexicon: alias 'ix' is claimed by both 'm1' and 'm2'" in err
    assert not out.exists()


def test_ingest_of_a_csv_field_over_the_csv_limit_exits_2(tmp_path, lexicon_arg, capsys):
    report = tmp_path / "huge.csv"
    report.write_text("date,metric,value,unit\n2021-01-04,glucose," + "9" * 131_073 + ",mg/dL\n",
                      encoding="utf-8")
    assert main(["ingest", str(report), "--lexicon", lexicon_arg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error: ReportReadError: report huge.csv" in err and "internal error" not in err


def test_config_file_ignores_a_byte_order_mark(tmp_path):
    text = "granularity = month\naggregator = median\nmonitor.width_px = 2560\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load_config(marked) == load_config(plain) != parse_config("")


def test_config_file_that_is_not_utf8_exits_2(tmp_path, store_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"aggregator = mean\n\xff\n")
    assert main(["render", str(store_path), "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError:" in err and "not valid UTF-8" in err and "internal error" not in err


@pytest.mark.parametrize("case", ["missing report", "no lexicon", "lexicon not UTF-8",
                                  "missing input", "input not UTF-8"])
def test_unreadable_inputs_exit_2_with_a_named_error(tmp_path, corpus_args, lexicon_arg, capsys,
                                                     case):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"chronofuse-table 1\n\xff\n")
    missing = tmp_path / "gone.txt"
    argv, expected = {
        "missing report": (["ingest", str(missing), "--lexicon", lexicon_arg],
                           f"ReportReadError: cannot read report file {missing}: [Errno 2]"),
        "no lexicon": (["ingest", *corpus_args], "ConfigError: no lexicon given"),
        "lexicon not UTF-8": (["ingest", *corpus_args, "--lexicon", str(bad)],
                              f"InvalidLexicon: lexicon file {bad} is not valid UTF-8"),
        "missing input": (["render", str(missing)],
                          f"MalformedStore: cannot read input file {missing}: [Errno 2]"),
        "input not UTF-8": (["render", str(bad)],
                            f"MalformedStore: input file {bad} is not valid UTF-8"),
    }[case]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {expected}")


def test_render_to_an_out_that_is_a_file_exits_2_with_a_named_error(tmp_path, store_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main(["render", str(store_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: OutputWriteError: cannot create output directory {out}: ")
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_ingest_to_an_out_that_is_a_file_exits_2_with_a_named_error(tmp_path, lexicon_arg,
                                                                    corpus_args, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main(["ingest", *corpus_args, "--lexicon", lexicon_arg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: OutputWriteError: cannot create output directory {out}: ")


# --- device profiles ---


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_config_rejects_non_finite_profile_fields(value):
    with pytest.raises(ConfigError, match="finite"):
        parse_config(f"monitor.width_px = {value}\n")


@pytest.mark.parametrize("field", ["width_px", "height_px", "min_font_px"])
def test_config_bounds_profile_sizes_at_16384(field):
    # the legibility grid's memory grows with the area and the font search with the font
    assert getattr(parse_config(f"monitor.{field} = 16384\n").profile(DeviceClass.MONITOR),
                   field) == 16384.0
    with pytest.raises(ConfigError, match="finite"):
        parse_config(f"monitor.{field} = 100000\n")


def test_config_accepts_every_profile_field():
    config = parse_config(
        "phone.width_px = 400\nphone.height_px = 800\n"
        "phone.min_font_px = 9\nphone.max_blank_ratio = 0.9\n"
    )
    profile = config.profile(DeviceClass.PHONE)
    assert (profile.width_px, profile.height_px) == (400.0, 800.0)
    assert (profile.min_font_px, profile.max_blank_ratio) == (9.0, 0.9)


def test_config_has_no_dpi_key():
    # no layout, emission or legibility step reads a dpi, so a profile has none
    with pytest.raises(ConfigError, match="unknown profile field 'dpi'"):
        parse_config("monitor.dpi = 96\n")


# --- runtime dependencies ---


def test_runtime_needs_only_the_standard_library(fixtures_dir):
    # -I -S: no site-packages, no user site, no PYTHON* variables
    src = Path(chronofuse.__file__).resolve().parent.parent
    golden = fixtures_dir / "golden" / "table_weekly.txt"
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import chronofuse\n"
        "for module in pkgutil.iter_modules(chronofuse.__path__):\n"
        "    importlib.import_module('chronofuse.' + module.name)\n"
        "from chronofuse.cli import main\n"
        f"sys.exit(main(['check', {str(golden)!r}]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "[monitor]" in result.stdout and "[phone]" in result.stdout
