"""The CLI on generated input: every run exits 0, 1 or 2 and names its error.

Each example writes one to three reports (plain text, CSV or `.rec`), a lexicon,
a config file, a store and an archive, any of them mutated, then drives `cli.main`
in-process with an argv drawn over the four verbs. No run may reach the
`internal error` catch-all, and whatever `ingest` writes when it exits 0
loads back.
"""

import contextlib
import datetime as dt
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chronofuse import load_observations, load_table
from chronofuse.cli import ARCHIVE_NAME, STORE_NAME, main
from test_format_properties import VALID, mutated_line

CSV_FIELD_LIMIT = 131_072


def rarely(usual, unusual):
    """`unusual` about one draw in eight, so that most runs get past the input checks."""
    return st.integers(0, 7).flatmap(lambda k: unusual if k == 7 else usual)


WEEKS = [dt.date(2021, 1, 4) + dt.timedelta(weeks=k) for k in range(12)]
DATES = st.sampled_from(WEEKS).flatmap(lambda d: st.sampled_from([
    d.isoformat(), d.strftime("%d/%m/%Y"), d.strftime("%m-%d-%Y"),
    f"{d.isoformat()} 08:30", f"{d.isoformat()} 25:99",
])) | st.sampled_from(["2021-13-45", "31/02/2021", "yesterday", ""])
METRICS = st.sampled_from(["Glucose", "glu", "blood glucose", "HbA1c", "a1c", "creat",
                           "systolic blood pressure", "sys bp", "weight", ""])
VALUES = st.sampled_from(["104", "5.6", "-3", "0", "-0.0", "+1.5", "1e3", "abc", "1" * 400, ""]) \
    | st.floats(0, 500).map(lambda x: f"{x:.2f}")
UNITS = st.sampled_from(["mg/dL", "%", "mmHg", "g/L", ""])


@st.composite
def plain_report(draw) -> list[str]:
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["date", "measurement", "text"]))
        if kind == "date":
            lines.append(f"Visit {draw(DATES)}")
        elif kind == "measurement":
            lines.append(f"{draw(METRICS)}: {draw(VALUES)} {draw(UNITS)}")
        else:
            lines.append(draw(st.text(max_size=12)))
    return lines


def _rows(draw, sep: str) -> list[str]:
    return [
        sep.join([draw(DATES), draw(METRICS), draw(VALUES), draw(UNITS)])
        for _ in range(draw(st.integers(0, 8)))
    ]


@st.composite
def csv_report(draw) -> list[str]:
    header = draw(st.sampled_from(["date,metric,value,unit", "Date, Metric, Value, Unit",
                                   "when,what,value,unit"]))
    lines = [header, *_rows(draw, ",")]
    if draw(st.integers(0, 15)) == 15:
        lines.append(f"2021-01-04,glucose,{'9' * (CSV_FIELD_LIMIT + 1)},mg/dL")
    return lines


@st.composite
def rec_report(draw) -> list[str]:
    return ["# date|metric|value|unit", *_rows(draw, "|")]


@st.composite
def file_bytes(draw, lines: list[str]) -> bytes:
    """`lines` as UTF-8, maybe with one line mutated and maybe with one stray non-UTF-8 byte."""
    lines = list(lines)
    if lines and draw(rarely(st.just(False), st.just(True))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = draw(mutated_line(lines[at]))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if draw(rarely(st.just(False), st.just(True))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


JUNK = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "junk", ""])
PROFILE_SIZE = rarely(st.floats(1, 4096).map(repr) | st.integers(1, 4096).map(str), JUNK)
BLANK_RATIO = rarely(st.sampled_from(["1", "0.01", "0.85", "0.99"]), JUNK | st.just("1.5"))
CONFIG_VALUES = {
    "lexicon": rarely(st.just("lexicon.txt"), JUNK | st.just("missing.txt")),
    "granularity": rarely(st.sampled_from(["day", "week", "month"]), JUNK),
    "date_order": rarely(st.sampled_from(["dmy", "mdy"]), JUNK),
    "aggregator": rarely(st.sampled_from(["mean", "median", "first", "last"]), JUNK),
    "normalization": rarely(st.sampled_from(["reference_range", "min_max", "none"]), JUNK),
    "out": st.sampled_from(["cfg-out", "."]),
    **{
        f"{device}.{field}": PROFILE_SIZE
        for device in ("monitor", "tablet", "phone")
        for field in ("width_px", "height_px", "min_font_px")
    },
    **{f"{device}.max_blank_ratio": BLANK_RATIO for device in ("monitor", "tablet", "phone")},
}
BAD_CONFIG_LINES = ["palette = 12", "laptop.width_px = 1024", "monitor.depth_px = 4",
                    "no equals sign", "= 3"]


@st.composite
def config_lines(draw) -> list[str]:
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=6, unique=True))
    lines = [f"{key} = {draw(CONFIG_VALUES[key])}" for key in keys]
    lines += draw(st.lists(st.sampled_from(["# comment", ""]), max_size=1))
    lines += draw(rarely(st.just([]), st.sampled_from(BAD_CONFIG_LINES).map(lambda line: [line])))
    return lines


@st.composite
def workspace(draw) -> dict[str, bytes]:
    """File name -> bytes of every input file one example writes."""
    files = {
        "lexicon.txt": draw(file_bytes(VALID["lexicon"].splitlines())),
        "chronofuse.cfg": draw(file_bytes(draw(config_lines()))),
        "store.txt": draw(file_bytes(VALID["store"].splitlines())),
        "archive.txt": draw(file_bytes(VALID["archive"].splitlines())),
    }
    formats = {".txt": plain_report(), ".csv": csv_report(), ".rec": rec_report()}
    for i, suffix in enumerate(draw(st.lists(st.sampled_from(sorted(formats)), min_size=1,
                                             max_size=3))):
        files[f"r{i}{suffix}"] = draw(file_bytes(draw(formats[suffix])))
    return files


def maybe(flag: str, values) -> st.SearchStrategy[list[str]]:
    return st.just([]) | values.map(lambda value: [flag, value])


GRANULARITY = maybe("--granularity", rarely(st.sampled_from(["day", "week", "month"]),
                                             st.just("year")))
CONFIG = maybe("--config", rarely(st.just("chronofuse.cfg"), st.just("missing.cfg")))
CHART_FLAGS = st.tuples(
    maybe("--kind", rarely(st.sampled_from(["line", "radial", "radial-bar"]), st.just("pie"))),
    maybe("--metrics", rarely(st.sampled_from(["glucose", "glucose,hba1c", "hba1c,creatinine"]),
                              st.sampled_from(["nope", ",", "glucose,systolic_bp"]))),
    rarely(st.sampled_from([[], ["--from", "2021-02-01", "--to", "2021-05-31"]]),
           st.sampled_from([["--from", "2021-05-31", "--to", "2021-02-01"],
                            ["--from", "2021-02-01"], ["--from", "never", "--to", "2021-05-31"]])),
    GRANULARITY,
    CONFIG,
).map(lambda parts: [arg for part in parts for arg in part])


@st.composite
def argv(draw, files: dict[str, bytes], ingested: list[str]) -> list[str]:
    """One command over the workspace; `ingested` names what an earlier ingest wrote."""
    reports = sorted(name for name in files if name.startswith("r"))
    verb = draw(st.sampled_from(["ingest", "render", "check", "report"]))
    if verb == "ingest":
        chosen = draw(rarely(st.lists(st.sampled_from(reports), min_size=1, unique=True),
                             st.lists(st.sampled_from([*reports, "missing.txt", "r0.doc"]),
                                      min_size=1, max_size=4)))
        lexicon = rarely(st.just(["--lexicon", "lexicon.txt"]),
                         maybe("--lexicon", st.just("missing.txt")))
        return [
            "ingest", *chosen, "--out", "out", *draw(lexicon),
            *draw(st.sampled_from([[], ["--store"]])),
            *draw(GRANULARITY), *draw(CONFIG),
        ]
    source = draw(rarely(st.sampled_from(["store.txt", "archive.txt", *ingested]),
                         st.sampled_from([reports[0], "missing.txt"])))
    if verb == "report":
        return ["report", source, *draw(GRANULARITY), *draw(CONFIG)]
    flags = draw(CHART_FLAGS)
    if verb == "check":
        return ["check", source, *flags]
    device = draw(maybe("--device", rarely(st.sampled_from(["monitor", "tablet", "phone"]),
                                           st.just("watch"))))
    return ["render", source, *flags, *device, "--out", "render-out"]


def run(args: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run; argparse's SystemExit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(workspace(), st.data())
def test_cli_exits_0_1_or_2_without_internal_error(files, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            (root / name).write_bytes(content)
        ingested: list[str] = []
        for _ in range(data.draw(st.integers(1, 3))):
            args = data.draw(argv(files, ingested))
            paths = {name: str(root / name) for name in
                     [*files, "missing.txt", "missing.cfg", "r0.doc", "out", "render-out"]}
            paths.update((name, str(root / name)) for name in ingested)
            code, err = run([paths.get(arg, arg) for arg in args])
            assert code in (0, 1, 2), (args, code, err)
            assert "internal error" not in err, (args, err)
            if args[0] == "ingest" and code == 0:
                load_observations(root / "out" / ARCHIVE_NAME)
                ingested.append(f"out/{ARCHIVE_NAME}")
                if "--store" in args:
                    load_table(root / "out" / STORE_NAME)
                    ingested.append(f"out/{STORE_NAME}")
