"""Byte pin of the renderer over a fixed sweep of charts and devices.

The nine goldens pin one table on the three default profiles. This sweep
adds every device class at 1, 2, 4 and 9 metrics, series long enough to
thin the tick labels past three rounds at the base font, a profile whose
base font is above 12px, and a profile too small for any chart kind. Each
case's SVG, diagnostics and `legibility_report` text, or its error type
and message, feed one SHA-256 that is compared with a committed digest.
Each case's layout plan, `repr(plan)`, or its error text, feeds a second
SHA-256, so a change to what the plan holds moves PLAN_DIGEST alone. The
geometry index of each rendered case, `repr(rendered.marks)`, feeds a
third, so the coordinates the legibility rules read are pinned as well as
the bytes written. The sweep is also run in fresh interpreters under two
hash seeds, so output cannot depend on set or dict ordering of hashed
strings.

A change that alters rendered output on purpose must update DIGEST (and
MARKS_DIGEST, when the marks move) and say why; one that changes the plan
alone updates PLAN_DIGEST. Run this file as a script to print the three
digests of the `chronofuse` on the path, for example
`PYTHONPATH=src python tests/test_render_digest.py`, so two trees can be
compared pin by pin.

The module imports only the standard library and chronofuse, so the
subprocess test can load it without site-packages.
"""

import datetime as dt
import functools
import hashlib
import subprocess
import sys
from pathlib import Path

import chronofuse
from chronofuse import (
    DeviceClass,
    DeviceProfile,
    Granularity,
    Normalization,
    Observation,
    RefRange,
    TimePoint,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
    default_profile,
    fuse,
    legibility_report,
    render_svg,
    select_layout,
)
from chronofuse.errors import ChronofuseError

DIGEST = "68bed9373d8f18e31a30a8a583b3e59cd5b121fc10aeff7d729fe23194fede49"
PLAN_DIGEST = "8a6d27a5b5b89d0f1d1a47857f69f4ab5b707f25d69fe6052e12300694d43992"
MARKS_DIGEST = "ba0d7ee2d812c1f15c91924daa24c168578bcfebe17d675b172854f705c512eb"

METRIC_COUNTS = (1, 2, 4, 9)
SLICE_COUNTS = (3, 16, 60, 100)
NORMALIZATIONS = (
    Normalization.REFERENCE_RANGE,
    Normalization.NONE,
    Normalization.MIN_MAX,
    Normalization.REFERENCE_RANGE,
)
BUILDERS = (
    ("line", build_line_chart),
    ("radial", build_radial_chart),
    ("radial-bar", build_radial_bar_chart),
)
PROFILES = (
    ("monitor", default_profile(DeviceClass.MONITOR)),
    ("tablet", default_profile(DeviceClass.TABLET)),
    ("phone", default_profile(DeviceClass.PHONE)),
    ("large-font", DeviceProfile(DeviceClass.MONITOR, 1280, 800, 14, 0.9)),
    ("tiny", DeviceProfile(DeviceClass.TABLET, 140, 90, 9)),
)
START = dt.date(2020, 1, 6)  # a Monday, so every week slice starts on a row date


def _metric(m: int) -> str:
    # m2 carries XML specials so the sweep covers text escaping
    return "m2 <b> & co" if m == 2 else f"m{m}"


def _table(n_slices: int):
    observations = []
    for m in range(max(METRIC_COUNTS)):
        for k in range(n_slices):
            if m % 2 and (k + m) % 11 == 5:
                continue  # gaps in odd metrics
            value = 5.0 if m == 1 else 40.0 + ((k * (7 + 3 * m) + 11 * m) % 37) * 1.5
            day = TimePoint.day(START + dt.timedelta(weeks=k))
            observations.append(Observation(_metric(m), value, "u", day, "r1"))
    ranges = {_metric(m): RefRange(50.0, 80.0) for m in range(max(METRIC_COUNTS))}
    table, _ = fuse(observations, Granularity.WEEK, ranges=ranges)
    return table


@functools.cache
def sweep_cases() -> tuple[tuple[str, str, str, str], ...]:
    """(case label, rendered text, plan text, repr of the marks or "") for every case of the sweep.

    On error both texts are the error's type and message.
    """
    return tuple(_sweep())


def _sweep():
    for n_slices, normalization in zip(SLICE_COUNTS, NORMALIZATIONS):
        table = _table(n_slices)
        for n_metrics in METRIC_COUNTS:
            metrics = [_metric(m) for m in range(n_metrics)]
            for kind, build in BUILDERS:
                spec = build(table, metrics, normalization=normalization)
                for name, profile in PROFILES:
                    label = f"{kind} {name} metrics={n_metrics} slices={n_slices}"
                    try:
                        plan = select_layout(spec, profile)
                        rendered = render_svg(spec, plan, profile)
                        text = "\n".join((
                            rendered.svg,
                            repr(rendered.diagnostics),
                            legibility_report(rendered.diagnostics, profile),
                        ))
                        plan_text = repr(plan)
                        marks = repr(rendered.marks)
                    except ChronofuseError as exc:
                        text = plan_text = f"{type(exc).__name__}: {exc}"
                        marks = ""
                    yield label, text, plan_text, marks


def _digest(part: int) -> str:
    digest = hashlib.sha256()
    for case in sweep_cases():
        digest.update(f"{case[0]}\n{case[part]}\n".encode("utf-8"))
    return digest.hexdigest()


def sweep_digest() -> str:
    return _digest(1)


def plan_digest() -> str:
    return _digest(2)


def marks_digest() -> str:
    return _digest(3)


def test_sweep_covers_thinning_shrinking_and_too_small():
    outcomes = {label: text for label, text, _, _ in sweep_cases()}
    assert len(outcomes) == len(SLICE_COUNTS) * len(METRIC_COUNTS) * len(BUILDERS) * len(PROFILES)
    for label, text in outcomes.items():
        if " tiny " in label:
            assert text.startswith("PanelTooSmall: "), label
    # tick labels thinned at the base font: the second week's label is dropped
    thinned = outcomes["line monitor metrics=1 slices=100"]
    assert 'font-size="12"' in thinned and ">2020-01-13<" not in thinned
    # thinned past three rounds at the base font: 12px ticks, every 16th label kept
    for label in ("line monitor metrics=2 slices=100", "line tablet metrics=1 slices=100"):
        text = outcomes[label]
        assert 'font-size="12"' in text and ">2020-03-02<" not in text and ">2020-04-27<" in text, label
        assert 'font-size="8"' not in text and 'font-size="10"' not in text, label
    assert 'font-size="14"' in outcomes["line large-font metrics=4 slices=16"]


def test_render_sweep_matches_committed_digest():
    assert sweep_digest() == DIGEST


def test_render_sweep_plans_match_committed_digest():
    assert plan_digest() == PLAN_DIGEST


def test_render_sweep_geometry_index_matches_committed_digest():
    assert marks_digest() == MARKS_DIGEST


def test_render_sweep_digest_is_independent_of_hash_seed():
    # Not -I: isolated mode ignores PYTHONHASHSEED. -S and a bare
    # environment still keep site-packages and PYTHON* settings out.
    src = Path(chronofuse.__file__).resolve().parent.parent
    code = (
        "import importlib.util, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        f"spec = importlib.util.spec_from_file_location('render_digest', {__file__!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(hash('chronofuse'), module.sweep_digest(), module.plan_digest(), module.marks_digest())\n"
    )
    seen = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True, text=True, timeout=300, env={"PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        string_hash, *digests = result.stdout.split()
        assert digests == [DIGEST, PLAN_DIGEST, MARKS_DIGEST]
        seen.append(string_hash)
    assert seen[0] != seen[1], "the two seeds should hash strings differently"


if __name__ == "__main__":
    print(f"DIGEST = {sweep_digest()}")
    print(f"PLAN_DIGEST = {plan_digest()}")
    print(f"MARKS_DIGEST = {marks_digest()}")
