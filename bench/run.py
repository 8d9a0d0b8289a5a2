"""The chronofuse benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload corpus-batch --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports chronofuse from
`src/`. It generates the workload's inputs from the seed and sets up nine
times, once before the client starts and the rest spread over its run,
reporting the median. One closed-loop client runs the workload's own phase
at the heavy size for `--seconds` seconds, with the fixed steps of the
other two phases (light size) spread evenly over the same time. It checks
every output and prints a summary followed by one JSON line. `--trace 0`
reports the end-to-end metrics; `--trace 1` reports the per-layer metrics
of a traced run, in which every chart request also runs untraced to
measure the tracing overhead. `--profile` adds a cProfile pass after
everything else.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import io
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

# One set-up before the client starts, the rest spread over its run.
SETUP_REPEATS = 9
# The workload's own phase runs at least this many steps, and the light
# phases exactly this many: p90 needs 100 samples, a chart pass is 54
# requests and an append pass 25 visits.
NATIVE_MIN_STEPS = {"batch": 5, "chart": 100, "append": 100}
LIGHT_STEPS = {"batch": 25, "chart": 216, "append": 100}
PROFILE_STEPS = {"batch": 2, "chart": 54, "append": 20}
PROFILE_TOP = 40

END_TO_END = (("batch_s", "s"), ("chart_p50_ms", "ms"), ("chart_p90_ms", "ms"),
              ("append_p50_ms", "ms"), ("append_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
RUN_LEVEL = (("failed_ratio", "ratio"), ("trace.overhead_ms", "ms"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one chronofuse benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(generate.NATIVE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="write the top cProfile entries of an extra, unmeasured pass")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import chronofuse from this checkout's sources, never from elsewhere."""
    if not (SRC / "chronofuse" / "__init__.py").is_file():
        sys.exit(f"bench: no chronofuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chronofuse

    if Path(chronofuse.__file__).resolve().parent != SRC / "chronofuse":
        sys.exit(f"bench: imported chronofuse from {chronofuse.__file__}, not from {SRC}")


def setup(workload: str, seed: int, out: Path):
    """Everything before the timed phase: inputs, lexicon, tables and stores."""
    import workloads
    from chronofuse import ingest

    inputs = generate.generate(workload, seed, out / "inputs")
    lexicon = ingest.load_lexicon(inputs.lexicon)
    phases = {
        "batch": workloads.BatchPhase(inputs, out / "batch"),
        "chart": workloads.ChartPhase(inputs, lexicon),
        "append": workloads.AppendPhase(inputs, lexicon, out / "append"),
    }
    return inputs, lexicon, phases


def spread(count: int, budget_s: float, fn) -> list[tuple[float, object]]:
    """`count` calls fn(j), due in the middle of `count` equal parts of the budget."""
    return [(budget_s * (j + 0.5) / count, functools.partial(fn, j)) for j in range(count)]


class Client:
    """One closed-loop client: runs steps one after another and times each.

    Untraced, it records each step's latency. Traced, every step runs under
    the tracer, except chart requests: each of those runs twice back to
    back, untraced and traced in alternating order, and the difference is
    the tracing overhead. Chart requests are the shortest steps on every
    workload, so the overhead resolves to well under a millisecond.
    Averaging over both orders cancels the gain of running second, on warm
    caches.
    """

    def __init__(self, outcomes, tracer=None):
        self.outcomes = outcomes
        self.tracer = tracer
        self.traced = False
        self.samples: dict[str, list[float]] = {}  # phase name -> step latencies in seconds
        # chart request latencies (untraced, traced), by which of the two ran first
        self.pairs: dict[bool, list[tuple[float, float]]] = {False: [], True: []}

    def set_traced(self, traced: bool) -> None:
        if traced != self.traced:
            self.tracer.install() if traced else self.tracer.uninstall()
            self.traced = traced

    def timed(self, phase, i: int, traced: bool) -> float:
        self.set_traced(traced)
        start = time.perf_counter()
        if traced:
            self.tracer.run_op(phase.name, phase.step, i, self.outcomes)
        else:
            phase.step(i, self.outcomes)
        return time.perf_counter() - start

    def step(self, phase, i: int) -> None:
        if i % phase.cycle == 0:
            phase.reset()
        if self.tracer is None:
            elapsed = self.timed(phase, i, False)
        elif phase.name == "chart":
            first = i % 2 == 1  # whether the traced run goes first
            took = {first: self.timed(phase, i, first)}
            took[not first] = self.timed(phase, i, not first)
            self.pairs[first].append((took[False], took[True]))
            elapsed = took[True]
        else:
            elapsed = self.timed(phase, i, True)
        self.samples.setdefault(phase.name, []).append(elapsed)

    def untraced(self, fn, j: int) -> None:
        self.set_traced(False)
        fn(j)

    def run(self, native, lights, extras, budget_s: float) -> None:
        """Run `native` for `budget_s` seconds, with other work spread over it.

        The light phases' steps and the `extras` (count, fn) calls are due
        at even intervals of the budget and run, untimed by the client,
        between native steps. The native phase stops at the first end of a
        pass over its cycle after both the budget and its minimum step
        count are reached.
        """
        due = [item for light in lights
               for item in spread(LIGHT_STEPS[light.name], budget_s,
                                  functools.partial(self.step, light))]
        for count, fn in extras:
            due += spread(count, budget_s, functools.partial(self.untraced, fn))
        due.sort(key=lambda item: item[0])
        min_steps = NATIVE_MIN_STEPS[native.name]
        start = time.perf_counter()
        i = 0
        while True:
            at_pass_end = i % native.cycle == 0
            if at_pass_end and i >= min_steps and time.perf_counter() - start >= budget_s:
                break
            self.step(native, i)
            i += 1
            while due and time.perf_counter() - start >= due[0][0]:
                due.pop(0)[1]()
        for _, fn in due:
            fn()
        self.set_traced(False)


def profile_pass(phase, outcomes, path: Path) -> None:
    profiler = cProfile.Profile()
    phase.reset()
    profiler.enable()
    for i in range(PROFILE_STEPS[phase.name]):
        phase.step(i, outcomes)
    profiler.disable()
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(PROFILE_TOP)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text.getvalue(), encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from measure import Outcomes, highest_percentile, percentile
    from tracing import Tracer

    os.environ.pop("CHRONOFUSE_CONFIG", None)  # the CLI runs with its defaults
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}"
    setup_times = []

    def timed_setup(k: int):
        start = time.perf_counter()
        result = setup(args.workload, args.seed, work / f"setup{k}")
        setup_times.append(time.perf_counter() - start)
        return result

    def extra_setup(j: int) -> None:
        timed_setup(j + 1)
        shutil.rmtree(work / f"setup{j + 1}")

    try:
        inputs, lexicon, phases = timed_setup(0)
        native = phases[generate.NATIVE[args.workload]]
        lights = [phase for phase in phases.values() if phase is not native]
        outcomes = Outcomes()
        tracer = Tracer() if args.trace else None
        client = Client(outcomes, tracer)
        client.run(native, lights, [(SETUP_REPEATS - 1, extra_setup)], args.seconds)

        problems = []
        for phase in phases.values():
            problems += phase.check()
        panel_too_small, envelope_problems = workloads.envelope_probe(inputs, lexicon)
        problems += envelope_problems + workloads.golden_problems(ROOT)
        if args.profile:
            profile_pass(native, Outcomes(), RESULTS / f"profile-{stem}.txt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics, unrecorded = tracer.per_layer(native.name, panel_too_small)
        problems += [f"trace: {name} recorded no span" for name in unrecorded]

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s budget, "
          f"trace {args.trace}; one closed-loop client")
    for phase in phases.values():
        size = "heavy" if phase is native else "light"
        print(f"  {phase.name} ({size}): {phase.size}; {len(client.samples[phase.name])} steps")
    print(f"  operations: {outcomes.attempted} attempted, {outcomes.failed} failed "
          f"(failed_ratio {outcomes.failed_ratio:.6g})")
    for error in outcomes.errors[:5]:
        print(f"  failed: {error}")
    print(f"  render.panel_too_small: {panel_too_small} of {len(generate.ENVELOPE)} "
          f"envelope probes")
    for problem in problems:
        print(f"  check failed: {problem}")

    if args.trace:
        by_order = [statistics.median(t - u for u, t in pairs) for pairs in client.pairs.values()]
        overhead = statistics.mean(by_order)
        print(f"  tracing overhead: {overhead * 1e3:.4f} ms per chart request (traced minus "
              f"untraced, median of {len(client.pairs[True])} pairs traced first "
              f"{by_order[1] * 1e3:.4f} ms, of {len(client.pairs[False])} untraced first "
              f"{by_order[0] * 1e3:.4f} ms)")
        trace_path = RESULTS / f"trace-{stem}.jsonl"
        tracer.write(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        values = {"failed_ratio": outcomes.failed_ratio, "trace.overhead_ms": overhead * 1e3}
        metrics.update({name: (values[name], unit) for name, unit in RUN_LEVEL})
    else:
        samples = client.samples
        for name in ("chart", "append"):
            top = highest_percentile(samples[name])
            print(f"  {name}: {len(samples[name])} samples; highest percentile with 10 beyond "
                  f"it: p{top * 100:g} = {percentile(samples[name], top) * 1e3:.3f} ms")
        print(f"  batch: median of {len(samples['batch'])} batches; "
              f"set-up: median of {SETUP_REPEATS}, spread over the run")
        values = {
            "batch_s": statistics.median(samples["batch"]),
            "chart_p50_ms": percentile(samples["chart"], 0.5) * 1e3,
            "chart_p90_ms": percentile(samples["chart"], 0.9) * 1e3,
            "append_p50_ms": percentile(samples["append"], 0.5) * 1e3,
            "append_p90_ms": percentile(samples["append"], 0.9) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")

    result = {
        "correct": not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
