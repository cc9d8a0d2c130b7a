"""fairdiv benchmark: one seeded workload per run, end-to-end or traced.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload driver --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``driver`` (parse -> fair_divide ->
verify over six random configs), ``adversarial`` (the Table 1 run at
n = 990 through the JSON wire format) and ``certify`` (in-process
``fairdiv solve`` then ``fairdiv verify --floor-mode exact-mms``).

The run builds the workload's instance documents from ``--seed`` (set-up,
repeated and timed as ``setup_s``), then measures a closed loop: one
instance at a time, as many whole passes over the set as fit in
``--seconds`` (at least one).  Times in the JSON metrics are adjusted for
the host's speed against a fixed reference kernel (``calibration.py``);
the report also prints the wall-time figures.  Each instance's time is
the median of its passes.  Every output is checked; on the default seed
allocation digests must match ``reference.json``, on any seed every
repeat of an instance must replay to the same digest.  ``--trace 0`` reports end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes, wraps the
package's functions from outside (``layers.py``), reports per-layer
metrics and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it are a readable report, including the metrics that are
not part of the JSON: ``failed_frac`` and ``instance_s_tail``.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from calibration import Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Set-up repeats: at least the first count, more until SETUP_MIN_S
# seconds are spent, at most the second count; setup_s is the median.
SETUP_REPEATS = (5, 100)
SETUP_MIN_S = 2.0
# Every run must end within 180 s; measurement stops at this many
# seconds after the process started and the run is marked timed out.
TIME_CAP_S = 165.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


def load_program() -> None:
    """Put the checkout's own sources first on the import path."""
    package = SRC / "fairdiv" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fairdiv

    if Path(fairdiv.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported fairdiv from {fairdiv.__file__}, expected {package}")


class CapReached(BaseException):
    """Raised by the run's alarm.  A BaseException, so the program's own
    error handling cannot swallow it."""


def _raise_cap(signum, frame):
    raise CapReached


@dataclass
class Sample:
    index: int  # position of the instance in the set
    traced: bool
    seconds: float = 0.0  # wall time
    outcome: Any = None  # None: cut off by the time cap
    adjusted: float = 0.0  # wall time at the reference speed


@dataclass
class Measurement:
    samples: list[Sample] = field(default_factory=list)
    pass_seconds: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    timed_out: bool = False


def measure(
    step: Callable[[Any], Any],
    items: Sequence[Any],
    seconds: float,
    cap: float,
    calibrator: Calibrator,
    tracer=None,
    targets: Sequence = (),
) -> Measurement:
    """Closed loop over whole passes of ``items``, one instance at a time.

    Another pass starts only while the previous pass's length still fits
    in ``seconds``, and at least one pass always runs, so the set
    measured never shrinks with the program's speed.  With a tracer,
    passes alternate untraced and traced (at least one of each).
    Samples are timed by ``calibrator``, whose program time the tracer's
    spans also read.  A pass's seconds are the sum of its samples' wall
    times.  When ``cap`` seconds have passed the instance in flight is
    abandoned and the measurement is marked timed out.
    """

    def traced_step(index: int, item: Any) -> Any:
        with tracer.request(index):
            return step(item)

    modes = (False, True) if tracer is not None else (False,)
    result = Measurement()
    previous = signal.signal(signal.SIGALRM, _raise_cap)
    signal.setitimer(signal.ITIMER_REAL, max(cap, 1e-3))
    start = time.perf_counter()
    try:
        passes = 0
        last_pass = 0.0
        while passes < len(modes) or time.perf_counter() - start + last_pass <= seconds:
            traced = modes[passes % len(modes)]
            pass_start = time.perf_counter()
            with tracer.installed(targets) if traced else nullcontext():
                for index, item in enumerate(items):
                    sample = Sample(index, traced)
                    result.samples.append(sample)
                    call = partial(traced_step, index, item) if traced else partial(step, item)
                    timing: list[float] = []
                    try:
                        sample.outcome = calibrator.time_call(call, timing)
                    finally:
                        if timing:
                            sample.seconds, sample.adjusted = timing
            last_pass = time.perf_counter() - pass_start
            result.pass_seconds[traced].append(
                sum(s.seconds for s in result.samples[-len(items) :])
            )
            passes += 1
    except CapReached:
        result.timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result


def tally(measurement: Measurement, count: int) -> tuple[int, int]:
    """(attempted, failed).  After a timeout, the instance cut off and every
    instance of the set that never started count as attempted and failed."""
    unstarted = count - len({sample.index for sample in measurement.samples})
    failed = sum(
        1 for s in measurement.samples if s.outcome is None or s.outcome.problem is not None
    )
    return len(measurement.samples) + unstarted, failed + unstarted


def check_samples(samples: Sequence[Sample], reference: Sequence[str] | None) -> list[str]:
    """Mark samples whose checks or digests failed; return the problems.

    Each instance's digest must equal ``reference`` when given, else the
    first digest that instance produced in this run.
    """
    problems = []
    expected: dict[int, str] = {}
    for sample in samples:
        outcome = sample.outcome
        if outcome is None:
            continue
        if outcome.problem is not None:
            problems.append(f"instance {sample.index}: {outcome.problem}")
            continue
        if reference is not None:
            want = reference[sample.index] if sample.index < len(reference) else "<none>"
        else:
            want = expected.setdefault(sample.index, outcome.digest)
        if outcome.digest != want:
            sample.outcome = replace(outcome, agents=0, problem="digest mismatch")
            problems.append(f"instance {sample.index}: digest {outcome.digest[:12]} != {want[:12]}")
    return problems


def trace_overhead(samples: Sequence[Sample]) -> float:
    """Traced over untraced time, minus 1, over the instances that ran
    both ways: each instance's median adjusted time, summed per mode."""
    medians: dict[bool, dict[int, float]] = {}
    for traced in (False, True):
        times: dict[int, list[float]] = {}
        for sample in samples:
            if sample.traced == traced and sample.outcome is not None:
                times.setdefault(sample.index, []).append(sample.adjusted)
        medians[traced] = {i: statistics.median(v) for i, v in times.items()}
    both = medians[False].keys() & medians[True].keys()
    if not both:
        return 0.0
    return sum(medians[True][i] for i in both) / sum(medians[False][i] for i in both) - 1.0


def tail(times: Sequence[float]) -> tuple[float | None, float | None]:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(ordered, n=1000, method="inclusive")[round(pct * 10) - 1]
            return pct, cut
    return None, None


def end_to_end(
    measurement: Measurement, count: int, setup_s: float
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """JSON end-to-end metrics, plus the ones only the report shows.

    Each instance's time is the median of its untraced passes' adjusted
    times.  Throughput and the instance median are taken over those
    times, so every instance of the set weighs the same however many
    passes ran.  The tail is taken over every untraced sample.  The
    report repeats throughput and median from wall times.
    """
    untraced = [s for s in measurement.samples if not s.traced]
    by_index: dict[int, list[Sample]] = {}
    for sample in untraced:
        by_index.setdefault(sample.index, []).append(sample)
    typical = {i: statistics.median(s.adjusted for s in group) for i, group in by_index.items()}
    wall = [statistics.median(s.seconds for s in group) for group in by_index.values()]
    agents = sum(
        group[0].outcome.agents
        for group in by_index.values()
        if all(s.outcome is not None and s.outcome.problem is None for s in group)
    )
    queries: dict[int, int] = {}
    for sample in measurement.samples:
        if sample.outcome is not None:
            queries.setdefault(sample.index, sample.outcome.queries)
    times = list(typical.values())
    every = [s.adjusted for s in untraced]
    pct, cut = tail(every)
    metrics = {
        "setup_s": (setup_s, "s"),
        "agents_per_s": (agents / sum(times) if times else 0.0, "1/s"),
        "instance_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "queries_per_instance": (statistics.fmean(queries.values()) if queries else 0.0, "count"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        "instance_s_tail": {"percentile": pct, "value_s": cut, "samples": len(every)},
        "instances_in_set": count,
        "wall": {
            "agents_per_s": agents / sum(wall) if wall else 0.0,
            "instance_s_p50": statistics.median(wall) if wall else 0.0,
        },
    }
    return metrics, extra


def _format(value: float) -> str:
    return f"{value:.6g}"


def setup(workload, seed: int, workdir: Path, calibrator: Calibrator) -> tuple[list, float]:
    """Build the inputs repeatedly; return them and the median adjusted
    build time."""
    wall: list[float] = []
    adjusted: list[float] = []
    while len(wall) < SETUP_REPEATS[0] or (
        sum(wall) < SETUP_MIN_S and len(wall) < SETUP_REPEATS[1]
    ):
        timing: list[float] = []
        items = calibrator.time_call(lambda: workload.build(seed, workdir), timing)
        wall.append(timing[0])
        adjusted.append(timing[1])
    return items, statistics.median(adjusted)


def print_report(report: dict[str, Any], metrics, per_layer) -> None:
    print(
        f"fairdiv benchmark: workload={report['workload']} seed={report['seed']} "
        f"trace={report['trace']} python={report['python']} nproc={report['nproc']}"
    )
    print(
        f"  {report['instances_in_set']} instances per pass, passes {report['passes']}, "
        f"timed_out={report['timed_out']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {_format(value):>14} {unit}")
    for name, value in report["wall"].items():
        print(f"  {name + ' (wall)':<26} {_format(value):>14}")
    tail_info = report["instance_s_tail"]
    if tail_info["percentile"] is None:
        shown = f"{'n/a':>14} s  ({tail_info['samples']} samples, too few)"
    else:
        shown = (
            f"{_format(tail_info['value_s']):>14} s  "
            f"(p{tail_info['percentile']:g} of {tail_info['samples']} samples)"
        )
    print(f"  {'instance_s_tail':<26} {shown}")
    print(
        f"  {'failed_frac':<26} {_format(report['failed_frac']):>14} "
        f"({report['failed']}/{report['attempted']})"
    )
    if per_layer is not None:
        print(f"  {'span':<36} {'calls':>8} {'self_s':>12} {'total_s':>12}  (per traced pass)")
        passes = max(1, len(report["pass_seconds"]["traced"]))
        for name, row in sorted(report["spans"].items()):
            print(
                f"  {name:<36} {_format(row['calls'] / passes):>8} "
                f"{_format(row['self_s'] / passes):>12} {_format(row['total_s'] / passes):>12}"
            )
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<42} {_format(value):>14} {unit}")
    for problem in report["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("driver", "adversarial", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    with Calibrator() as calibrator:
        tracer = Tracer(clock=calibrator.program_time) if args.trace else None
        items, setup_s = setup(workload, args.seed, OUT / "work" / args.workload, calibrator)
        cap = TIME_CAP_S - (time.perf_counter() - PROCESS_START)
        measurement = measure(
            workload.step, items, args.seconds, cap, calibrator, tracer, layers.TARGETS
        )

    reference = None
    if args.seed == workloads.DEFAULT_SEED or not workload.seed_changes_input:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"][workload.name]
    problems = check_samples(measurement.samples, reference)
    attempted, failed = tally(measurement, len(items))
    metrics, extra = end_to_end(measurement, len(items), setup_s)
    passes = measurement.pass_seconds
    report: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "timed_out": measurement.timed_out,
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "pass_seconds": {"untraced": passes[False], "traced": passes[True]},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        **extra,
        "end_to_end": {name: value for name, (value, _unit) in metrics.items()},
        "problems": problems,
        "instances": [item.label for item in items],
        "samples": [[s.index, int(s.traced), s.seconds, s.adjusted] for s in measurement.samples],
    }
    per_layer = None
    if tracer is not None:
        report["spans"] = layers.span_table(tracer.spans)
        problems.extend(layers.unexpected_spans(report["spans"], layers.FIRES[args.workload]))
        overhead = trace_overhead(measurement.samples)
        per_layer = layers.layer_metrics(tracer.spans, metrics["queries_per_instance"][0], overhead)
        report["per_layer"] = {name: value for name, (value, _unit) in per_layer.items()}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(
            "".join(json.dumps(span.as_record()) + "\n" for span in tracer.spans), encoding="utf-8"
        )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    print_report(report, metrics, per_layer)
    shown = per_layer if per_layer is not None else metrics
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
