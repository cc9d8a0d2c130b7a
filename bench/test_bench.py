"""Self-tests for the benchmark harness: spans, wrappers, checks, time cap."""
from __future__ import annotations

import signal
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from fairdiv import random_instance, serialize_instance  # noqa: E402
from calibration import BURST, NOMINAL_S, Calibrator  # noqa: E402
from spans import MissingTarget, Target, Tracer, self_times  # noqa: E402


def _traced_driver_instance() -> Tracer:
    tracer = Tracer()
    doc = serialize_instance(random_instance(3, 6, 2, "capacity"))
    with tracer.installed(layers.TARGETS), tracer.request(0):
        outcome = workloads.run_driver(workloads.Item("small", doc))
    assert outcome.problem is None
    return tracer


def test_self_times_add_up_to_span_totals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", lambda: (leaf(), leaf()))
    with tracer.request(0) as root:
        middle()
        leaf()
    own = self_times(tracer.spans)
    assert sum(own.values()) == root.duration
    assert own[root.id] == root.duration - sum(
        s.duration for s in tracer.spans if s.parent == root.id
    )

    spans = _traced_driver_instance().spans
    own = self_times(spans)
    roots = [span for span in spans if span.parent is None]
    assert len(roots) == 1
    assert sum(own.values()) == pytest.approx(roots[0].duration, rel=1e-9)
    assert min(own.values()) >= 0.0


def test_traced_driver_fires_only_its_predicted_spans():
    table = layers.span_table(_traced_driver_instance().spans)
    assert layers.unexpected_spans(table, layers.FIRES["driver"]) == []
    assert layers.unexpected_spans(table, layers.FIRES["certify"]) != []


def test_wrappers_restore_the_originals():
    originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in layers.TARGETS]
    with pytest.raises(KeyError):
        with Tracer().installed(layers.TARGETS):
            for module, attr, original in originals:
                assert getattr(module, attr) is not original
            raise KeyError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_missing_target_fails_loudly_and_restores():
    module = types.ModuleType("program")
    module.present = lambda: 1
    present = module.present
    targets = [Target(module, "present", "a"), Target(module, "renamed_away", "b")]
    with pytest.raises(MissingTarget, match="renamed_away"):
        with Tracer().installed(targets):
            pass
    assert module.present is present


def test_run_over_its_cap_is_a_marked_timeout_not_shrunk():
    def slow(item):
        time.sleep(0.2)
        return workloads.Outcome(1, 0, "d")

    with Calibrator() as calibrator:
        measurement = run.measure(slow, list(range(5)), seconds=0.0, cap=0.5, calibrator=calibrator)
    assert measurement.timed_out
    assert [s.outcome is None for s in measurement.samples] == [False, False, True]
    assert run.tally(measurement, 5) == (5, 3)


def test_replayed_digests_must_agree():
    def sample(index, digest):
        return run.Sample(index, False, 0.1, workloads.Outcome(1, 5, digest))

    samples = [sample(0, "a"), sample(1, "b"), sample(0, "a"), sample(1, "c")]
    assert len(run.check_samples(samples, None)) == 1
    assert samples[3].outcome.problem == "digest mismatch"
    assert run.tally(run.Measurement(samples), 2) == (4, 1)
    assert len(run.check_samples([sample(0, "a")], ["z"])) == 1


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 19) == (None, None)
    assert run.tail([float(i) for i in range(20)])[0] == 50.0
    assert run.tail([float(i) for i in range(100)])[0] == 90.0


def test_calibrated_time_leaves_out_the_kernel_and_scales_by_it():
    ticks = iter(float(i) for i in range(1000))
    clock = lambda: next(ticks)  # noqa: E731 - every reading advances one second
    previous = signal.getsignal(signal.SIGPROF)
    with Calibrator(kernel=lambda: None, clock=clock) as calibrator:
        timing: list[float] = []
        calibrator.time_call(lambda: calibrator._on_signal(signal.SIGPROF, None), timing)
    assert signal.getsignal(signal.SIGPROF) is previous
    # Each kernel call reads 1 s.  The call lasts 5 s by its own readings,
    # 3 of them in the handler, so 2 s count; every kernel time is 1 s.
    assert calibrator.kernel_s == [1.0] * (2 * BURST + 1)
    assert timing == [2.0, 2.0 * NOMINAL_S]
