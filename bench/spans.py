"""In-memory spans for the traced benchmark run.

A ``Tracer`` records one span per call of each wrapped function: its
name, start, end, parent span and the request (benchmark instance) it
belongs to, plus counts taken at the same boundary.  The benchmark runs
one instance at a time on one thread, so spans nest on a single stack
and a span's children never overlap; a span's self time is therefore
its duration minus the durations of its direct children.

Wrapping happens from the outside: ``Tracer.installed`` replaces module
attributes (the names the program's callers look up at call time) with
wrappers and puts the originals back on exit.  A target that no longer
exists raises ``MissingTarget`` instead of silently recording nothing.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator, Sequence

# A counter is called with the wrapped call's positional arguments before
# the call; it returns a function that maps the call's result to counts.
Counter = Callable[[tuple], Callable[[Any], dict[str, int]]]


class MissingTarget(RuntimeError):
    """A patch target named by the benchmark does not exist in the program."""


@dataclass(frozen=True)
class Target:
    """Module attribute to wrap, and the span name its calls record."""

    module: ModuleType
    attr: str
    span: str
    counter: Counter | None = None


@dataclass
class Span:
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records spans in memory; nothing is written until the caller asks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._request, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def request(self, request_id: int, name: str = "instance") -> Iterator[Span]:
        """Root span of one benchmark instance; spans inside share its id."""
        if self._stack:
            raise RuntimeError("requests do not nest")
        self._request = request_id
        with self.span(name) as root:
            yield root

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = counter(args) if counter is not None else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if finish is not None:
                span.counts = finish(result)
            return result

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore.

        Targets sharing one function object (one function re-exported by
        several modules) are each wrapped; the originals go back in
        reverse order even when installing or the block fails.
        """
        originals: list[tuple[ModuleType, str, Any]] = []
        try:
            for target in targets:
                if not hasattr(target.module, target.attr):
                    raise MissingTarget(
                        f"{target.module.__name__}.{target.attr} does not exist; "
                        f"span {target.span!r} would never fire"
                    )
                original = getattr(target.module, target.attr)
                originals.append((target.module, target.attr, original))
                setattr(
                    target.module,
                    target.attr,
                    self.wrap(target.span, original, target.counter),
                )
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own
