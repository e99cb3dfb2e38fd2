"""Operation counting and in-memory spans for benchmark passes.

Every call the benchmark makes into a seritree layer goes through
`Recorder.call`. The recorder counts it as one attempted operation, counts it
as failed if it raises, and, while tracing is on, records one span
``(name, start, end, parent)`` for it. ``parent`` is the index of the
enclosing pass span; a pass span has parent -1. Output checks run inside a
pass under `paused`: their time is left out of the pass's wall time and,
when tracing, they get a ``bench.check`` span. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

MAX_ERRORS = 20


class Recorder:
    def __init__(self) -> None:
        self.trace = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._parent = -1
        self._paused = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Run one operation; returns its result, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(name, f"{type(exc).__name__}: {exc}")
            result = None
        if self.trace:
            self.spans.append((name, t0, time.perf_counter(), self._parent))
        return result

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{name}: {message}")

    def verify(self, name: str, checks) -> None:
        """Output check of one operation: it fails once if any check is false."""
        bad = [message for ok, message in checks if not ok]
        if bad:
            self.fail(name, "; ".join(bad))

    @contextmanager
    def paused(self):
        """Run output checks without charging them to the pass."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._paused += t1 - t0
            if self.trace:
                self.spans.append(("bench.check", t0, t1, self._parent))

    @contextmanager
    def pass_span(self):
        """Time one workload pass; yields a dict that receives ``wall_s``."""
        timing: dict[str, float] = {}
        index = len(self.spans)
        if self.trace:
            self.spans.append(("bench.pass", 0.0, 0.0, -1))
            self._parent = index
        self._paused = 0.0
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            t1 = time.perf_counter()
            timing["wall_s"] = t1 - t0 - self._paused
            if self.trace:
                self.spans[index] = ("bench.pass", t0, t1, -1)
                self._parent = -1


def span_cost(calls: int = 100_000, blocks: int = 5) -> float:
    """Seconds one traced `Recorder.call` costs more than an untraced one.

    Times a no-op call with tracing off and on, in alternating blocks, and
    takes the median difference per call.
    """
    rec = Recorder()
    diffs = []
    for _ in range(blocks):
        per_call = []
        for trace in (False, True):
            rec.trace = trace
            rec.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                rec.call("noop", int)
            per_call.append((time.perf_counter() - t0) / calls)
        diffs.append(per_call[1] - per_call[0])
    diffs.sort()
    return diffs[len(diffs) // 2]


def pass_children(spans, index: int) -> list[tuple[str, float, float, int]]:
    return [s for s in spans if s[3] == index]


def self_time(spans, index: int) -> float:
    """Duration of span `index` minus the time its child spans cover.

    Children of one pass, checks included, run one after another, so their
    durations add up without overlap.
    """
    _, start, end, _ = spans[index]
    return (end - start) - sum(e - s for _, s, e, _ in pass_children(spans, index))
