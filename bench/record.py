"""Operation timing, answer checks and in-memory spans for one benchmark run.

An operation is one input taken to a verdict.  Its latency covers only the
calls into the library that produce the verdict; input building and answer
checks run outside it.  When tracing is on, every bracketed library call
records a span ``[name, start, end, parent, op]``; spans stay in memory until
the run ends.  Span names are ``<layer>.<call>``, where the layer is a module
of the package; the benchmark's own spans are ``bench.pass`` and ``bench.op``.

The speed of a shared host drifts by up to a factor of two within minutes, so
every timed interval of the untraced figures is reported in reference
seconds: its wall time scaled by how fast the host ran fixed calibration
loops around that moment (``HostSpeed``).  Spans keep wall time.
"""

from __future__ import annotations

import math
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

CALIBRATE_EVERY_S = 0.2
# calibration samples within this many seconds of a moment gauge its speed
SPEED_WINDOW_S = 1.0
# a calibration sample's time on the reference host
REFERENCE_CALIBRATION_S = 0.0025
RING_BITS = 19


def compute_work():
    """Fixed compute-bound pure-Python work of the kind the package does:
    integer bit operations, dict updates and set lookups."""
    table = {}
    total = 0
    for i in range(3000):
        mask = (i * 2654435761) & 0xFFFF
        table[mask & 1023] = table.get(mask & 1023, 0) + bin(mask).count("1")
        total += (mask & (mask - 1)) > 0
    members = set(range(0, 3000, 3))
    return total + len(table) + sum(1 for x in range(3000) if x in members)


def memory_work(ring, steps=12000):
    """Fixed memory-bound work: a chase through ``ring``, where each step's
    address is the value just read."""
    j = 1
    total = 0
    for i in range(steps):
        j = ring[j]
        total += j & 0xFF
        if i & 7 == 0:
            total += bin(j).count("1")
    return total


class HostSpeed:
    """Calibration samples taken between timed intervals.

    The host slows compute-bound code more than code that waits on memory,
    and the package's operations lie in between, so a sample is the
    geometric mean of the times of one compute-bound and one memory-bound
    loop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._last = float("-inf")
        # a full-period linear congruential cycle over 2**RING_BITS slots (2 MB)
        mask = (1 << RING_BITS) - 1
        self._ring = array("I", ((j * 0x9E3779B5 + 0x7F4A7C15) & mask for j in range(mask + 1)))

    def sample(self):
        start = perf_counter()
        compute_work()
        mid = perf_counter()
        memory_work(self._ring)
        end = perf_counter()
        self.samples.append(((start + end) / 2, math.sqrt((mid - start) * (end - mid))))
        self._last = end

    def maybe_sample(self):
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def reference(self, start, seconds):
        """``seconds`` of wall time from ``start``, in reference seconds."""
        mid = start + seconds / 2
        near = [s for t, s in self.samples if abs(t - mid) <= SPEED_WINDOW_S + seconds / 2]
        if len(near) < 3:
            near = [s for _, s in sorted(self.samples, key=lambda x: abs(x[0] - mid))[:3]]
        return seconds * REFERENCE_CALIBRATION_S / statistics.median(near)


@dataclass
class Op:
    name: str
    key: object
    pass_index: int
    start: float = 0.0
    wall: float = 0.0
    seconds: float = 0.0  # reference seconds, set by Recorder.finish
    failed_layer: str | None = None
    reason: str = ""


@dataclass
class Pass:
    index: int
    traced: bool
    ops: int = 0
    # (start, wall seconds) of the work that decides the pass's inputs
    work: list = field(default_factory=list)
    busy: float = 0.0  # that work in reference seconds, set by Recorder.finish
    counts: Counter = field(default_factory=Counter)


class Recorder:
    def __init__(self):
        self.speed = HostSpeed()
        self.tracing = False
        self.ops: list[Op] = []
        self.passes: list[Pass] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layer = "bench"
        self._op_id = -1

    # -- spans -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Call into the library under a span named ``<layer>.<call>``."""
        self._layer = name.split(".", 1)[0]
        if not self.tracing:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- passes and operations -------------------------------------------

    def begin_pass(self, index, traced):
        self.speed.sample()
        self.tracing = traced
        self.passes.append(Pass(index, traced))
        self._op_id = -1
        if traced:
            self._open("bench.pass")

    def end_pass(self):
        if self.tracing:
            self._close(self._stack[-1])
        self.tracing = False

    @property
    def current(self):
        return self.passes[-1]

    def count(self, name, amount=1):
        """Add to a per-layer counter; counters are kept for traced passes."""
        if self.tracing:
            self.current.counts[name] += amount

    def busy(self, start, seconds):
        """Deciding work done outside any op, such as lattice enumeration."""
        self.current.work.append((start, seconds))

    def finish(self):
        """Convert the timed intervals to reference seconds; call once, after
        the last pass."""
        self.speed.sample()
        for op in self.ops:
            op.seconds = self.speed.reference(op.start, op.wall)
        for p in self.passes:
            p.busy = sum(self.speed.reference(*w) for w in p.work)

    def op(self, name, key):
        """Context for one operation."""
        return _OpContext(self, name, key)


class _OpContext:
    def __init__(self, rec, name, key):
        self.rec = rec
        self.record = Op(name, key, rec.current.index)
        self._start = None
        self._span = None

    def __enter__(self):
        rec = self.rec
        rec.ops.append(self.record)
        rec._op_id = len(rec.ops) - 1
        rec._layer = "bench"
        rec.speed.maybe_sample()
        if rec.tracing:
            self._span = rec._open("bench.op")
        self._start = self.record.start = perf_counter()
        return self

    def stop(self, seconds=None):
        """The verdict is in: end the timed region (``seconds`` overrides it
        for work timed elsewhere, such as a child process)."""
        if self._start is None:
            return
        elapsed = perf_counter() - self._start
        self._start = None
        if self._span is not None:
            self.rec._close(self._span)
            self._span = None
        self.record.wall = elapsed if seconds is None else seconds
        self.rec.current.ops += 1
        self.rec.current.work.append((self.record.start, self.record.wall))

    def fail(self, layer, reason):
        if self.record.failed_layer is None:
            self.record.failed_layer = layer
            self.record.reason = reason

    def check(self, ok, layer, reason):
        if not ok:
            self.fail(layer, reason)
        return ok

    def __exit__(self, exc_type, exc, tb):
        layer = self.rec._layer
        self.stop()
        if isinstance(exc, Exception):
            self.fail(layer, f"{type(exc).__name__}: {exc}")
            return True
        return False


# -- derived figures -----------------------------------------------------------


def self_times(spans):
    """Per span name: total duration and total self time (duration minus the
    part covered by child spans; children of one span never overlap here)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, own = Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[i]
    return busy, own
