"""The closed-loop client: one caller, one op at a time, no think time.

Every op goes through :meth:`Client.call`, which times it at the public
call boundary and files the latency under an op *kind*.  Work the
benchmark does for itself between ops (correctness checks, reference
answers) runs under :meth:`Client.paused`: its wall time and the program
counters it moves are taken out of the run's figures.

The sandbox's CPU speed drifts by tens of percent from second to second
(other tenants of the machine).  So the client also times a fixed
calibration loop, :func:`probe`, between ops every ``PROBE_EVERY_S``.
Each latency is also filed scaled to the reference speed: times
``NOMINAL_PROBE_S`` over the median of the ``LOCAL_PROBES`` probes
around it.  Whole-run times use the run's median probe (:class:`Speed`).
Medians, because a probe the OS preempts reads many times too long.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError

#: seconds between calibration probes, and a probe's time at the
#: reference speed (about its typical time on a shared 2-core x86 VM)
PROBE_EVERY_S = 0.025
NOMINAL_PROBE_S = 0.0005
LOCAL_PROBES = 20


def probe() -> float:
    """Time a fixed piece of pure Python shaped like the program's own
    work (string formatting and splitting, dict and tuple building, a
    sort).  The collector is held off so the program's heap cannot change
    the probe's cost; everything it allocates is freed by refcount."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(500):
            parts = f"/src/mod{i % 7}/file{i}.py".split("/")
            table[parts[-1]] = (parts[1], len(parts), i)
        total = 0
        for key in sorted(table):
            total += table[key][2]
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """Calibration probes of one run; :meth:`factor` turns measured
    seconds into seconds at the reference speed."""

    def __init__(self):
        self.probes: List[float] = []

    def sample(self) -> float:
        spent = probe()
        self.probes.append(spent)
        return spent

    def factor(self, last: int = 0) -> float:
        """Reference over measured speed, from the median of all probes
        or of the *last* few."""
        return NOMINAL_PROBE_S / statistics.median(self.probes[-last:])


class Client:
    """*counters* are the program's (None for a set-up, which has no
    world yet and keeps no counter figures)."""

    def __init__(self, counters, speed: Speed, recorder=None):
        self.counters = counters
        self.speed = speed
        self._next_probe = 0.0
        #: op kind → latencies in seconds, in call order; ``scaled``
        #: holds them at the reference speed
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        self._unscaled: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: optional :class:`spans.SpanRecorder` (the traced pass)
        self.recorder = recorder
        self._start = 0.0
        self._paused = 0.0
        self._counters0: Dict[str, float] = {}
        self._excluded: Dict[str, float] = defaultdict(float)
        self.wall = 0.0
        self.counter_delta: Dict[str, float] = {}
        #: phase name → seconds (Andrew's five phases)
        self.phases: Dict[str, float] = {}

    # -- the timed region ------------------------------------------------------

    def start(self) -> None:
        if self.counters is not None:
            self._counters0 = self.counters.snapshot()
        self.speed.sample()
        self._start = time.perf_counter()
        self._next_probe = self._start + PROBE_EVERY_S

    def _probe(self) -> None:
        self._paused += self.speed.sample()
        factor = self.speed.factor(LOCAL_PROBES)
        for kind, seconds in self._unscaled:
            self.scaled[kind].append(seconds * factor)
        self._unscaled.clear()
        self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def stop(self) -> None:
        self.wall = time.perf_counter() - self._start - self._paused
        self._probe()
        if self.counters is None:
            return
        delta = self.counters.diff(self._counters0)
        for name, value in self._excluded.items():
            delta[name] = delta.get(name, 0.0) - value
        self.counter_delta = {k: v for k, v in delta.items() if v}

    def scaled_wall(self) -> float:
        """The timed wall time at the reference speed: each op scaled by
        its local probes, the client's own time between ops by the run's
        median probe."""
        ops = sum(sum(v) for v in self.samples.values())
        scaled = sum(sum(v) for v in self.scaled.values())
        return scaled + (self.wall - ops) * self.speed.factor()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    @contextmanager
    def paused(self):
        """Benchmark-side work between ops: not timed, not counted."""
        before = self.counters.snapshot()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0
            for name, value in self.counters.diff(before).items():
                self._excluded[name] += value

    @contextmanager
    def phase(self, name: str):
        t0 = self.elapsed()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + \
                self.elapsed() - t0

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """One timed op.  A refused or failed op is counted, its error
        kept for the report, and re-raised to the workload."""
        self.attempted += 1
        recorder = self.recorder
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = fn(*args, **kwargs)
            else:
                result = recorder.op_call(kind, self.attempted, fn, *args,
                                          **kwargs)
        except ReproError as exc:
            self.failed += 1
            self.errors.append(f"{kind}: {exc!r}")
            raise
        t1 = time.perf_counter()
        self.samples[kind].append(t1 - t0)
        self._unscaled.append((kind, t1 - t0))
        if t1 >= self._next_probe:
            self._probe()
        return result


def percentile(values: List[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it (the tail would rest on a handful of points)."""
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]
