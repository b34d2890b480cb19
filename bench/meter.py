"""Timing at reference speed, and timing spans for the traced run.

The machine this benchmark was built on runs the same code at speeds that
swing by up to 1.7x in phases of 0.5-2 s.  Every timed unit is therefore
paired with a fixed reference kernel (exact Fraction and integer arithmetic,
standard library only): the kernel runs right before and right after the
unit and, for units that compute in this process, every SAMPLE_INTERVAL_S
inside it, from a SIGALRM handler.  The unit's time is reported at
reference speed,

    ref = raw * NOMINAL_KERNEL_S * mean(1 / kernel time of each sample),

where raw excludes the time the interleaved samples took.  The mean of the
inverse weighs each slice of the unit by the speed measured beside it.
Samples more than OUTLIER times slower than the unit's median sample were
interrupted rather than slowed by a phase, and are left out.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

NOMINAL_KERNEL_S = 0.0002  # the kernel's time at reference speed
SAMPLE_INTERVAL_S = 0.005
# While pool workers compute, samples compete with them for the two CPUs;
# sampling less often keeps that share near 1%.
POOL_SAMPLE_INTERVAL_S = 0.02
OUTLIER = 2.5  # a sample this many times slower than the unit's median was interrupted


def kernel():
    """The reference work: about 0.2 ms of Fraction and integer arithmetic."""
    f = Fraction(0)
    t = 0
    for i in range(1, 100):
        f += Fraction(i % 97 + 1, i % 89 + 2)
        t += (i * 7919) % 104729 * i
    return f, t


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Unit:
    """One timed unit: raw seconds, the reference-speed factor, and the
    unit's wall and CPU seconds at reference speed."""

    raw = factor = ref = cpu_ref = 0.0


class Meter:
    """Runs timed units with kernel samples beside and inside them.

    now() is a clock that stops while a kernel sample runs, so interleaved
    samples add nothing to the units or spans timed with it.
    """

    def __init__(self):
        self.paused = 0.0
        self._inverse: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.paused += took
        self._inverse.append(1.0 / took)

    def _on_alarm(self, signum, frame):
        self._sample()

    @contextmanager
    def unit(self, interval: float = SAMPLE_INTERVAL_S):
        """Time the body, with kernel samples before, after and every
        interval seconds inside it."""
        u = Unit()
        self._inverse = []
        self._sample()
        paused0, cpu0, start = self.paused, cpu_seconds(), self.now()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield u
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        u.raw = self.now() - start
        cpu = cpu_seconds() - cpu0 - (self.paused - paused0)
        self._sample()
        cut = statistics.median(self._inverse) / OUTLIER
        u.factor = NOMINAL_KERNEL_S * statistics.fmean(x for x in self._inverse if x >= cut)
        u.ref = u.raw * u.factor
        u.cpu_ref = cpu * u.factor


class Tracer:
    """Timing spans around library functions.

    Each span is installed under the module attribute where its caller looks
    the function up, and restore() puts the originals back.  Times are kept
    per unit and folded in at reference speed with the unit's factor.
    Self time is a span's time minus the time of the spans it encloses.
    """

    def __init__(self, meter: Meter, latency_span: str):
        self.meter = meter
        self.latency_span = latency_span
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.latencies: list[tuple[float, object]] = []
        self.missing: list[str] = []
        self._pending: list[tuple[str, float, float, object]] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, module, attr: str, name: str):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, self._span(original, name))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _span(self, fn, name: str):
        now, stack, pending = self.meter.now, self._stack, self._pending

        def span(*args, **kwargs):
            start = now()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                took = now() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += took
                pending.append((name, took, took - inner, args[0] if args else None))

        return span

    def fold(self, factor: float):
        """Add the spans recorded since the last fold, at reference speed."""
        for name, took, own, arg in self._pending:
            self.calls[name] += 1
            self.total[name] += took * factor
            self.self_time[name] += own * factor
            if name == self.latency_span:
                self.latencies.append((took * factor, arg))
        self._pending.clear()
