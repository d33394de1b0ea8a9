"""How fast the CPU the benchmark runs on is going, sampled while it works.

The benchmark's host is shared: a CPU's speed flips between states up to
1.65x apart, every few seconds, in ways the benchmark does not control.
A raw wall time measures that as much as the program.  So while a
workload runs, a sampler process on the same CPU, at the lowest priority,
repeats a fixed stdlib computation that uses no part of definetti (a
REF_TERMS-term harmonic sum in Fractions, about 0.7 ms) and counts its
iterations and the CPU time they took.  The scheduler gives it a steady
share of CPU time (about 1.5% beside a busy workload) in every speed state,
so its mean CPU time per iteration over an interval is the CPU's mean
slowness over that interval, and

    wall time / mean reference CPU time per iteration

is the interval's work in reference iterations, nearly free of the host's
speed.  Nearly: work that is mostly process start-up slows less than the
reference in the slow state, so the figure commands read about 7% fewer
reference iterations there than in the fast state.  Times this way, multiplied by REF_ITERATION_S, are seconds at a
nominal speed at which one reference iteration takes 1 ms (on a 2-vCPU
Xeon VM one takes 0.75 to 1.25 ms).  The sampler is a fork of the calling
process; call `start` before the package is imported and before any other
thread exists.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from fractions import Fraction
from time import perf_counter

REF_TERMS = 300
REF_ITERATION_S = 0.001
# reference iterations an interval must see, waited for after short ones
MIN_ITERATIONS = 2

_COUNTERS = struct.Struct("qq")  # iterations, CPU nanoseconds


class SpeedSampler:
    """Start with `start`, read with `read`, end with `stop` (or use `with`)."""

    def __init__(self) -> None:
        self._shared = mmap.mmap(-1, _COUNTERS.size)
        self._pid: int | None = None

    def start(self) -> SpeedSampler:
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:  # the sampler: never returns
            try:
                self._sample(parent)
            finally:
                os._exit(0)
        self._pid = pid
        return self

    def _sample(self, parent: int) -> None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.nice(19)
        iterations = 0
        cpu0 = time.process_time_ns()
        while os.getppid() == parent:
            total = Fraction(0)
            for i in range(1, REF_TERMS + 1):
                total += Fraction(1, i)
            iterations += 1
            _COUNTERS.pack_into(self._shared, 0, iterations, time.process_time_ns() - cpu0)

    def read(self) -> tuple[int, float]:
        """Iterations so far and the CPU seconds they took."""
        while True:  # the sampler may be half way through a write
            first = _COUNTERS.unpack_from(self._shared)
            if _COUNTERS.unpack_from(self._shared) == first:
                return first[0], first[1] / 1e9

    def timed(self, fn):
        """Run `fn()`; return its result, its wall seconds and its wall time
        in reference iterations."""
        before = self.read()
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        after = self.read()
        waited = perf_counter()
        while after[0] < before[0] + MIN_ITERATIONS:
            if perf_counter() - waited > 5:
                raise RuntimeError("the speed sampler has stopped")
            time.sleep(0.0005)  # leaves the CPU to the sampler
            after = self.read()
        return result, seconds, seconds * (after[0] - before[0]) / (after[1] - before[1])

    def stop(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None

    def __enter__(self) -> SpeedSampler:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

