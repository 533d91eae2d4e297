"""Interpreter-speed sampling used to put host times on a steady scale.

On a shared host the guest's CPU runs at a speed that swings by up to
~40% within seconds, and process CPU time tracks wall time through those
swings (the guest sees no steal time), so raw timings of identical work
spread far more than any useful regression bound.  While a pass runs, a
:class:`Sampler` thread times a fixed pure-Python kernel every few tens of
milliseconds on the same interpreter; a timed segment's CPU time is then
rescaled to :data:`REFERENCE_RATE`.  A *reference second* is the time the
segment would take at the speed the kernel reaches on an unloaded machine.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

#: Kernel iterations per CPU second on an unloaded 2-vCPU x86-64 VM with
#: CPython 3.11; only the scale of reference seconds depends on it.
REFERENCE_RATE = 3500.0

#: Samples used for a window too short to contain this many of its own.
MIN_SAMPLES = 4


def _kernel() -> int:
    table: dict = {}
    total = 0
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return total


class Sampler:
    """Times the kernel from a background thread while a pass runs.

    The thread holds the interpreter lock while it runs the kernel, so a
    sample measures the speed the main thread would have had meanwhile.
    Its own CPU time is subtracted from the windows it falls in.
    """

    def __init__(self, period: float = 0.05, iterations: int = 3):
        self.period = period
        self.iterations = iterations
        #: ``(wall start, wall end, thread CPU seconds)`` per sample.
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            wall = time.perf_counter()
            cpu = time.thread_time()
            for _ in range(self.iterations):
                _kernel()
            self.samples.append(
                (wall, time.perf_counter(), time.thread_time() - cpu)
            )

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def reference(self, cpu_s: float, start: float, end: float) -> float:
        """CPU seconds spent over the wall window ``[start, end]``, rescaled
        to reference seconds (the sampler's own CPU time removed)."""
        samples = list(self.samples)
        inside = [s for s in samples if s[0] >= start and s[1] <= end]
        own = sum(s[2] for s in inside)
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(
                samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle)
            )[:MIN_SAMPLES]
        kernel_cpu = sum(s[2] for s in inside)
        if not kernel_cpu:
            return cpu_s
        speed = len(inside) * self.iterations / kernel_cpu
        return (cpu_s - own) * speed / REFERENCE_RATE
