"""The speed the host gives this machine, sampled while the benchmark runs.

On a virtual machine that shares its host, the CPU runs the same code at a
speed that changes in phases of seconds to minutes: a fixed kernel timed
over and over for six minutes took from 0.058 s to 0.131 s of CPU time.
A CPU time measured in a slow phase says more about the host than about
gtsfit. So a thread runs a small fixed kernel every few tens of
milliseconds, on the same CPU as the benchmark, for as long as the run
lasts. The kernel uses no gtsfit code: Python integer arithmetic, a numpy
FFT and a small matrix product, the kinds of work the workloads do. The
mean CPU time of the samples taken during an interval says how fast the
machine was then, and

    cpu_seconds * NOMINAL_S / mean sample CPU time

is the CPU time the same work would take on a machine that runs the
kernel in NOMINAL_S. Threads of one process share the GIL, so the
sampler runs between the benchmark's Python steps or beside its numpy
calls, and its own CPU time is taken with the thread's clock and never
counted as the benchmark's.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

# CPU seconds of one sample kernel at the speed the figures are scaled to:
# about its fastest time on the 2-vCPU machine of the README's figures.
NOMINAL_S = 0.0012
# Pause between samples; a sample takes about NOMINAL_S, so the sampler
# uses a few percent of the CPU.
PAUSE_S = 0.04


def pin_to_one_cpu():
    """Run this process, its threads and the processes it starts on one
    CPU, so that the sampler measures the CPU the benchmark runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._signal = rng.standard_normal(1 << 14)
        self._matrix = rng.standard_normal((96, 96))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler",
                                        daemon=True)
        self.ends = []   # wall clock (perf_counter) at the end of each sample
        self.cpu = []    # CPU seconds of each sample

    def _kernel(self):
        x = 0
        for _ in range(4000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        self._np.fft.fft(self._signal)
        self._matrix @ self._matrix
        return x

    def _loop(self):
        while not self._stop.is_set():
            c0 = time.thread_time()
            self._kernel()
            cpu = time.thread_time() - c0
            self.ends.append(time.perf_counter())
            self.cpu.append(cpu)
            self._stop.wait(PAUSE_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0, t1):
        """NOMINAL_S over the mean CPU time of the samples that ended in
        [t0, t1] and of the one just before and the one just after it."""
        lo = max(bisect.bisect_left(self.ends, t0) - 1, 0)
        hi = bisect.bisect_right(self.ends, t1) + 1
        return NOMINAL_S / statistics.fmean(self.cpu[lo:hi])
