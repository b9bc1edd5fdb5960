"""Host speed, sampled on each CPU while a run goes on, to put CPU times on a reference speed.

The benchmark's host is a shared VM whose speed drifts by up to about 1.6x
over seconds to minutes, in CPU time as much as in wall time, and not in
step on its two CPUs: in the same second one CPU may run a fixed loop 20%
faster than the other.  A raw time then says as much about the neighbours as
about the program.

While ``HostSpeed.sampling()`` is active, one thread per CPU (at most
``MAX_CPUS``), each pinned to its CPU, times a fixed pure-Python loop in its
own thread CPU time every ``PERIOD_S`` seconds (about 3% of each CPU).
``HostSpeed.scale(cpu_s, start, end, cpu)`` multiplies a CPU time measured
over the ``perf_counter`` interval ``[start, end]`` by ``REF_LOOP_S`` over
the loop's median time in that interval: on ``cpu`` for a process pinned
there with ``pin()``, else the mean over the sampled CPUs.  The result is the CPU seconds the same work
would take on a host where the loop takes ``REF_LOOP_S``.  ``perf_counter``
is ``CLOCK_MONOTONIC`` on Linux, so intervals measured in child processes
compare with the samples.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

PERIOD_S = 0.05
LOOP_N = 20_000
REF_LOOP_S = 1.2e-3  # the loop's thread CPU time in a fast stretch of the reference host
MIN_SAMPLES = 5
MAX_CPUS = 8

CPUS = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
PIN_CPU = CPUS[-1]  # where single-process phases (set-up probes, the clone) run


def pin() -> None:
    """Pin the calling process to ``PIN_CPU``, so its phases scale by that CPU's samples."""
    os.sched_setaffinity(0, {PIN_CPU})


def _loop() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i
    return s


class HostSpeed:
    """Each sampled CPU's loop times, taken while ``sampling()`` is active."""

    def __init__(self):
        self._samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in CPUS}  # (start, loop CPU s)

    def _sample(self, cpu: int, stop: threading.Event) -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux this pins the calling thread only
        out = self._samples[cpu]
        while not stop.is_set():
            t = time.perf_counter()
            c = time.thread_time()
            _loop()
            out.append((t, time.thread_time() - c))
            stop.wait(PERIOD_S)

    @contextlib.contextmanager
    def sampling(self):
        """Sample each CPU's speed until the block ends; the threads are joined on exit."""
        stop = threading.Event()
        threads = [
            threading.Thread(target=self._sample, args=(cpu, stop), name=f"hostspeed-{cpu}", daemon=True)
            for cpu in CPUS
        ]
        for thread in threads:
            thread.start()
        try:
            yield self
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def loop_s(self, start: float, end: float, cpu: int | None = None) -> float:
        """Median loop time over ``[start, end]`` on ``cpu``, or the mean over the sampled CPUs."""
        cpus = CPUS if cpu is None else [cpu]
        return statistics.fmean(_median_loop(self._samples[c], start, end) for c in cpus)

    def scale(self, cpu_s: float, start: float, end: float, cpu: int | None = None) -> float:
        """``cpu_s``, measured over ``[start, end]``, at the reference speed."""
        return cpu_s * REF_LOOP_S / self.loop_s(start, end, cpu)

    def summary(self, start: float, end: float) -> dict:
        """Per CPU, the loop's median, least and largest time in an interval, for the run record."""
        out = {}
        for cpu, samples in self._samples.items():
            inside = [d * 1e3 for t, d in samples if start <= t <= end]
            if inside:
                out[f"cpu{cpu}"] = {
                    "samples": len(inside),
                    "loop_ms_median": statistics.median(inside),
                    "loop_ms_min": min(inside),
                    "loop_ms_max": max(inside),
                }
        return out


def _median_loop(samples: list[tuple[float, float]], start: float, end: float) -> float:
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    if not inside:
        raise RuntimeError("no host-speed samples: call scale() inside sampling()")
    return statistics.median(inside)
