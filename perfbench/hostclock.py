"""Host speed, sampled on every CPU while the benchmark runs.

The host this benchmark was tuned on is a 2-core guest whose speed drifts
by up to half over tens of seconds: other tenants and clock changes, all
outside the program.  :class:`HostClock` keeps one helper process pinned
to each CPU.  Every ``PERIOD_S`` each helper times a fixed pure-Python
loop in CPU time, so waiting for a CPU the program keeps busy does not
count, and no change to the program can move the loop.  A timing is
multiplied by the host's mean speed over its interval, which makes it
seconds on a nominal host where the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import multiprocessing
import os
from time import monotonic, perf_counter, process_time

#: CPU seconds the calibration loop takes on the nominal host
NOMINAL_S = 0.008
#: seconds between two samples of one helper
PERIOD_S = 0.5
#: helpers started at most, one per CPU from the lowest
MAX_HELPERS = 8


def loop_cpu_seconds() -> float:
    """CPU seconds of one run of the calibration loop."""
    t0 = process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return process_time() - t0


def _helper(cpu, conn) -> None:
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # pinning refused: sample wherever we run
            pass
    while not conn.poll(PERIOD_S):
        stamp = monotonic()
        conn.send((stamp, loop_cpu_seconds()))


class HostClock:
    """One pinned sampling process per CPU; close it to stop them."""

    def __init__(self) -> None:
        try:
            cpus = sorted(os.sched_getaffinity(0))[:MAX_HELPERS]
        except AttributeError:  # no affinity API: one unpinned helper
            cpus = [None]
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        self._samples = []
        for cpu in cpus:
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(cpu, theirs), daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)

    def now(self) -> float:
        """A timestamp for :meth:`speed_between`."""
        return monotonic()

    def speed_between(self, start: float, end: float) -> float:
        """Mean host speed from ``start`` to ``end`` (below 1 when slower).

        Samples from one period before ``start`` count, so an interval
        shorter than a period still sees each helper's latest sample.
        """
        deadline = perf_counter() + 5 * PERIOD_S
        while True:
            for conn in self._conns:
                while conn.poll():
                    self._samples.append(conn.recv())
            inside = [cpu_s for stamp, cpu_s in self._samples
                      if start - PERIOD_S <= stamp <= end]
            if inside:
                break
            if perf_counter() > deadline:
                raise RuntimeError("host clock helpers stopped sampling")
            for conn in self._conns:
                conn.poll(PERIOD_S / 4)
        self._samples = [s for s in self._samples if s[0] >= end - PERIOD_S]
        return NOMINAL_S * len(inside) / sum(inside)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(None)
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
