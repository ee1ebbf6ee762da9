"""Times scaled to a reference host speed.

On a shared VM the CPU speed drifts between regimes that last seconds to
minutes: on a 2-vCPU Xeon VM the same case took anywhere from 1x to 2x
its fastest time. A raw wall time therefore measures the host as much
as the solver. `Clock` times a call and also times a fixed pure-Python
probe before, during and after it; the call's time is then scaled by
`REF_PROBE_S` over the mean probe time. (The mean, not the median: when
the regime changes during a call, the call's time reflects the average
speed. The mean also gave the lower spread.) The result is the call's
duration at the host speed where the probe takes `REF_PROBE_S`. On
that VM, over minutes of drift, it cut the run-to-run
coefficient of variation of one case from 7-24% to 2.5-7%.

During the call the probe runs from a SIGVTALRM handler every
`INTERVAL_S` of the process's user CPU time, so a regime change in the
middle of a long case is seen; the probes' own time is subtracted from
the call's.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_PROBE_S = 0.001
INTERVAL_S = 0.05
EDGE_PROBES = 3  # before and after the call


def _probe_work() -> int:
    # Arithmetic alone slows less than the solver when the host is
    # contended, tuple-keyed dict and set work alone slows more; the sum
    # tracked the solver's cases best (log-log slope 0.99 to 1.04).
    s = 0
    for i in range(5000):
        s = (s * 33 + i) & 0xFFFF
    seen: set = set()
    table: dict = {}
    for i in range(2000):
        key = ((i * 31 + 7) & 1023, i & 63)
        if key in seen:
            table[key] = table.get(key, 0) + 1
        else:
            seen.add(key)
    return s + len(table) + len(seen)


def probe() -> float:
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


class Clock:
    """`clock.time(fn)` returns (fn's result, raw seconds, reference
    seconds). With `sample=False` the probe runs only before and after
    each call, for traced calls, whose spans should not contain probes."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self._during: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._during.append(probe())

    def time(self, fn):
        edges = [probe() for _ in range(EDGE_PROBES)]
        self._during = []
        if self.sample:
            old = signal.signal(signal.SIGVTALRM, self._tick)
            signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            if self.sample:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
                signal.signal(signal.SIGVTALRM, old)
        during = self._during
        raw = t1 - t0 - sum(during)
        edges += [probe() for _ in range(EDGE_PROBES)]
        scale = REF_PROBE_S / statistics.fmean(edges + during)
        return result, raw, raw * scale
