"""Host-speed sampling, so that timings survive drift in the CPU's speed.

The host's speed drifts: a fixed loop's time moves by up to 2x within
seconds and by about 25% between runs, as other tenants come and go.
A sampler times a short reference kernel every INTERVAL_S of wall time
from a SIGALRM handler, also in the middle of long jobs, alternating
between two kernels that psbe's code resembles in different ways.  The
garbage collector is off while a kernel runs, so that a collection of
psbe's heap is charged to psbe, not to the host.  Each sample is divided
by the kernel's time on an idle core of this host (IDLE_NS), which gives
the host's slow-down at that moment.

A timed call is reported in reference time: its elapsed time, minus the
time spent in the handler, divided by the slow-down during the call.
Every call is treated alike, whatever its length: per kernel, the
slow-down is the mean of the samples within SLACK_S around the call after
TRIM of them are cut from each end (a long call sees most stalls, a short
one few, and a single stall decides neither); the two kernels' values are
combined by their geometric mean.  A reported second is a second on this
host when idle.

While a child process does the work, a sample would compete with the
child for a core (there are two), so the timer stops and the speed is
sampled right before and right after the call instead.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass
from itertools import product

INTERVAL_S = 0.02
SLACK_S = 0.25
TRIM = 0.1                # share of a call's samples cut from each end
BURST = 4                 # samples before and after a call in a child

_WALK = tuple(tuple((x * y + 1) % 8 for y in range(8)) for x in range(8))
_TABLE = tuple(tuple((x * y + x + 1) % 6 for y in range(6)) for x in range(6))


def table_walk() -> None:
    """Tight tuple indexing and integer arithmetic."""
    t, acc = _WALK, 0
    for i in range(5_000):
        acc = t[acc][(acc + i) & 7]


@dataclass(frozen=True)
class _Found:
    images: tuple
    score: tuple


def checker_like() -> None:
    """Work shaped like psbe's checkers: itertools.product scans, lambda
    predicates, generators, small frozen dataclasses and a sort."""
    table, found = _TABLE, []
    for head in product(range(3), repeat=3):
        e = head + (0, 1, 2)
        ok = all(table[x][e[x]] != 5 for x in range(6))
        agree = (lambda x, y: table[x][e[y]] == table[e[x]][e[y]])
        hits = sum(1 for x, y in product(range(6), repeat=2) if agree(x, y))
        found.append(_Found(e, (hits, ok)))
    found.sort(key=lambda f: f.score)


# Either kernel alone left 4-13% spread between 20 s windows on one of
# the fixtures, products and search workloads; combined, at most 4%.
KERNELS = (table_walk, checker_like)
IDLE_NS = (240_000, 190_000)


def trimmed_mean(values) -> float:
    """The mean after cutting TRIM of the values from each end."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class SpeedSampler:
    """Use as a context manager around the timed part of a run."""

    def __init__(self):
        self.at = tuple([] for _ in KERNELS)       # sample start, ns
        self.slow = tuple([] for _ in KERNELS)     # sample / idle time
        self.spent = 0                   # ns spent in the handler so far
        self._turn = 0
        self._previous = None
        self._busy = False

    def _sample(self, _signum, _frame):
        if self._busy:            # a late alarm during a sample: skip it
            return
        self._busy = True
        k, self._turn = self._turn, (self._turn + 1) % len(KERNELS)
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        try:
            KERNELS[k]()
            t1 = time.perf_counter_ns()
            self.at[k].append(t0)
            self.slow[k].append((t1 - t0) / IDLE_NS[k])
        finally:
            self.spent += time.perf_counter_ns() - t0
            if collecting:
                gc.enable()
            self._busy = False

    def _start(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start()
        return self

    def __exit__(self, *exc):
        self._stop()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, in_child=False):
        """Run fn; return (start ns, end ns, own ns, result), where own ns
        excludes the time the sampler took during the call.  in_child
        says that fn waits for a child process doing the work."""
        if in_child:
            self._stop()
            for _ in range(BURST):
                self._sample(None, None)
        spent = self.spent
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter_ns()
            own = t1 - t0 - (self.spent - spent)
            if in_child:
                for _ in range(BURST):
                    self._sample(None, None)
                self._start()
        return t0, t1, own, out

    def slowdown(self, t0, t1) -> float:
        """The host's slow-down during the call that ran in [t0, t1]."""
        slack = int(SLACK_S * 1e9)
        per_kernel = []
        for at, slow in zip(self.at, self.slow):
            lo = bisect.bisect_left(at, t0 - slack)
            hi = bisect.bisect_right(at, t1 + slack)
            if lo == hi:
                raise RuntimeError("no speed sample around a timed call")
            per_kernel.append(trimmed_mean(slow[lo:hi]))
        return math.prod(per_kernel) ** (1 / len(per_kernel))

    def scaled(self, t0, t1, amount) -> float:
        """A time measured over [t0, t1] (any unit), in reference time."""
        return amount / self.slowdown(t0, t1)
