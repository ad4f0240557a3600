"""A probe of how fast the machine runs while a pass runs.

The machine the benchmark runs on is a share of a busy host: its speed
swings by up to 2x, in bursts of a second as well as in spells of
minutes, and a job's wall time swings with it. So while a pass runs, a
timer signal runs a tiny fixed job every PERIOD_S of wall time and
times it. The pass's times, with the time spent in the probe taken out,
are then multiplied by NOMINAL_S times the mean of 1 / (probe time):
that gives them at the speed at which the tiny job takes NOMINAL_S.

The tiny job does the kind of work qsteane's Python does (tuples from
itertools, small sets and lists, function calls, shifts and xors on
ints) but shares no code with qsteane, so no change to qsteane moves
it. On this kind of host its speed follows that of every workload's
passes closely (per-pass correlation of log times 0.95 and up), which a
plain-int loop or a memory-gather probe did not.
"""

import itertools
import signal
import time

PERIOD_S = 0.04
# Time of the tiny job on a quiet 2-vCPU x86-64 VM (Intel Xeon, Python 3.11).
NOMINAL_S = 0.00018


def _fold(rows, q):
    g = 0
    for v in rows:
        for i in range(q):
            if (v >> i) & 1:
                g ^= i
    return g


def tiny_job(q=7, r=3):
    """Every r-subset of q pivots, rows filled in past their pivots, folded."""
    out = 0
    for pivots in itertools.combinations(range(q), r):
        pivset = set(pivots)
        free = [[c for c in range(pivots[i] + 1, q) if c not in pivset] for i in range(r)]
        rows = [1 << p for p in pivots]
        for i, cols in enumerate(free):
            for c in cols:
                rows[i] |= 1 << c
        out ^= _fold(rows, q)
    return out


class SpeedProbe:
    """Times tiny_job from a SIGALRM handler every PERIOD_S of wall time."""

    def __init__(self):
        self.samples = []  # seconds of each tiny_job run
        self.spent = 0.0  # wall time spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        tiny_job()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self):
        """Factor from wall time to time at the nominal speed."""
        return NOMINAL_S * sum(1 / t for t in self.samples) / len(self.samples)
