"""Sample how fast this CPU runs right now, to put timings on one scale.

The shared machines the benchmark runs on change each CPU's speed by up to
2x, for seconds at a time, and a CPU's mean speed drifts by tens of
percent over an hour, mostly as other tenants contend for the caches and
memory. Wall times taken at different moments are then not comparable.
:class:`SpeedMeter` runs a fixed probe on a timer while the benchmark
works, on the same CPU, and :meth:`SpeedMeter.scale` converts a wall-time
span into reference seconds: the time the span would have taken, without
the probes, had the probe run at ``PROBE_REF_S`` throughout.

The slow phases do not slow all code alike, so the probe mixes the kinds
of work the program does: numpy dispatch on small arrays, broadcasts over
per-sample outer products, argmin scans over a pool, and gathering
per-sample feature arrays from objects scattered over more memory than a
core's own caches hold.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# about the probe's time at the fast speed of a 2-vCPU "Intel(R) Xeon(R)
# Processor" VM with Python 3.11, numpy 2.4 and one OpenBLAS thread
PROBE_REF_S = 1.0e-3
GATHER_ROWS = 1000

_MATRIX = np.linspace(-1.0, 1.0, 400).reshape(20, 20) / 20
_VECTOR = np.ones(20)
_POINTS = np.linspace(-1.0, 1.0, 2000).reshape(100, 20)
_POOL = np.linspace(1.0, 2.0, 1000)


class _Row:
    __slots__ = ("features",)

    def __init__(self, i):
        self.features = np.full(20, float(i))


# about 3 MB of rows in a fixed shuffled order; each probe gathers the next
# GATHER_ROWS of them, so it reads memory the last probe did not touch
_ROWS = [_Row(i) for i in range(10 * GATHER_ROWS)]
_ROWS = [_ROWS[i] for i in np.random.default_rng(0).permutation(len(_ROWS))]
_next_row = 0


def probe() -> float:
    """CPU time of a fixed mix of the program's kinds of numpy work.

    CPU time, not wall time: while a timed child process shares the CPU,
    the probe's wall time would count the child's turns too.
    """
    global _next_row
    start = time.thread_time()
    v = _VECTOR
    for _ in range(60):
        v = np.tanh(_MATRIX @ v) + _VECTOR
    (_POINTS[:, :, None] * _POINTS[:, None, :]).sum(axis=0)
    scores = _POOL.copy()
    for _ in range(20):
        scores[int(np.argmin(scores))] = np.inf
    np.array([row.features for row in _ROWS[_next_row:_next_row + GATHER_ROWS]])
    _next_row = (_next_row + GATHER_ROWS) % len(_ROWS)
    return time.thread_time() - start


class SpeedMeter:
    """Probe every ``PROBE_INTERVAL_S`` of wall time from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the probes
    share the CPU, its speed and its caches with the work being timed.
    :meth:`scale` takes their own time back out of a span: the CPU time
    they took from the work, whether it ran in this process or in a child
    on the same CPU.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self.factors = []  # probe time / PROBE_REF_S; 2.0 means half speed

    def _tick(self, signum, frame):
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)
        self.factors.append(duration / PROBE_REF_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def slowdown(self, start, end) -> float:
        """The span's mean slowdown: the harmonic mean of the factors of the
        probes within one interval of it. Each probe stands for one interval
        of wall time, so a span half at full and half at half speed gets
        4/3, the factor that turns its length into the work done."""
        lo = bisect.bisect_left(self.starts, start - PROBE_INTERVAL_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_INTERVAL_S)
        return statistics.harmonic_mean(self.factors[lo:hi] or self.factors[max(lo - 1, 0):lo + 1])

    def work(self, start, end) -> float:
        """Seconds of the span ``[start, end]`` not spent in probes."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scale(self, start, end) -> float:
        """The span's own work in reference seconds."""
        return self.work(start, end) / self.slowdown(start, end)
