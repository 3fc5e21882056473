"""Reference kernel that gauges the machine's speed at a moment.

On a shared host the same pass can run up to twice as slow for
stretches of seconds, whatever the program does. The worker times this
fixed kernel every few milliseconds while it imports qpendulum and
while it runs a pass; a time divided by the kernel's local time is
steady under that drift. The kernel is plain interpreter work, needs
only the standard library and never touches qpendulum, so it can run
before the import that ``setup_s`` measures.
"""

import signal
import time
from bisect import bisect_left, bisect_right


def _kernel() -> int:
    total, table = 0, {}
    for i in range(1500):
        table[i & 63] = total
        total += (i * 7) % 13 + len(table)
    return total


def probe() -> float:
    """Median time of three kernel runs, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


PROBE_EVERY_S = 0.025  # wall time between two speed probes


class Gauge:
    """Times the kernel every PROBE_EVERY_S of wall time inside a ``with``.

    A SIGALRM handler runs the probe between bytecodes of whatever op is
    running, so long ops are probed throughout, not only at their ends.
    The handler's own time is later taken out of the op it interrupted.
    """

    def __init__(self):
        self.at, self.took, self.cost = [], [], []

    def tick(self, *_):
        start = time.perf_counter()
        took = probe()
        self.at.append(start)
        self.took.append(took)
        self.cost.append(time.perf_counter() - start)

    def __enter__(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def rescale(self, spans):
        """Per op: latency without probe time, and the mean probe time
        within PROBE_EVERY_S of the op."""
        latencies, local = [], []
        for start, end in spans:
            i0, i1 = bisect_left(self.at, start), bisect_left(self.at, end)
            j0 = bisect_left(self.at, start - PROBE_EVERY_S)
            j1 = bisect_right(self.at, end + PROBE_EVERY_S)
            near = self.took[j0:j1] or [self.took[min(i0, len(self.at) - 1)]]
            latencies.append(end - start - sum(self.cost[i0:i1]))
            local.append(sum(near) / len(near))
        return latencies, local
