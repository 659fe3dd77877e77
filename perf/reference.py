"""A fixed reference loop that measures how fast the machine runs Python.

The benchmark's host shares its cores and caches with other tenants, and
their load slows every process on it by up to 2x, in spells that last
from a fraction of a second to minutes.  A spell can cover a whole run,
so no statistic taken within a run removes it.  The benchmark therefore
times a short pass of this loop, a *probe*, between every two slices of
its timed work, in the same process and on the same CPU, and reports its
host metrics at the machine's reference speed (see ``child.py``).

The loop is the benchmark's own code and does the kind of work the
simulator's event loop does: heap pushes and pops, small objects, dict
updates and float arithmetic.  Its working set is a 65-entry heap and a
1,024-slot dict, and it leaves no garbage behind, so the program's heap
cannot change its timing; the collector is off while it runs in case a
collection of the program's objects falls due.  It must never change,
because :data:`REFERENCE_SECONDS` was measured with this exact code.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Seconds of 60,000 iterations on the reference machine (2 vCPU Intel
#: Xeon, Python 3.11.7) when other tenants leave it alone: about the
#: lower quartile of the loops timed over an hour.  The loop's time is
#: proportional to its iterations (60,000 took 1.01x ten passes of 6,000).
REFERENCE_SECONDS = 0.055
#: Iterations of one probe: ~5.5 ms on the quiet reference machine.
PROBE_ITERATIONS = 6_000
#: How much the simulator slows with the loop: when the loop runs x
#: times slower than on the quiet machine, the simulator runs about
#: x ** SENSITIVITY times slower.  The loop, a tight high-IPC path, loses
#: more to a busy neighbour than the simulator does.  Fitted on the
#: reference machine over ten-seed sets of every workload: the same
#: slice of the same episode, run twice within one run, took
#: probe-ratio ** 0.70-0.76 times as long (log-log correlation 0.82-0.93,
#: ~1,000 slice pairs), and the exponent that left the least spread in a
#: set's throughput was 0.6-0.9.
SENSITIVITY = 0.75


class _Item:
    __slots__ = ("weight", "key")

    def __init__(self, weight: float, key: int):
        self.weight = weight
        self.key = key


def reference_loop(n: int) -> float:
    """Seconds ``n`` iterations of the fixed loop take."""
    heap: list = []
    totals: dict = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        item = _Item(i * 0.5, (i * 7919) % 1_000_003)
        heapq.heappush(heap, (item.key, i, item))
        slot = i & 1023
        totals[slot] = totals.get(slot, 0.0) + item.weight
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].weight
    return time.perf_counter() - t0


def probe() -> float:
    """The simulator's slowdown now, from one probe: the probe's time over
    its time on the quiet reference machine, to the ``SENSITIVITY``."""
    gc.disable()
    try:
        seconds = reference_loop(PROBE_ITERATIONS)
    finally:
        gc.enable()
    quiet = REFERENCE_SECONDS * PROBE_ITERATIONS / 60_000
    return (seconds / quiet) ** SENSITIVITY
