"""Constant-memory latency/rate accumulators for million-request runs.

The classic harness keeps every latency in a list and calls
:func:`repro.telemetry.metrics.summarize` at the end — O(n) memory and a
large GC population of floats.  At the million-request scale targeted by
``repro bench --scale`` that retention dominates RSS, so this module
provides one-pass accumulators with O(1) state:

- :class:`P2Quantile` — the P² (piecewise-parabolic) single-quantile
  estimator of Jain & Chlamtac (1985): five markers, no samples stored.
- :class:`StreamingLatencyStats` — drop-in producer of the same
  :class:`~repro.telemetry.metrics.LatencyStats` record the batch
  ``summarize`` returns, with p50/p95/p99 estimated by P².
- :class:`WindowedRateSensor` — arrival rates from monotone offered
  counters, over the true window between observations (the control
  tiers' demand sensor).

P² estimates are approximate (typically within a percent or two of the
exact sample quantile for unimodal data); ``count``/``mean``/``min``/
``max`` are exact (the mean is compensated — see
:mod:`repro.sim.numerics`).

:class:`StreamingLatencyStats` also has an ``add_many`` batch path
that is bit-identical to the equivalent sequence of ``add`` calls:
order-free reductions are vectorised, while the sequential recurrences
(Kahan compensation, P2 markers) run as tight loops over locals.  The
property suite pins the batch path against its scalar twin.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.sim.numerics import KahanSum
from repro.telemetry.metrics import LatencyStats

__all__ = [
    "P2Quantile",
    "StreamingLatencyStats",
    "WindowedRateSensor",
    "merge_event_streams",
    "replay_latency_stats",
]


class P2Quantile:
    """Streaming estimate of the ``p``-quantile via the P² algorithm.

    Keeps five markers whose heights track the min, the p/2-, p- and
    (1+p)/2-quantiles, and the max; marker heights move by parabolic
    (falling back to linear) interpolation as observations arrive.  The
    first five observations are stored exactly, so small samples return
    the same linearly-interpolated quantile ``numpy.percentile`` does.
    """

    __slots__ = ("p", "count", "_q", "_n")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p!r}")
        self.p = p
        self.count = 0
        self._q: list[float] = []       # marker heights (first 5: raw obs)
        self._n = [0, 1, 2, 3, 4]       # marker positions (0-based)

    def add(self, x: float) -> None:
        q = self._q
        self.count += 1
        if self.count <= 5:
            q.append(x)
            if self.count == 5:
                q.sort()
            return
        # Locate the cell k with q[k] <= x < q[k+1], extending extremes.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        elif x < q[1]:
            k = 0
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        else:
            k = 3
        n = self._n
        for i in range(k + 1, 5):
            n[i] += 1
        # Desired positions for the three interior markers.
        last = self.count - 1
        p = self.p
        desired = (last * p / 2.0, last * p, last * (1.0 + p) / 2.0)
        for i in (1, 2, 3):
            d = desired[i - 1] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or \
               (d <= -1.0 and n[i - 1] - n[i] < -1):
                step = 1 if d >= 0 else -1
                qp = self._parabolic(i, step)
                if q[i - 1] < qp < q[i + 1]:
                    q[i] = qp
                else:
                    q[i] = q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])
                n[i] += step
        return

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    @property
    def value(self) -> float:
        """Current quantile estimate (exact for fewer than 6 samples)."""
        if self.count == 0:
            raise ValueError("no observations yet")
        if self.count <= 5:
            s = sorted(self._q)
            h = (len(s) - 1) * self.p    # numpy's 'linear' interpolation
            lo = math.floor(h)
            hi = min(lo + 1, len(s) - 1)
            return s[lo] + (h - lo) * (s[hi] - s[lo])
        return self._q[2]


class StreamingLatencyStats:
    """One-pass replacement for ``summarize(list_of_latencies)``.

    ``count``/``mean``/``minimum``/``maximum`` are exact;
    p50/p95/p99 are P² estimates.  Call :meth:`stats` at the end of a
    run for the same :class:`LatencyStats` record the batch path yields.
    """

    __slots__ = ("count", "_sum", "minimum", "maximum", "_p50", "_p95", "_p99")

    def __init__(self) -> None:
        self.count = 0
        self._sum = KahanSum()
        self.minimum = math.inf
        self.maximum = -math.inf
        self._p50 = P2Quantile(0.50)
        self._p95 = P2Quantile(0.95)
        self._p99 = P2Quantile(0.99)

    def add(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latencies must be non-negative")
        self.count += 1
        self._sum.add(latency)
        if latency < self.minimum:
            self.minimum = latency
        if latency > self.maximum:
            self.maximum = latency
        self._p50.add(latency)
        self._p95.add(latency)
        self._p99.add(latency)

    def add_many(self, latencies) -> None:
        """Ingest a batch of latencies, bit-identical to repeated :meth:`add`.

        The batch is staged through one numpy array: the negativity
        check, ``count``, and ``min``/``max`` are vectorised (order-free
        reductions, so exactly equal to the sequential comparisons),
        while the Kahan sum and the three P² estimators — inherently
        sequential recurrences — consume the array in a tight local
        loop.  This is the merge path's ingestion primitive: replaying a
        canonically-ordered shard stream through ``add_many`` yields the
        same accumulator state as the single-process run's per-event
        ``add`` calls.
        """
        arr = np.asarray(latencies, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            return
        if arr.min() < 0:
            raise ValueError("latencies must be non-negative")
        self.count += arr.size
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.minimum:
            self.minimum = lo
        if hi > self.maximum:
            self.maximum = hi
        sum_add = self._sum.add
        p50_add = self._p50.add
        p95_add = self._p95.add
        p99_add = self._p99.add
        for x in arr.tolist():
            sum_add(x)
            p50_add(x)
            p95_add(x)
            p99_add(x)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no observations yet")
        return self._sum.value / self.count

    def stats(self) -> LatencyStats:
        if self.count == 0:
            raise ValueError("cannot summarize an empty sample")
        return LatencyStats(
            count=self.count,
            mean=self.mean,
            p50=self._p50.value,
            p95=self._p95.value,
            p99=self._p99.value,
            minimum=self.minimum,
            maximum=self.maximum,
        )


class WindowedRateSensor:
    """Monotone counters in, windowed arrival rates out, one mark per name.

    Each :meth:`observe` divides the counter's delta by the true time
    since the previous observation of that name, so an irregular
    cadence (a control tick delayed by the previous tick's actuation)
    still reads the right rate.  The first observation primes.
    """

    def __init__(self) -> None:
        #: name -> (counter, as_of) of the latest observation.
        self.marks: dict[str, tuple[float, float]] = {}

    def observe(self, name: str, count: float,
                as_of: float) -> Optional[float]:
        """Rate over the window since the last observation, or ``None``
        while priming / on a stalled clock or rewound counter (the mark
        still advances, so the next window starts here)."""
        last = self.marks.get(name)
        self.marks[name] = (count, as_of)
        if last is None:
            return None
        last_count, last_time = last
        window = as_of - last_time
        if window <= 0 or count < last_count:
            return None  # stalled clock or restarted counter: re-prime
        return (count - last_count) / window


# ------------------------------------------------------- deterministic merge

def merge_event_streams(
        streams: Sequence[tuple[int, Sequence[tuple]]]) -> list[tuple]:
    """Merge per-cell event streams into the canonical global order.

    ``streams`` is a sequence of ``(cell_id, events)`` pairs, where each
    event is a tuple whose first element is its timestamp and each
    per-cell list is already time-ordered (true for anything recorded
    from a single simulation environment).  The result is every event,
    ordered by the **canonical key** ``(time, cell_id, within-cell
    sequence)`` via one numpy lexsort.

    Because the key is global — it mentions nothing about shards,
    workers, or arrival order of the ``streams`` argument — the merge is
    invariant in:

    - the order the per-cell streams are presented (any shard may
      report first);
    - how cells were grouped onto shards (1 worker or 7);
    - where epoch barriers fell (splitting one cell's stream into
      epoch fragments and concatenating them is the identity).

    Cross-cell timestamp ties are broken by ``cell_id`` — deterministic,
    though not necessarily the interleaving a single shared event loop
    would have produced; the sharded engine's differential tests pin
    this down on the real scenarios.
    """
    per_cell = sorted(streams, key=lambda s: s[0])
    events: list[tuple] = []
    times: list[float] = []
    cells: list[int] = []
    for cell_id, cell_events in per_cell:
        for ev in cell_events:
            events.append(ev)
            times.append(ev[0])
            cells.append(cell_id)
    if not events:
        return []
    order = np.lexsort((np.arange(len(events)),
                        np.asarray(cells, dtype=np.int64),
                        np.asarray(times, dtype=np.float64)))
    return [events[i] for i in order]


def replay_latency_stats(merged_events: Sequence[tuple],
                         value_index: int = 1) -> StreamingLatencyStats:
    """Feed a merged event stream into a fresh accumulator.

    Order-sensitive accumulators (P² markers, Kahan compensation,
    reservoir coin flips) admit no bit-exact O(1) state merge, so the
    sharded engine merges by **replay**: sort the buffered per-cell
    events canonically (:func:`merge_event_streams`), then push the
    ``value_index``-th field of each through one accumulator.  For a
    single cell the canonical order *is* the original completion order,
    which makes the one-cell sharded run's statistics bit-identical to
    the unsharded engine's.
    """
    stats = StreamingLatencyStats()
    if merged_events:
        stats.add_many([ev[value_index] for ev in merged_events])
    return stats
