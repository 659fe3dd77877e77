"""Merge-by-replay invariants for the streaming accumulators.

The sharded engine never merges accumulator *state* — P² markers and
Kahan compensation are order-sensitive, so no O(1) state merge is
bit-exact.  Instead it merges the per-cell event
streams into one canonical order and replays them through fresh
accumulators.  These properties pin the two facts that design rests on:

- the canonical merge is invariant in how the events were sharded —
  any assignment of events to cells, any epoch fragmentation of each
  cell's stream, any presentation order of the fragments;
- replaying the merged stream through an accumulator is bit-identical
  to feeding that accumulator the canonical sequence directly, for
  every streaming accumulator in the telemetry layer (P² quantiles,
  Kahan mean).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.streaming import (
    P2Quantile,
    StreamingLatencyStats,
    merge_event_streams,
    replay_latency_stats,
)

finite_time = st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)
finite_latency = st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False)


@st.composite
def sharded_streams(draw):
    """Events assigned to cells, each cell's stream time-ordered.

    Returns ``(cells, fragments)`` where ``cells`` is the per-cell
    stream dict and ``fragments`` is an epoch-fragmented, interleaved
    presentation of the same streams (fragment order within a cell
    preserved — exactly what successive barrier drains produce).
    """
    n_cells = draw(st.integers(min_value=1, max_value=5))
    events = draw(st.lists(st.tuples(finite_time, finite_latency),
                           max_size=50))
    cells: dict[int, list] = {i: [] for i in range(n_cells)}
    for ev in events:
        cells[draw(st.integers(0, n_cells - 1))].append(ev)
    for stream in cells.values():
        stream.sort(key=lambda e: e[0])

    # Fragment each cell's stream at drawn cut points (epoch drains),
    # then interleave the fragments across cells without reordering any
    # one cell's fragments.
    queues = {}
    for cid, stream in cells.items():
        cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                    max_size=3)))
        frags, lo = [], 0
        for hi in cuts + [len(stream)]:
            frags.append(stream[lo:hi])
            lo = hi
        queues[cid] = frags
    fragments = []
    while any(queues.values()):
        ready = sorted(cid for cid, q in queues.items() if q)
        cid = ready[draw(st.integers(0, len(ready) - 1))]
        fragments.append((cid, queues[cid].pop(0)))
    return cells, fragments


@given(sharded_streams())
@settings(max_examples=60, deadline=None)
def test_merge_invariant_under_fragmentation_and_order(streams):
    cells, fragments = streams
    canonical = merge_event_streams(sorted(cells.items()))
    assert merge_event_streams(fragments) == canonical


@given(sharded_streams())
@settings(max_examples=60, deadline=None)
def test_replay_equals_single_stream_latency_stats(streams):
    cells, fragments = streams
    merged = merge_event_streams(fragments)
    single = StreamingLatencyStats()
    for _t, latency in merge_event_streams(sorted(cells.items())):
        single.add(latency)
    replayed = replay_latency_stats(merged)
    assert replayed.count == single.count
    if single.count:
        assert replayed.stats() == single.stats()


@given(sharded_streams())
@settings(max_examples=60, deadline=None)
def test_replay_is_bit_identical_for_every_accumulator(streams):
    """P² and Kahan state both match exactly when
    fed the merged stream of *any* sharding vs the canonical sequence."""
    cells, fragments = streams
    canonical = merge_event_streams(sorted(cells.items()))
    merged = merge_event_streams(fragments)

    def feed(events):
        p2 = P2Quantile(0.9)
        stats = StreamingLatencyStats()
        for _t, latency in events:
            p2.add(latency)
            stats.add(latency)
        return (p2.count, p2.value if p2.count else None,
                stats.stats() if stats.count else None)

    assert feed(merged) == feed(canonical)


@given(st.lists(finite_latency, max_size=80))
@settings(max_examples=80, deadline=None)
def test_add_many_is_bit_identical_to_repeated_add(latencies):
    """The vectorised bulk path the replay uses == the scalar path."""
    one = StreamingLatencyStats()
    for x in latencies:
        one.add(x)
    bulk = StreamingLatencyStats()
    bulk.add_many(latencies)
    assert bulk.count == one.count
    if one.count:
        assert bulk.stats() == one.stats()


def test_cross_cell_ties_order_by_cell_id():
    """Events at the same timestamp merge in cell-id order, whatever
    order the cells were presented in."""
    streams = [(2, [(5.0, 2.0)]), (0, [(5.0, 0.0)]), (1, [(5.0, 1.0)])]
    merged = merge_event_streams(streams)
    assert [ev[1] for ev in merged] == [0.0, 1.0, 2.0]


def test_merge_of_nothing_is_empty():
    assert merge_event_streams([]) == []
    assert merge_event_streams([(0, []), (1, [])]) == []
    assert replay_latency_stats([]).count == 0
