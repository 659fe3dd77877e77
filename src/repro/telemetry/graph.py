"""Workflow-graph analysis: task DAGs and critical paths.

Every DataFlowKernel records the dependency edges between tasks; these
helpers turn a finished run into a :mod:`networkx` DAG and answer the
question campaign tuning always starts with: *what is the critical
path?*  For the molecular-design workload the answer is the
simulate→train→infer→simulate spine, which is why the GPU idles (Fig. 3)
— speeding up training off the critical path buys nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["task_graph", "critical_path", "parallelism_profile"]


def _networkx():
    """networkx, imported on first use: only graph analysis needs it."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "repro.telemetry.graph needs networkx (install the [test] "
            "extra); only task-graph analysis uses it") from exc
    return networkx


def task_graph(dfk) -> nx.DiGraph:
    """The run's task DAG: nodes are task tids, edges are dependencies.

    Node attributes: ``app`` (app name), ``state``, ``run_seconds``
    (0.0 while unfinished), ``start``/``end`` timestamps.
    """
    graph = _networkx().DiGraph()
    for record in dfk.tasks:
        graph.add_node(
            record.tid,
            app=record.app_name,
            state=record.state.value,
            run_seconds=record.run_seconds or 0.0,
            start=record.start_time,
            end=record.end_time,
        )
    for record in dfk.tasks:
        for dep in record.dependencies:
            if graph.has_node(dep):
                graph.add_edge(dep, record.tid)
    return graph


def critical_path(dfk) -> tuple[list[int], float]:
    """The dependency chain with the largest total runtime.

    Returns ``(tids, seconds)``.  Uses each task's measured
    ``run_seconds`` as the node weight; queueing time is excluded on
    purpose — the critical path answers "what would still bound the
    makespan with infinite workers".
    """
    nx = _networkx()
    graph = task_graph(dfk)
    if graph.number_of_nodes() == 0:
        return [], 0.0
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("task graph has a cycle (corrupted records)")
    best_len: dict[int, float] = {}
    best_pred: dict[int, int | None] = {}
    for node in nx.topological_sort(graph):
        weight = graph.nodes[node]["run_seconds"]
        preds = list(graph.predecessors(node))
        if preds:
            pred = max(preds, key=lambda p: best_len[p])
            best_len[node] = best_len[pred] + weight
            best_pred[node] = pred
        else:
            best_len[node] = weight
            best_pred[node] = None
    tail = max(best_len, key=best_len.get)
    path: list[int] = []
    cursor: int | None = tail
    while cursor is not None:
        path.append(cursor)
        cursor = best_pred[cursor]
    path.reverse()
    return path, best_len[tail]


def parallelism_profile(dfk, resolution: float = 1.0) -> list[tuple[float, int]]:
    """How many tasks ran concurrently over time: ``[(t, count), ...]``.

    The area under this curve over the makespan is the run's mean
    parallelism — the quantity extra workers (or GPU partitions) raise.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    events: list[tuple[float, int]] = []
    for record in dfk.tasks:
        if record.start_time is None or record.end_time is None:
            continue
        events.append((record.start_time, +1))
        events.append((record.end_time, -1))
    if not events:
        return []
    events.sort()
    t0 = events[0][0]
    t1 = max(t for t, _ in events)
    profile: list[tuple[float, int]] = []
    index = 0
    active = 0
    t = t0
    while t <= t1 + 1e-12:
        while index < len(events) and events[index][0] <= t + 1e-12:
            active += events[index][1]
            index += 1
        profile.append((t, active))
        t += resolution
    return profile
