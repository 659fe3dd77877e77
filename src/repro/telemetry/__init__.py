"""Telemetry: task timelines (Fig. 3) and metric aggregation."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "timeline": ["Span", "Timeline", "render_ascii_gantt",
                 "timeline_from_tasks"],
    "metrics": ["LatencyStats", "ThroughputMeter", "summarize"],
    "export": ["series_to_csv", "stats_to_dict", "timeline_to_csv",
               "timeline_to_jsonl"],
    "cost": ["CostReport", "GpuCostModel", "cost_report"],
    "graph": ["critical_path", "parallelism_profile", "task_graph"],
    "resilience": ["ResilienceStats"],
    "streaming": ["P2Quantile", "ReservoirSample", "StreamingLatencyStats",
                  "WindowedRates", "merge_event_streams",
                  "replay_latency_stats"],
})
