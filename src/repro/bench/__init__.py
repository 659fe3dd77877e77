"""Benchmark harness: one experiment function per paper table/figure.

Each function runs the full stack (FaaS framework over the simulated
GPU) and returns structured results; the ``benchmarks/`` pytest modules
wrap them with pytest-benchmark and print the paper-style tables.

=====================  =============================================
Paper artifact         Harness entry point
=====================  =============================================
Fig. 1                 :func:`repro.bench.app_experiments.fig1_layer_flops`
Fig. 2                 :func:`repro.bench.llm_experiments.fig2_sm_sweep`
Fig. 3                 :func:`repro.bench.app_experiments.fig3_moldesign`
Fig. 4 / Fig. 5        :func:`repro.bench.llm_experiments.run_llm_multiplexing`
Table 1                :func:`repro.bench.overhead_experiments.table1_comparison`
§6 overheads           :func:`repro.bench.overhead_experiments.discussion_overheads`
§7 ablations           :func:`repro.bench.overhead_experiments.weightcache_ablation`,
                       :func:`repro.bench.overhead_experiments.rightsizing_study`
=====================  =============================================
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "harness": ["format_table", "save_results"],
    "llm_experiments": ["MultiplexResult", "fig2_sm_sweep", "fig4_fig5_sweep",
                        "run_llm_multiplexing"],
    "app_experiments": ["fig1_layer_flops", "fig3_moldesign"],
    "extension_experiments": ["trace_serving_study"],
    "overhead_experiments": ["discussion_overheads", "rightsizing_study",
                             "table1_comparison", "weightcache_ablation"],
    "perfjson": ["collect_bench", "write_bench_json"],
    "resilience_experiments": ["blast_radius_experiment",
                               "canonical_fault_plan", "resilience_report",
                               "run_resilient_fleet"],
    "autoscale_experiments": ["autoscale_report", "run_autoscale_fleet"],
    "cluster_experiments": ["cluster_report", "run_contest"],
})
