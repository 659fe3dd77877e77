"""GPU partitioning toolkit.

The operational half of the paper's contribution plus its §7 future-work
directions:

- :mod:`repro.partition.policy` — how to split a GPU among k functions
  (equal MPS percentages; the paper's MIG ladder 2→3g, 3→2g, 4→1g).
- :mod:`repro.partition.manager` — applies a policy to a compute node and
  emits the matching ``HighThroughputExecutor`` configuration (the
  Listing 2/3 glue).
- :mod:`repro.partition.reconfig` — what repartitioning costs: MPS needs
  a client process restart (reload the model, 10-20 s for LLMs); MIG
  needs a GPU reset and disturbs every co-tenant (§6).
- :mod:`repro.partition.weightcache` — GPU-resident weight sharing so a
  restarted function skips the model reload (§7 "Re-configuring GPU
  resources Faster").
- :mod:`repro.partition.rightsizing` — find the smallest partition whose
  latency is within tolerance of the full GPU (§7 "Understanding GPU
  resource requirement").
- :mod:`repro.partition.predictor` — approximate runtime from GPU
  resources via static kernel analysis or profile fitting (§7).
- :mod:`repro.partition.autoscaler` — demand-to-SM sizing, MPS share
  apportionment and cooldown gating for the demand-driven controller
  (§7 "change GPU resources depending on demand").
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "policy": ["DemandBasedPolicy", "EqualSharePolicy", "StaticPolicy",
               "mig_profiles_for"],
    "manager": ["GpuPartitionManager"],
    "autoscaler": ["SizingResult", "cooldown_elapsed", "required_sms_for",
                   "scaled_percentages"],
    "reconfig": ["ReconfigCost", "ReconfigurationPlanner"],
    "weightcache": ["WeightCache"],
    "rightsizing": ["PartitionRecommendation", "PlacementNeed", "RightSizer"],
    "predictor": ["RuntimePredictor", "StaticAnalyzer"],
    "profiler": ["PartitionProfiler", "ProfileReport"],
    "layout": ["MigLayoutPlan", "WorkloadRequirement", "plan_mig_layout"],
})
