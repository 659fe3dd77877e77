"""Cluster-scale placement engine (ROADMAP item 1, ParvaGPU/MISO
direction).

Everything below :mod:`repro.workloads` optimises partitions *on*
devices a fleet already owns.  This package decides *which* devices and
*which* slice geometry across a large heterogeneous cluster:

- :mod:`repro.cluster.model` — demands, GPU segments, devices, and
  placements with hard over-commitment invariants;
- :mod:`repro.cluster.oracle` — the MISO-style sizing oracle mapping
  (SLO, rate) to candidate slice geometries per GPU model, built on the
  repaired :func:`~repro.partition.autoscaler.required_sms_for` (now
  with an explicit ``feasible`` flag) and
  :class:`~repro.partition.rightsizing.RightSizer`;
- :mod:`repro.cluster.packing` — ParvaGPU-style packers: greedy
  first-fit-decreasing baseline and the tail-right-sizing + segment-
  repacking optimiser that merges fragmented slices to free whole GPUs;
- :mod:`repro.cluster.feedback` — the fleet-to-cluster adapter turning
  :class:`~repro.workloads.autoscale.FleetAutoscaler`-grade windowed
  telemetry into drift-triggered replans, closing the loop device →
  fleet → cluster.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "model": ["ClusterGpu", "ClusterPlacement", "FunctionDemand", "GpuSegment",
              "LatencyCurve", "build_fleet"],
    "oracle": ["FunctionPlan", "SizingOracle", "SliceCandidate"],
    "packing": ["greedy_pack", "optimize_pack"],
    "feedback": ["ClusterFeedback", "placement_diff"],
})
