"""A miniature Kubernetes-style orchestrator over the simulated nodes.

Why it exists: the paper's introduction motivates the Parsl extension by
observing that "many FaaS platforms (e.g., KNative, Parsl) can run on the
container orchestration service Kubernetes which only has *limited GPU
sharing support*".  This package makes that claim measurable: a pod
scheduler plus the three real GPU exposure mechanisms Kubernetes offers —

- :class:`~repro.k8s.deviceplugin.WholeGpuPlugin` — the stock NVIDIA
  device plugin: one pod per GPU, exclusive (the limitation);
- :class:`~repro.k8s.deviceplugin.TimeSlicingPlugin` — the device
  plugin's time-slicing config: N pods share a GPU temporally, no
  isolation and no partitioning;
- :class:`~repro.k8s.deviceplugin.MigDevicePlugin` — MIG instances
  exposed as extended resources (``nvidia.com/mig-1g.5gb`` etc.).

``benchmarks/test_extension_k8s.py`` runs the same inference pods under
each plugin and against the paper's MPS-partitioned FaaS executor.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "resources": ["ResourceSpec"],
    "pod": ["Pod", "PodPhase"],
    "deviceplugin": ["MigDevicePlugin", "TimeSlicingPlugin", "WholeGpuPlugin"],
    "cluster": ["Cluster", "K8sNode"],
})
