"""Simulated-GPU substrate.

The paper's testbed is two NVIDIA A100s partitioned with CUDA MPS and MIG.
This package replaces that hardware with a calibrated fluid discrete-event
model (see DESIGN.md §5):

- :mod:`repro.gpu.specs` — device catalog (A100/H100/V100/MI210) and MIG
  profile tables.
- :mod:`repro.gpu.kernel` — kernels as (flops, bytes, max-SMs) work items.
- :mod:`repro.gpu.device` — the roofline fluid engine: SM allocation plus
  water-filled memory-bandwidth sharing.
- :mod:`repro.gpu.memory` — HBM allocator with OOM semantics.
- :mod:`repro.gpu.timeshare` / :mod:`~repro.gpu.mps` / :mod:`~repro.gpu.mig`
  / :mod:`~repro.gpu.vgpu` — the multiplexing techniques of Table 1.
- :mod:`repro.gpu.monitor` — an ``nvidia-smi``-style utilization sampler.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "specs": ["A100_40GB", "A100_80GB", "H100_80GB", "MI210", "V100_32GB",
              "GPUSpec", "MIGProfile", "get_spec"],
    "kernel": ["Kernel", "KernelGroup"],
    "memory": ["GpuOutOfMemory", "MemoryPool"],
    "device": ["GpuClient", "ShareGroup", "SimulatedGPU"],
    "faults": ["FaultDomain", "GpuEccError", "GpuLaunchError", "domain_of",
               "fault_domains", "kill_domain"],
    "modes": ["MultiplexMode", "mode_capabilities"],
    "mps": ["MpsControlDaemon"],
    "mig": ["MigInstance", "MigManager"],
    "vgpu": ["VgpuManager", "VirtualMachine"],
    "monitor": ["GpuMonitor"],
    "transfer": ["TransferEngine"],
    "cumask": ["CuMaskManager"],
    "streams": ["CudaEvent", "CudaStream"],
})
