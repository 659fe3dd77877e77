"""Parsl-workalike FaaS framework over the simulated substrate.

Mirrors the Parsl surface the paper works with (§2.2, Listings 1-3):

- :func:`~repro.faas.apps.python_app` / :func:`~repro.faas.apps.gpu_app`
  decorators turn functions into *apps* whose invocation returns an
  :class:`~repro.faas.futures.AppFuture`;
- the :class:`~repro.faas.dataflow.DataFlowKernel` resolves future-valued
  arguments, retries failures, and dispatches to executors;
- :class:`~repro.faas.executors.HighThroughputExecutor` implements the
  pilot-job worker pool — extended, as the paper's contribution, with
  ``available_accelerators`` entries that may repeat GPUs or name MIG
  UUIDs, and a ``gpu_percentage`` list enforced through the simulated
  ``CUDA_MPS_ACTIVE_THREAD_PERCENTAGE``;
- providers (:class:`~repro.faas.providers.LocalProvider`,
  :class:`~repro.faas.providers.SlurmProvider`) stand up simulated compute
  nodes;
- :mod:`repro.faas.coldstart` decomposes §6's startup overhead (function
  init, GPU context init, application/model loading).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "futures": ["AppFuture", "TaskRecord", "TaskState"],
    "apps": ["AppBase", "bash_app", "gpu_app", "join_app", "python_app"],
    "config": ["Config"],
    "coldstart": ["ColdStartModel"],
    "dataflow": ["DataFlowKernel", "clear", "current_dfk", "load"],
    "environment": ["FunctionEnvironment"],
    "providers": ["ComputeNode", "LocalProvider", "SlurmProvider",
                  "StaticProvider"],
    "executors": ["ExecutorBase", "HighThroughputExecutor",
                  "ThreadPoolExecutor"],
    "monitoring": ["MonitoringHub", "TaskTransition"],
    "failures": ["FailureInjector", "GpuEccError", "GpuLaunchError",
                 "WorkerCrash", "inject_gpu_error"],
    "chaos": ["ChaosController", "FaultEvent", "FaultPlan"],
    "globus": ["Endpoint", "GlobusComputeClient", "GlobusComputeService"],
    "routing": ["GpuTaskRouter", "LeastLoadedRouter", "ModelAffinityRouter",
                "RoundRobinRouter"],
})
