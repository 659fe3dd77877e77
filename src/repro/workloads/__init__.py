"""Application models used in the paper's evaluation.

- :mod:`repro.workloads.cnn` — conv-arithmetic CNN zoo (Fig. 1's per-layer
  FLOP variance; ResNet-50/101 and friends).
- :mod:`repro.workloads.llm` — analytic LLaMa-2 inference cost model,
  calibrated to the paper's measured anchors (Figs. 2, 4, 5).
- :mod:`repro.workloads.moldesign` — the molecular-design active-learning
  campaign (Fig. 3), with a real numpy emulator and a synthetic
  quantum-chemistry surrogate.
- :mod:`repro.workloads.datasets` — synthetic MOSES-like molecule space.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cnn": ["ALEXNET", "CNN_ZOO", "RESNET18", "RESNET34", "RESNET50",
            "RESNET101", "RESNET152", "VGG16", "CnnModel", "ConvLayer",
            "conv_output_size"],
    "llm": ["LLAMA2_7B", "LLAMA2_13B", "LLAMA2_70B", "InferenceRuntime",
            "LlamaInference", "LlamaSpec"],
    "datasets": ["Molecule", "MoleculeSpace"],
    "chemistry": ["simulate_ionization_potential"],
    "mlmodel": ["RidgeEmulator"],
    "moldesign": ["CampaignConfig", "MolecularDesignCampaign"],
    "serving": ["InferenceRequest", "InferenceServer", "OpenLoopClient"],
    "resilience": ["CircuitBreaker", "Replica", "ResilientRouter",
                   "ServedRequest", "SLOPolicy"],
    "fleet": ["AutoscaledServingFleet", "FLEET_MODES", "FleetFunction",
              "FunctionGroup", "ServingFleet"],
    "autoscale": ["FleetAutoscaler", "ScalingDecision"],
    "traces": ["TraceStats", "bursty_trace", "diurnal_trace",
               "iter_bursty_trace", "iter_diurnal_trace", "iter_poisson_trace",
               "iter_poisson_trace_chunks", "poisson_trace",
               "streaming_trace_stats", "to_rate_series", "trace_stats"],
})
