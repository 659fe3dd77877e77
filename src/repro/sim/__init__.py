"""Discrete-event simulation engine.

A small, deterministic, SimPy-flavoured kernel used by every other
subsystem in :mod:`repro`.  Processes are plain generator functions that
``yield`` :class:`~repro.sim.core.Event` objects; the
:class:`~repro.sim.core.Environment` advances a virtual clock and resumes
processes when the events they wait on fire.

The one piece that goes beyond a classic DES kernel is
:class:`~repro.sim.fluid.FluidPool`: a rate-based ("fluid") task pool in
which concurrently-resident tasks progress at allocation-dependent rates.
The GPU simulator uses it to model proportional memory-bandwidth sharing
between co-resident kernels — the mechanism behind the paper's MPS-vs-MIG
results.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "core": ["AllOf", "AnyOf", "Environment", "Event", "SimulationError",
             "Timeout", "WakeupSlot"],
    "process": ["Interrupt", "Process"],
    "resources": ["Resource", "Store"],
    "fluid": ["FluidPool", "FluidTask"],
    "rng": ["RngRegistry", "substream_seed"],
})
