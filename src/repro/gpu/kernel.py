"""GPU kernels as roofline work items.

A :class:`Kernel` abstracts one device-side launch: how many floating-point
operations it performs, how many DRAM bytes it moves, and how many SMs it
can actually keep busy (``max_sms`` — small batch-1 inference kernels
cannot fill an A100, which is the entire premise of the paper's Fig. 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Kernel", "KernelGroup"]

_kernel_ids = itertools.count()


@dataclass(frozen=True)
class Kernel:
    """One GPU kernel launch, in roofline terms.

    Kernels are immutable values: the device's allocator caches a
    kernel's derived constants by its ``kid``.

    Parameters
    ----------
    flops:
        Floating point operations performed.
    bytes_moved:
        DRAM traffic in bytes (reads + writes).
    max_sms:
        Largest SM count the kernel's grid can exploit.  Duration stops
        improving once the allocated SMs exceed this (Fig. 2's plateau).
    efficiency:
        Fraction of per-SM peak FLOP/s the kernel sustains (default 0.5 —
        dense GEMMs do better, memory-irregular kernels worse).
    name:
        Label for traces.
    """

    flops: float
    bytes_moved: float
    max_sms: int
    efficiency: float = 0.5
    name: str = "kernel"
    kid: int = field(default_factory=lambda: next(_kernel_ids))

    def __post_init__(self) -> None:
        # Written so that NaN fails each test: a NaN or infinite amount
        # of work would never drain from the fluid pool.
        if not (0 <= self.flops < math.inf
                and 0 <= self.bytes_moved < math.inf):
            raise ValueError(
                "flops and bytes_moved must be finite and non-negative")
        if self.flops == 0 and self.bytes_moved == 0:
            raise ValueError("kernel must do some work")
        if not 0 < self.max_sms < math.inf:
            raise ValueError("max_sms must be positive and finite")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per DRAM byte; classifies compute- vs memory-bound."""
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved

    def duration(self, sms: int, flops_per_sm: float, bandwidth: float) -> float:
        """Ideal isolated runtime on ``sms`` SMs with ``bandwidth`` B/s.

        The roofline maximum of the compute time and the memory time; the
        fluid engine reproduces exactly this when the kernel runs alone.
        """
        if sms <= 0:
            raise ValueError("sms must be positive")
        usable = min(sms, self.max_sms)
        t_compute = self.flops / (flops_per_sm * self.efficiency * usable)
        t_memory = self.bytes_moved / bandwidth if bandwidth > 0 else float("inf")
        return max(t_compute, t_memory)

    def scaled(self, factor: float) -> "Kernel":
        """A copy with flops and bytes scaled by ``factor`` (batching)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return Kernel(
            flops=self.flops * factor,
            bytes_moved=self.bytes_moved * factor,
            max_sms=self.max_sms,
            efficiency=self.efficiency,
            name=self.name,
        )


@dataclass
class KernelGroup:
    """An ordered sequence of kernels launched back-to-back on one stream.

    Workload models emit groups (e.g. "one decode step") rather than
    thousands of individual layer kernels, keeping event counts tractable.
    A group can be *fused* into a single aggregate kernel for coarse
    simulations, which preserves total work but not per-kernel boundaries.
    """

    kernels: list[Kernel]
    name: str = "group"

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("a KernelGroup needs at least one kernel")

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    @property
    def total_flops(self) -> float:
        return sum(k.flops for k in self.kernels)

    @property
    def total_bytes(self) -> float:
        return sum(k.bytes_moved for k in self.kernels)

    def fused(self) -> Kernel:
        """Collapse into one kernel with work-weighted properties.

        ``max_sms`` and ``efficiency`` are averaged weighted by each
        kernel's FLOPs so the fused kernel's isolated duration approximates
        the sum of the members' durations.
        """
        flops = self.total_flops
        weights = [k.flops if flops > 0 else 1.0 for k in self.kernels]
        wsum = sum(weights)
        max_sms = max(
            1, round(sum(w * k.max_sms for w, k in zip(weights, self.kernels)) / wsum)
        )
        eff = sum(w * k.efficiency for w, k in zip(weights, self.kernels)) / wsum
        return Kernel(
            flops=flops,
            bytes_moved=self.total_bytes,
            max_sms=max_sms,
            efficiency=eff,
            name=f"fused({self.name})",
        )

    @classmethod
    def concat(cls, groups: Iterable["KernelGroup"], name: str = "concat"
               ) -> "KernelGroup":
        kernels: list[Kernel] = []
        for g in groups:
            kernels.extend(g.kernels)
        return cls(kernels=kernels, name=name)
