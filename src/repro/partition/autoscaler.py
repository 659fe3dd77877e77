"""Demand-to-partition sizing and reconfiguration gating (§7).

The paper's future-work motivation: "This challenge becomes crucial as we
multiplex the applications and aim to change GPU resources depending on
demand."  These pure helpers hold the arithmetic of that loop, shared by
the fleet controller
(:class:`~repro.workloads.autoscale.FleetAutoscaler`) and the cluster
tier (:mod:`repro.cluster.model`, :mod:`repro.cluster.oracle`):

- :func:`required_sms_for` converts a function's request rate into the
  smallest SM count that holds its latency SLO *and* keeps it stable
  (utilisation below a safety ceiling), with an explicit
  :class:`SizingResult` feasibility verdict;
- :func:`scaled_percentages` apportions per-replica SM requirements onto
  one GPU as integer MPS percentages whose replica-weighted sum never
  exceeds 100;
- :func:`cooldown_elapsed` gates a reconfiguration on a cooldown that a
  hard SLO violation shrinks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.gpu.specs import GPUSpec

__all__ = ["SizingResult", "cooldown_elapsed", "required_sms_for",
           "scaled_percentages"]


class SizingResult(int):
    """An SM count that also carries an explicit feasibility verdict.

    Subclasses :class:`int` so every existing arithmetic consumer of
    :func:`required_sms_for` keeps working unchanged, while callers that
    must not over-provision infeasible functions (the cluster packer)
    can reject on ``.feasible`` instead of silently receiving the
    whole-GPU best effort.
    """

    feasible: bool

    def __new__(cls, sms: int, feasible: bool = True) -> "SizingResult":
        self = super().__new__(cls, sms)
        self.feasible = bool(feasible)
        return self

    def __repr__(self) -> str:
        return f"SizingResult({int(self)}, feasible={self.feasible})"


def required_sms_for(spec: GPUSpec, latency_fn: Callable[[int], float],
                     slo_seconds: float, demand_rps: float,
                     utilization_ceiling: float = 0.8) -> SizingResult:
    """Smallest SM count meeting the SLO and the stability ceiling.

    Stability: at ``demand_rps`` each server must spend less than
    ``utilization_ceiling`` of its time serving, i.e.
    ``demand_rps * latency(sms) <= utilization_ceiling``.

    Latency curves here are non-increasing in SMs (more compute never
    slows a request down — the same law :class:`RuntimePredictor` fits),
    which makes the acceptance predicate monotone, so the smallest
    feasible size is found by bisection in O(log sms) evaluations
    instead of the previous full linear scan.  Monotonicity is verified
    on the points actually evaluated; if the curve wobbles, the exact
    linear scan runs as a fallback.  When even the whole GPU cannot
    meet the SLO the result is ``spec.sms`` with ``feasible=False`` —
    best effort for the reactive controllers, an explicit rejection
    signal for the cluster packer.
    """
    if demand_rps == 0:
        return SizingResult(1)  # keep the model warm on a sliver

    def acceptable(latency: float) -> bool:
        return latency <= slo_seconds and \
            demand_rps * latency <= utilization_ceiling

    evaluated: dict[int, float] = {}

    def latency_at(sms: int) -> float:
        if sms not in evaluated:
            evaluated[sms] = latency_fn(sms)
        return evaluated[sms]

    def linear_scan() -> SizingResult:
        for sms in range(1, spec.sms + 1):
            if acceptable(latency_at(sms)):
                return SizingResult(sms)
        return SizingResult(spec.sms, feasible=False)

    if not acceptable(latency_at(spec.sms)):
        # Even the whole GPU misses.  A monotone curve makes that a
        # proof of infeasibility, but the scan settles it exactly even
        # if the curve dips somewhere in the middle.
        return linear_scan()
    if acceptable(latency_at(1)):
        result = 1
    else:
        lo, hi = 1, spec.sms  # invariant: lo unacceptable, hi acceptable
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if acceptable(latency_at(mid)):
                hi = mid
            else:
                lo = mid
        result = hi
    points = sorted(evaluated.items())
    monotone = all(later <= earlier + 1e-12
                   for (_, earlier), (_, later) in zip(points, points[1:]))
    if not monotone:
        return linear_scan()
    return SizingResult(result)


def scaled_percentages(spec: GPUSpec, needed: dict[str, int],
                       counts: Optional[dict[str, int]] = None,
                       min_percentage: int = 5,
                       expand: bool = False) -> dict[str, int]:
    """Per-function MPS percentages fitting ``needed`` SMs on ``spec``.

    ``counts`` replicates a function's requirement (``needed[f]`` SMs
    per replica, ``counts[f]`` replicas); the returned percentage is
    *per replica*.  When the total requirement exceeds the GPU, shares
    shrink proportionally.  With ``expand=True`` surplus SMs are also
    handed out proportionally (work-conserving: a provisioned GPU
    should not idle).

    The replica-weighted sum ``sum(pct[f] * counts[f])`` never exceeds
    100 — caps are apportioned by the largest-remainder method rather
    than per-function ``ceil``, whose rounding slack (up to one point
    per function, on top of the ``min_percentage`` floor) previously
    let co-resident caps sum well past 100% and oversubscribe the GPU.
    With ``expand=True`` the sum lands exactly on 100 whenever replica
    granularity allows (a +1 on a ``counts[f]``-replica function costs
    ``counts[f]`` weighted points, so a smaller remainder can be
    unreachable).  The floor is preserved as
    ``min(min_percentage, 100 // total_replicas)`` — the largest
    uniform keep-warm share that still fits — and more than 100 total
    replicas cannot share one GPU at integer percentages at all, which
    raises :class:`ValueError`.
    """
    counts = counts if counts is not None else {name: 1 for name in needed}
    if any(counts[name] < 1 for name in needed):
        raise ValueError("every function needs at least one replica")
    replicas = sum(counts[name] for name in needed)
    if replicas == 0:
        return {}
    if replicas > 100:
        raise ValueError(
            f"{replicas} replicas cannot share one GPU at integer MPS "
            f"percentages (at most 100 at 1% each)")
    floor_pct = max(1, min(min_percentage, 100 // replicas))
    budget = 100 - floor_pct * replicas
    total = sum(sms * counts[name] for name, sms in needed.items())
    if total > 0:
        denominator = total if expand else max(total, spec.sms)
        quotas = {name: 100.0 * sms / denominator
                  for name, sms in needed.items()}
    else:
        # Nothing asked for anything: keep-warm floors only, spread the
        # whole budget evenly when expanding.
        quotas = {name: (100.0 / replicas if expand else 0.0)
                  for name in needed}
    excess = {name: max(0.0, quotas[name] - floor_pct) for name in needed}
    weighted_excess = sum(excess[name] * counts[name] for name in needed)
    if weighted_excess > 0:
        scale = budget / weighted_excess
        if not expand:
            scale = min(1.0, scale)
        targets = {name: floor_pct + scale * excess[name] for name in needed}
    else:
        targets = {name: float(floor_pct) for name in needed}
    # Integerise by largest remainder: floors first, then +1 points to
    # the function whose integer cap lags its real target the most
    # (each +1 costs counts[f] weighted points).
    pcts = {name: min(100, int(targets[name] + 1e-9)) for name in needed}
    cap = min(100, int(sum(targets[name] * counts[name]
                           for name in needed) + 1e-6))
    remaining = cap - sum(pcts[name] * counts[name] for name in needed)
    while remaining > 0:
        candidates = [name for name in needed
                      if counts[name] <= remaining and pcts[name] < 100]
        if not candidates:
            break
        pick = min(candidates,
                   key=lambda name: (pcts[name] - targets[name], name))
        pcts[pick] += 1
        remaining -= counts[pick]
    return pcts


def cooldown_elapsed(now: float, last_applied: float, cooldown: float,
                     slo_violated: bool = False,
                     slo_bypass_factor: float = 0.5) -> bool:
    """Whether a reconfiguration may fire at ``now``.

    ``last_applied`` must start at ``-inf`` so the *first* decision is
    eligible immediately — initialising it to 0 would silently suppress
    every reconfiguration in the first cooldown window, even with an
    SLO already on fire.  A hard SLO violation shrinks the cooldown by
    ``slo_bypass_factor`` (0 bypasses it outright): waiting out a
    thrash-guard makes no sense while the guarded metric is burning.
    """
    effective = cooldown * (slo_bypass_factor if slo_violated else 1.0)
    return now - last_applied >= effective
