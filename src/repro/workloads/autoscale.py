"""The online repartitioning control plane (§7 closed, end to end).

:class:`FleetAutoscaler` runs *inside* the event loop against an
:class:`~repro.workloads.fleet.AutoscaledServingFleet` and closes the
loop the paper's future work sketches — "change GPU resources depending
on demand" — against live streaming traffic:

1. **sense** — per function, a windowed arrival rate (offered-count
   deltas from :class:`~repro.telemetry.resilience.ResilienceStats`)
   and a since-last-resize P² latency quantile fed by the stats
   ``on_completion`` tap;
2. **decide** — the shared sizing helpers of
   :mod:`repro.partition.autoscaler` turn demand into per-replica SM
   requirements and normalise them onto the GPU (work-conserving:
   surplus SMs are handed out, so total provisioned capacity stays at
   ~100% and layouts compete at equal GPU-seconds);
3. **gate** — a drift threshold plus the cooldown of
   :func:`~repro.partition.autoscaler.cooldown_elapsed`: the first
   decision is eligible immediately and a hard SLO violation (window
   P95 above the SLO) shrinks the cooldown by ``slo_bypass_factor``;
4. **act** — rolling-wave drains through
   :meth:`~repro.workloads.fleet.AutoscaledServingFleet.resize_replica`,
   paying the :class:`~repro.partition.reconfig.ReconfigCost` constants
   (teardown + worker restart, plus the model reload unless the weight
   cache hits).  Replica identity survives, so breakers, hedging
   history, and router registration carry across every resize.

``technique="mig"`` models the §6 alternative: *every* function drains,
clients tear down serially, the GPU pays its reset, and — because a MIG
repartition destroys the instances' memory pools — every function
reloads its weights regardless of the cache.

Control-plane chaos hardened this loop in three places:

- **sensor health** — the controller reads each function's *published*
  telemetry through
  :meth:`~repro.workloads.fleet.AutoscaledServingFleet.sensor_snapshot`
  and cross-checks it against ground-truth termination counters.  A
  stale snapshot (``sensor_dropout``) or an implausible offered delta
  (``telemetry_corruption``) puts the tick in **degraded mode**: hold
  the last safe shares, log the reason, touch nothing.  The first
  healthy tick after a fault is also held (re-baseline), so a recovery
  step never masquerades as a demand spike.
- **transactional actuation** — every resize runs as a
  :class:`~repro.workloads.fleet.ResizeTransaction` with a drain
  watchdog; aborted replicas are retried under capped exponential
  backoff, charged against a per-function token-bucket *resize budget*.
- **resize circuit breaker** — repeated aborted cycles trip a
  per-function breaker that takes the function out of actuation for a
  cooldown; degraded-but-stable beats a loop that spends the fleet's
  capacity fighting a stuck drain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce
from operator import add
from typing import Optional

from repro.partition.autoscaler import (
    cooldown_elapsed,
    required_sms_for,
    scaled_percentages,
)
from repro.partition.reconfig import ReconfigurationPlanner
from repro.telemetry.streaming import P2Quantile, WindowedRateSensor
from repro.workloads.fleet import AutoscaledServingFleet, FunctionGroup
from repro.workloads.resilience import CircuitBreaker

__all__ = ["FleetAutoscaler", "ScalingDecision"]

TECHNIQUES = ("mps", "mig")


@dataclass(frozen=True)
class ScalingDecision:
    """One control-loop outcome (kept for post-hoc analysis)."""

    time: float
    percentages: dict[str, int]
    applied: bool
    reason: str


def _chain_taps(prior, tap):
    """Compose completion taps instead of clobbering an installed one.

    The sharded engine installs an event-recording tap on each group's
    stats before the autoscaler exists; both must keep firing.
    """
    if prior is None:
        return tap

    def chained(latency: float, in_slo: bool) -> None:
        prior(latency, in_slo)
        tap(latency, in_slo)

    return chained


class _Monitor:
    """Per-function demand/health window (O(1) state)."""

    __slots__ = ("terminated_mark", "suspect", "quantile", "samples",
                 "violation_q")

    def __init__(self, violation_q: float):
        #: Ground-truth terminations (completed + shed + failed) at the
        #: last tick — the plausibility anchor for published telemetry.
        self.terminated_mark = 0
        #: The last tick flagged this sensor: hold one more tick after
        #: it clears so the recovery step re-baselines the marks.
        self.suspect = False
        self.violation_q = violation_q
        self.reset()

    def reset(self) -> None:
        """Start a fresh latency window (after a resize)."""
        self.quantile = P2Quantile(self.violation_q)
        self.samples = 0

    def observe(self, latency: float, in_slo: bool) -> None:
        self.quantile.add(latency)
        self.samples += 1


class _ResizeControl:
    """Per-function resize actuation guard.

    A token-bucket *retry budget* bounds how much extra drain/restart
    churn aborted resizes may charge to one function (spend one token
    per retry cycle, earn ``budget_earn`` per committed resize, capped),
    and a :class:`CircuitBreaker` takes the function out of actuation
    entirely when aborted cycles repeat.
    """

    __slots__ = ("budget", "budget_earn", "budget_cap", "breaker")

    def __init__(self, initial: float, earn: float, cap: float,
                 breaker_threshold: int, breaker_cooldown: float):
        self.budget = float(initial)
        self.budget_earn = earn
        self.budget_cap = cap
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)

    def spend_retry(self) -> bool:
        if self.budget < 1.0:
            return False
        self.budget -= 1.0
        return True

    def record_commit(self) -> None:
        self.breaker.record_success()
        self.budget = min(self.budget_cap, self.budget + self.budget_earn)


class FleetAutoscaler:
    """Demand-driven MPS-share controller for a live serving fleet."""

    def __init__(self, fleet: AutoscaledServingFleet,
                 planner: Optional[ReconfigurationPlanner] = None,
                 interval_seconds: float = 30.0,
                 cooldown_seconds: float = 120.0,
                 change_threshold_pct: int = 5,
                 utilization_ceiling: float = 0.8,
                 min_percentage: int = 5,
                 slo_bypass_factor: float = 0.5,
                 waves: int = 2,
                 technique: str = "mps",
                 violation_quantile: float = 0.95,
                 min_window_samples: int = 8,
                 resize_watchdog_seconds: float = 30.0,
                 resize_max_retries: int = 2,
                 resize_backoff_base_seconds: float = 5.0,
                 resize_backoff_cap_seconds: float = 60.0,
                 resize_budget_initial: float = 4.0,
                 resize_budget_earn: float = 0.5,
                 resize_budget_cap: float = 8.0,
                 resize_breaker_threshold: int = 3,
                 resize_breaker_cooldown_seconds: float = 600.0,
                 sensor_stale_after_seconds: Optional[float] = None,
                 plausibility_factor: float = 4.0,
                 plausibility_floor: int = 16):
        if interval_seconds <= 0 or cooldown_seconds < 0:
            raise ValueError("invalid control intervals")
        if not 0 < utilization_ceiling <= 1:
            raise ValueError("utilization_ceiling must be in (0, 1]")
        if not 0 <= slo_bypass_factor <= 1:
            raise ValueError("slo_bypass_factor must be in [0, 1]")
        if change_threshold_pct < 1:
            # A zero threshold treats "no drift" as drift: every tick
            # would restart every replica at its unchanged share.
            raise ValueError("change_threshold_pct must be at least 1")
        if not 1 <= min_percentage <= 100:
            raise ValueError("min_percentage must be in [1, 100]")
        if waves < 1:
            raise ValueError("waves must be positive")
        if technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {technique!r}; "
                             f"expected one of {TECHNIQUES}")
        if resize_watchdog_seconds <= 0:
            raise ValueError("resize_watchdog_seconds must be positive")
        if resize_max_retries < 0:
            raise ValueError("resize_max_retries must be non-negative")
        if resize_backoff_base_seconds <= 0 or resize_backoff_cap_seconds <= 0:
            raise ValueError("resize backoff times must be positive")
        if resize_breaker_threshold < 1:
            raise ValueError("resize_breaker_threshold must be positive")
        if plausibility_factor <= 1:
            raise ValueError("plausibility_factor must exceed 1")
        if plausibility_floor < 1:
            raise ValueError("plausibility_floor must be positive")
        if sensor_stale_after_seconds is not None \
                and sensor_stale_after_seconds <= 0:
            raise ValueError("sensor_stale_after_seconds must be positive")
        self.fleet = fleet
        self.spec = fleet.device.spec
        self.planner = planner if planner is not None else \
            ReconfigurationPlanner(self.spec)
        self.interval = interval_seconds
        self.cooldown = cooldown_seconds
        self.change_threshold = change_threshold_pct
        self.utilization_ceiling = utilization_ceiling
        self.min_percentage = min_percentage
        self.slo_bypass_factor = slo_bypass_factor
        self.waves = waves
        self.technique = technique
        self.min_window_samples = min_window_samples
        self.resize_watchdog_seconds = resize_watchdog_seconds
        self.resize_max_retries = resize_max_retries
        self.resize_backoff_base = resize_backoff_base_seconds
        self.resize_backoff_cap = resize_backoff_cap_seconds
        self.sensor_stale_after = (interval_seconds
                                   if sensor_stale_after_seconds is None
                                   else sensor_stale_after_seconds)
        self.plausibility_factor = plausibility_factor
        self.plausibility_floor = plausibility_floor
        self.decisions: list[ScalingDecision] = []
        #: Function-resize operations executed (one per function whose
        #: share actually changed, not one per replica restart).
        self.reconfigurations = 0
        #: Summed per-replica pause durations across every resize.
        self.reconfiguration_downtime = 0.0
        #: Replica restarts whose weight reload the cache absorbed.
        self.weight_cache_hits = 0
        #: Replica restarts total.
        self.replica_restarts = 0
        #: One entry per executed resize: analytic cost + measured
        #: per-replica timeline.
        self.reconfig_log: list[dict] = []
        #: Retry cycles launched for aborted resize transactions.
        self.resize_retries = 0
        #: Per-function resize circuit-breaker open transitions.
        self.resize_breaker_opens = 0
        #: Ticks held in degraded mode (unhealthy sensors).
        self.degraded_ticks = 0
        #: Simulated seconds spent in degraded mode.
        self.degraded_seconds = 0.0
        self._monitors: dict[str, _Monitor] = {}
        self._controls: dict[str, _ResizeControl] = {}
        #: Published offered counters -> rates over the true window
        #: since the previous tick (a tick that actuated delays the
        #: next one), primed here.
        self._rates = WindowedRateSensor()
        for name, group in fleet.groups.items():
            self._rates.observe(name, fleet.sensor_snapshot(name)[0],
                                fleet.env.now)
            monitor = _Monitor(violation_quantile)
            self._monitors[name] = monitor
            self._controls[name] = _ResizeControl(
                resize_budget_initial, resize_budget_earn,
                resize_budget_cap, resize_breaker_threshold,
                resize_breaker_cooldown_seconds)
            group.stats.on_completion = _chain_taps(
                group.stats.on_completion, monitor.observe)
        self._last_applied = -math.inf
        self._proc = None

    # -- control loop -------------------------------------------------------
    def start(self):
        """Launch the control loop; returns the process handle."""
        if self._proc is not None:
            raise RuntimeError("autoscaler already started")
        self._proc = self.fleet.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("autoscaler stopped")
            self._proc.defuse()

    def _run(self):
        env = self.fleet.env
        while True:
            yield env.timeout(self.interval)
            yield from self._tick()

    # -- sense --------------------------------------------------------------
    def _sense(self) -> tuple[dict[str, float], dict[str, str]]:
        """Read every function's published sensor once; advance marks.

        Returns ``(rates, health)`` where ``health`` maps unhealthy
        function names to a reason.  Three checks, all O(1):

        - **stale**: the snapshot's as-of timestamp is at least
          ``sensor_stale_after`` old (a dropout froze the pipeline);
        - **implausible**: the published offered delta is negative
          (offered counters are monotonic) or exceeds
          ``plausibility_factor`` × the ground-truth termination delta
          (a corruption is inflating it);
        - **re-baseline**: the previous tick flagged this sensor; hold
          one more tick so the recovery step — which folds the whole
          outage into a single window delta — never reads as a demand
          spike or crash.

        Marks always advance (to the *published* values), so a bounded
        fault costs a bounded number of degraded ticks.  A rewound
        counter reads as rate 0.
        """
        env = self.fleet.env
        rates: dict[str, float] = {}
        health: dict[str, str] = {}
        for name, group in self.fleet.groups.items():
            monitor = self._monitors[name]
            offered, as_of = self.fleet.sensor_snapshot(name)
            stats = group.stats
            terminated = stats.completed + stats.shed + stats.failed
            delta_pub = offered - self._rates.marks[name][0]
            delta_term = terminated - monitor.terminated_mark
            monitor.terminated_mark = terminated
            rates[name] = self._rates.observe(name, offered, env.now) or 0.0
            if env.now - as_of >= self.sensor_stale_after:
                reason = "stale sensor"
            elif delta_pub < 0 or delta_pub > self.plausibility_factor * \
                    max(delta_term, self.plausibility_floor):
                reason = "implausible telemetry"
            elif monitor.suspect:
                reason = "sensor re-baseline"
            else:
                reason = None
            if reason is not None:
                health[name] = reason
                monitor.suspect = reason != "sensor re-baseline"
            else:
                monitor.suspect = False
        return rates, health

    def slo_violated(self, name: str) -> bool:
        """Window P95 above the function's SLO (with enough samples)."""
        monitor = self._monitors[name]
        if monitor.samples < self.min_window_samples:
            return False
        group = self.fleet.groups[name]
        return monitor.quantile.value > group.slo_seconds

    # -- decide -------------------------------------------------------------
    def desired_percentages(self, rates: dict[str, float]) -> dict[str, int]:
        """Per-replica MPS percentages for the windowed demand."""
        needed = {}
        counts = {}
        for name, group in self.fleet.groups.items():
            n = len(group.replicas)
            if n == 0:
                # A function with no replica pool needs nothing and must
                # not divide by it; the actuator skips it anyway.
                counts[name] = 1
                needed[name] = 0
                continue
            counts[name] = n
            per_replica = rates.get(name, 0.0) / n
            needed[name] = required_sms_for(
                self.spec, group.latency_fn, group.slo_seconds,
                per_replica, self.utilization_ceiling)
        return scaled_percentages(self.spec, needed, counts,
                                  min_percentage=self.min_percentage,
                                  expand=True)

    # -- one decision -------------------------------------------------------
    def _tick(self):
        env = self.fleet.env
        rates, health = self._sense()
        if health:
            # Degraded mode: hold the last safe shares.  A controller
            # acting on stale or lying sensors is worse than one doing
            # nothing — the fault-free shares were chosen on evidence.
            self.degraded_ticks += 1
            self.degraded_seconds += self.interval
            held = {name: group.current_pct
                    for name, group in self.fleet.groups.items()}
            detail = ", ".join(f"{name}: {reason}"
                               for name, reason in sorted(health.items()))
            self.decisions.append(ScalingDecision(
                env.now, held, False, f"degraded ({detail})"))
            return
        desired = self.desired_percentages(rates)
        current = {name: group.current_pct
                   for name, group in self.fleet.groups.items()}
        drift = {name: abs(desired[name] - current[name])
                 for name in desired}
        if max(drift.values()) < self.change_threshold:
            self.decisions.append(ScalingDecision(
                env.now, desired, False, "within threshold"))
            return
        violated = any(self.slo_violated(name) for name in desired
                       if drift[name] >= self.change_threshold)
        if not cooldown_elapsed(env.now, self._last_applied, self.cooldown,
                                slo_violated=violated,
                                slo_bypass_factor=self.slo_bypass_factor):
            self.decisions.append(ScalingDecision(
                env.now, desired, False, "cooldown"))
            return
        actionable = [name for name in sorted(desired)
                      if drift[name] >= self.change_threshold]
        blocked = [name for name in actionable
                   if not self._controls[name].breaker.available(env.now)]
        if len(blocked) == len(actionable):
            self.decisions.append(ScalingDecision(
                env.now, desired, False,
                "resize-breaker open: " + ", ".join(blocked)))
            return
        if self.technique == "mig":
            outcome = yield from self._apply_mig(desired)
        else:
            outcome = yield from self._apply_mps(desired, drift,
                                                 frozenset(blocked))
        self._last_applied = env.now
        applied = outcome["committed"] > 0
        if applied:
            reason = ("slo-bypass repartition" if violated
                      else "repartitioned")
            notes = []
            if outcome["aborted"]:
                notes.append(f"{outcome['aborted']} aborted")
            if blocked:
                notes.append("breaker open: " + ", ".join(blocked))
            if outcome["skipped"]:
                notes.append("skipped: " + ", ".join(outcome["skipped"]))
            if notes:
                reason += " (" + "; ".join(notes) + ")"
        elif outcome["aborted"]:
            reason = "resize aborted: drain watchdog"
        else:
            reason = "skipped: no live replicas"
        self.decisions.append(ScalingDecision(
            env.now, desired, applied, reason))

    # -- act: MPS rolling waves ---------------------------------------------
    def _apply_mps(self, desired: dict[str, int], drift: dict[str, int],
                   blocked: frozenset = frozenset()):
        env = self.fleet.env
        outcome = {"committed": 0, "aborted": 0, "skipped": []}
        for name, group in self.fleet.groups.items():
            if drift[name] < self.change_threshold or name in blocked:
                continue
            new_pct = desired[name]
            control = self._controls[name]
            pending = [r for r in group.replicas if r.alive]
            if not pending:
                outcome["skipped"].append(name)
                continue
            committed: list[dict] = []
            aborted: list[dict] = []
            attempt = 0
            while True:
                done, failed = yield from self._resize_cycle(
                    name, pending, new_pct)
                committed.extend(done)
                if not failed:
                    control.record_commit()
                    break
                aborted.extend(entry for _r, entry in failed)
                if control.breaker.record_failure(env.now):
                    self.resize_breaker_opens += 1
                    break
                if attempt >= self.resize_max_retries \
                        or not control.spend_retry():
                    break
                attempt += 1
                self.resize_retries += 1
                backoff = min(self.resize_backoff_cap,
                              self.resize_backoff_base
                              * 2.0 ** (attempt - 1))
                yield env.timeout(backoff)
                pending = [r for r, _e in failed if r.alive]
                if not pending:
                    break
            if all(group.pct_by_replica[r.index] == new_pct
                   for r in group.replicas if r.alive):
                group.current_pct = new_pct
            outcome["committed"] += len(committed)
            outcome["aborted"] += len(aborted)
            if committed or aborted:
                self._finish_resize(name, group, committed,
                                    technique="mps", aborted=aborted)
        return outcome

    def _resize_cycle(self, name: str, replicas, new_pct: int):
        """One rolling-wave pass over ``replicas``; returns
        ``(committed entries, [(replica, aborted entry), …])``."""
        env = self.fleet.env
        committed: list[dict] = []
        aborted: list[tuple] = []
        wave_size = max(1, math.ceil(len(replicas) / self.waves))
        for lo in range(0, len(replicas), wave_size):
            wave = replicas[lo:lo + wave_size]
            procs = [env.process(self.fleet.resize_replica(
                name, replica, new_pct, self.planner,
                watchdog_seconds=self.resize_watchdog_seconds))
                for replica in wave]
            yield env.all_of(procs)
            for proc, replica in zip(procs, wave):
                entry = proc.value
                if entry is None:
                    continue
                if entry.get("aborted"):
                    aborted.append((replica, entry))
                else:
                    committed.append(entry)
        return committed, aborted

    # -- act: MIG global teardown --------------------------------------------
    def _apply_mig(self, desired: dict[str, int]):
        """Repartition as MIG would: everyone stops, the GPU resets.

        Clients tear down serially, the device pays ``reset_seconds``,
        then every replica restarts in parallel and reloads its model
        — the repartition destroyed the instances' memory pools, so the
        weight cache cannot help (§6's co-tenant disturbance, executed).
        """
        env = self.fleet.env
        planner = self.planner
        fleet = self.fleet
        outcome = {"committed": 0, "aborted": 0, "skipped": []}
        t0 = env.now
        victims = [(group, replica)
                   for group in fleet.groups.values()
                   for replica in group.replicas if replica.alive]
        if not victims:
            outcome["skipped"] = sorted(fleet.groups)
            return outcome
        for group, _replica in victims:
            group.stats.resize_attempts += 1
        snapshot = fleet.control_state()
        for _group, replica in victims:
            replica.server.pause()
        # Global drain watchdog: a MIG repartition is all-or-nothing, so
        # one stuck drain aborts the whole thing — resume everyone at
        # the old shares and verify nothing else moved.
        drained = yield from fleet._drain(
            [(group.name, replica) for group, replica in victims],
            self.resize_watchdog_seconds)
        if not drained:
            for _group, replica in victims:
                if replica.alive:
                    replica.server.resume()
            verified = fleet.control_state() == snapshot
            entries = []
            for group, replica in victims:
                group.stats.resize_aborts += 1
                if verified:
                    group.stats.resize_rollbacks += 1
                entries.append({"replica": replica.index, "aborted": True,
                                "function": group.name,
                                "rollback_verified": verified,
                                "downtime_seconds": env.now - t0,
                                "from_pct":
                                    group.pct_by_replica[replica.index],
                                "to_pct": desired[group.name]})
            for control in self._controls.values():
                if control.breaker.record_failure(env.now):
                    self.resize_breaker_opens += 1
            outcome["aborted"] = len(victims)
            self.reconfig_log.append({
                "time": env.now, "function": "*", "technique": "mig",
                "to_pct": None, "replicas": [], "aborted": entries,
                "downtime_seconds": env.now - t0,
            })
            return outcome
        victims = [(g, r) for g, r in victims if r.alive]
        for group, replica in victims:
            replica.server.client.close()
            fleet._set_provisioned(group.name, replica.index, 0)
        yield env.timeout(planner.TEARDOWN_SECONDS * max(1, len(victims)))
        yield env.timeout(self.spec.reset_seconds)
        yield env.timeout(planner.cold_start.worker_start_seconds(True))
        reload_seconds = 0.0
        per_group: dict[str, list] = {}
        for group, replica in victims:
            new_pct = desired[group.name]
            old_pct = group.pct_by_replica[replica.index]
            replica.server.client = group.new_client(replica.index, new_pct)
            reload_seconds = max(reload_seconds, group.model_load_seconds)
            per_group.setdefault(group.name, []).append(
                {"replica": replica.index, "weight_cache_hit": False,
                 "from_pct": old_pct, "to_pct": new_pct})
        if reload_seconds > 0:
            yield env.timeout(reload_seconds)
        downtime = env.now - t0
        for group, replica in victims:
            replica.server.resume()
        for control in self._controls.values():
            control.record_commit()
        for name, results in per_group.items():
            group = fleet.groups[name]
            group.current_pct = desired[name]
            for entry in results:
                entry["downtime_seconds"] = downtime
            outcome["committed"] += len(results)
            self._finish_resize(name, group, results, technique="mig",
                                n_cotenants=len(victims) - len(results))
        return outcome

    # -- bookkeeping ---------------------------------------------------------
    def _finish_resize(self, name: str, group: FunctionGroup,
                       results: list[dict], technique: str,
                       n_cotenants: int = 0,
                       aborted: Optional[list] = None) -> None:
        env = self.fleet.env
        hits = sum(1 for entry in results if entry["weight_cache_hit"])
        # A left fold: the builtin ``sum`` compensates float rounding
        # from Python 3.12 (see the merged ``gpu_seconds`` in shardcells).
        downtime = reduce(add, (entry["downtime_seconds"]
                                for entry in results), 0.0)
        if technique == "mig":
            cost = self.planner.mig_repartition_cost(
                group.model_load_seconds, n_cotenants=n_cotenants)
        else:
            cost = self.planner.mps_repartition_cost(
                group.model_load_seconds,
                weight_cache_hit=hits == len(results) and bool(results))
        if results:
            self.reconfigurations += 1
            # Latencies observed under the old share say nothing about
            # the new one; start a fresh violation window.  An
            # all-aborted attempt left the share alone, so the window
            # stays valid and is kept.
            self._monitors[name].reset()
        self.replica_restarts += len(results)
        self.weight_cache_hits += hits
        self.reconfiguration_downtime += downtime
        entry = {
            "time": env.now,
            "function": name,
            "technique": technique,
            "to_pct": group.current_pct,
            "cost": asdict(cost),
            "replicas": results,
            "downtime_seconds": downtime,
        }
        if aborted:
            entry["aborted"] = aborted
        self.reconfig_log.append(entry)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready controller counters (bench/CLI payload)."""
        applied = sum(1 for d in self.decisions if d.applied)
        groups = self.fleet.groups.values()
        ticks = len(self.decisions)
        return {
            "ticks": ticks,
            "applied": applied,
            "reconfigurations": self.reconfigurations,
            "replica_restarts": self.replica_restarts,
            "weight_cache_hits": self.weight_cache_hits,
            "reconfiguration_downtime": self.reconfiguration_downtime,
            "mean_restart_downtime": (
                self.reconfiguration_downtime / self.replica_restarts
                if self.replica_restarts else 0.0),
            "resize_attempts": sum(g.stats.resize_attempts for g in groups),
            "resize_aborts": sum(g.stats.resize_aborts for g in groups),
            "resize_rollbacks": sum(g.stats.resize_rollbacks
                                    for g in groups),
            "resize_retries": self.resize_retries,
            "resize_breaker_opens": self.resize_breaker_opens,
            "cache_load_failures": sum(g.stats.cache_load_failures
                                       for g in groups),
            "degraded_ticks": self.degraded_ticks,
            "degraded_seconds": self.degraded_seconds,
            "degraded_fraction": (self.degraded_ticks / ticks
                                  if ticks else 0.0),
        }
