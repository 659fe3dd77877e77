"""Serving fleets wired for chaos experiments and live resizes.

:class:`AutoscaledServingFleet` is the one fleet: functions sharing one
GPU, each a :class:`FunctionGroup` with its own replicas, router and
stats, plus :meth:`~AutoscaledServingFleet.apply_fault`, the dispatch
point a :class:`~repro.faas.chaos.ChaosController` drives.
:func:`placement` lays the device out for a sharing mode, one client
factory per replica slot; every client a replica gets comes from its
slot, so it keeps its placement and its fault domain.

:class:`ServingFleet` is the scale benchmark's fleet as one function —
an A100-80GB split seven ways, 16 serving replicas per partition — in
one of three sharing modes: the *same replica count* over the *same
silicon* with different isolation, which the blast-radius experiment
measures:

- ``"mig-mps"`` — 7 MIG ``1g.10gb`` instances, an MPS daemon inside
  each (the paper's nested fine-grained configuration).  Each instance
  is a hardware fault domain: an ECC error kills kernels in one slice.
- ``"mps"`` — one flat MPS daemon, every replica capped to an equal SM
  share mirroring the MIG slice.  One fault domain: an ECC error kills
  every resident kernel.  Named functions run this layout.
- ``"timeshare"`` — default time-sliced contexts, one fault domain.

Fault targets in a plan are raw integers, resolved modulo the victim
pool (fault domains, replicas, device groups, functions), so one plan
replays against any fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.gpu.device import GpuClient, SimulatedGPU
from repro.gpu.faults import fault_domains, kill_domain
from repro.gpu.mig import MigManager
from repro.gpu.mps import MpsControlDaemon
from repro.gpu.specs import A100_80GB
from repro.partition.weightcache import WeightCache
from repro.sim.core import Environment
from repro.telemetry.resilience import ResilienceStats
from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
from repro.workloads.resilience import Replica, ResilientRouter, SLOPolicy
from repro.workloads.serving import InferenceServer

__all__ = ["AutoscaledServingFleet", "FLEET_MODES", "FleetFunction",
           "FunctionGroup", "ResizeTransaction", "ServingFleet"]

FLEET_MODES = ("mig-mps", "mps", "timeshare")

#: Fault kinds aimed at the resize/telemetry machinery (repro-faultplan/2).
_CONTROL_PLANE_KINDS = ("resize_stuck", "cache_load_failure",
                        "sensor_dropout", "telemetry_corruption")

def placement(device: SimulatedGPU, mode: str, n_replicas: int,
              n_partitions: int = 1, profile: str = "1g.10gb") -> tuple:
    """Lay ``device`` out for ``mode``; return ``(manager, factories)``.

    ``manager`` is the :class:`MigManager`, the flat
    :class:`MpsControlDaemon`, or ``None`` for time-sharing; there is one
    ``factory(name, pct) -> GpuClient`` per replica slot.  ``pct`` caps
    an MPS client's share of its scope: its MIG slice under ``"mig-mps"``
    (slots fill the ``n_partitions`` instances in order), the whole
    device under ``"mps"``; time-shared clients take no cap.  Enabling
    MIG costs a GPU reset, so it advances the clock.
    """
    if mode == "mig-mps":
        manager = MigManager(device)
        env = device.env
        env.run(until=env.process(manager.enable()))
        daemons = [manager.create_instance(profile).enable_mps()
                   for _ in range(n_partitions)]
        return manager, [d.client for d in daemons
                         for _ in range(n_replicas // n_partitions)]
    if mode == "mps":
        daemon = MpsControlDaemon(device)
        daemon.start()
        return daemon, [daemon.client] * n_replicas
    # timeshare
    return None, [lambda name, pct: device.timeshare_client(name)
                  ] * n_replicas


class ResizeTransaction:
    """One replica's drain → restart → swap resize as an explicit state
    machine with a drain watchdog and a verified rollback.

    States: ``pending`` → ``draining`` → ``restarting`` → ``committed``,
    with two off-ramps — ``aborted`` (the drain watchdog fired before
    the drain handshake completed: admission resumes at the *old*
    percentage and nothing else has changed, verified against a
    pre-resize snapshot) and ``failed`` (the replica died mid-flight).

    The abort path is cheap by construction: the MPS client is only
    closed *after* the drain handshake, so a timed-out drain has
    mutated nothing but the admission pause — rollback is ``resume()``
    plus a state comparison.  :attr:`rollback_verified` records whether
    the post-abort replica-scoped state matched the pre-resize snapshot
    bit for bit (counted in ``ResilienceStats.resize_rollbacks``).

    Run the generator returned by :meth:`run` under ``env.process``;
    it returns the per-replica result dict (``aborted`` key marks the
    off-ramp) or ``None`` when the replica died mid-resize.
    """

    def __init__(self, fleet: "AutoscaledServingFleet", name: str,
                 replica: Replica, new_pct: int, planner,
                 watchdog_seconds: float = 30.0):
        if not 1 <= new_pct <= 100:
            raise ValueError("new_pct must be in [1, 100]")
        if watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        self.fleet = fleet
        self.name = name
        self.replica = replica
        self.new_pct = new_pct
        self.planner = planner
        self.watchdog_seconds = watchdog_seconds
        self.state = "pending"
        #: After an abort: did the rollback restore the pre-resize
        #: replica-scoped state bit for bit?  ``None`` until then.
        self.rollback_verified: Optional[bool] = None

    # -- rollback verification ----------------------------------------------
    def _scope_state(self) -> dict:
        """Replica-scoped control state this transaction may touch.

        Deliberately excludes group-shared fields (``generation``,
        the fleet capacity integral) that *sibling* transactions in the
        same rolling wave legitimately mutate — an abort must restore
        exactly its own blast radius, concurrently with commits nearby.
        """
        fleet = self.fleet
        group = fleet.groups[self.name]
        replica = self.replica
        server = replica.server
        cache = fleet.weight_cache
        return {
            "pct": group.pct_by_replica[replica.index],
            "client": server.client.name if server is not None else None,
            "client_alive": bool(server is not None and server.client.alive),
            "incarnations": replica.incarnations,
            "registered": group.router.replicas[replica.index] is replica,
            "provisioned": fleet._provisioned.get(
                (self.name, replica.index), 0),
            "cache_refs": (None if cache is None else
                           cache.refcounts().get(group.model_key, 0)),
        }

    # -- the state machine --------------------------------------------------
    def run(self):
        fleet = self.fleet
        env = fleet.env
        group = fleet.groups[self.name]
        replica = self.replica
        server = replica.server
        planner = self.planner
        if not server.alive:
            self.state = "failed"
            return None
        stats = group.stats
        stats.resize_attempts += 1
        old_pct = group.pct_by_replica[replica.index]
        snapshot = self._scope_state()
        t0 = env.now
        self.state = "draining"
        server.pause()
        drained = yield from fleet._drain([(self.name, replica)],
                                          self.watchdog_seconds)
        if not drained:
            # ABORT: the client was never closed, so nothing beyond the
            # admission pause happened.  Roll back, verify, move on.
            self.state = "aborted"
            if server.alive:
                server.resume()
            stats.resize_aborts += 1
            self.rollback_verified = self._scope_state() == snapshot
            if self.rollback_verified:
                stats.resize_rollbacks += 1
            return {"replica": replica.index, "aborted": True,
                    "rollback_verified": self.rollback_verified,
                    "downtime_seconds": env.now - t0,
                    "from_pct": old_pct, "to_pct": self.new_pct}
        if not server.alive:
            self.state = "failed"
            return None
        self.state = "restarting"
        server.client.close()
        fleet._set_provisioned(self.name, replica.index, 0)
        yield env.timeout_pooled(planner.TEARDOWN_SECONDS)
        yield env.timeout_pooled(planner.cold_start.worker_start_seconds(True))
        if not server.alive:
            self.state = "failed"
            return None
        client = group.new_client(replica.index, self.new_pct)
        hit = False
        cache = fleet.weight_cache
        if self.name in fleet._cache_corrupt:
            # Injected corruption: the resident bytes are garbage.  Pay
            # the full reload (streaming fresh weights into the standing
            # allocation repairs the entry for subsequent restarts) and
            # never touch the refcount — the cache stays consistent.
            fleet._cache_corrupt.discard(self.name)
            stats.cache_load_failures += 1
        elif cache is not None:
            # Bump-and-release against the standing fleet reference:
            # counts the hit, leaves the refcount unchanged, and stays
            # safe under concurrent resizes of sibling replicas.
            hit = cache.acquire(client, group.model_key, group.model_bytes)
            if hit:
                cache.release(client, group.model_key)
        if not hit:
            yield env.timeout_pooled(group.model_load_seconds)
        server.client = client
        server.resume()
        self.state = "committed"
        return {"replica": replica.index, "aborted": False,
                "downtime_seconds": env.now - t0,
                "weight_cache_hit": hit, "from_pct": old_pct,
                "to_pct": self.new_pct}


@dataclass(frozen=True)
class FleetFunction:
    """Static description of one autoscaled serving function."""

    name: str
    #: Replica count (fixed; the autoscaler resizes shares, not counts).
    n_replicas: int
    #: Per-request latency SLO, seconds.
    slo_seconds: float
    #: Initial per-replica MPS percentage.
    initial_pct: int
    #: Tokens per completion request.
    n_tokens: int = 16

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        if self.slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if not 1 <= self.initial_pct <= 100:
            raise ValueError("initial_pct must be in [1, 100]")


class FunctionGroup:
    """Runtime state of one :class:`FleetFunction`: replicas + router.

    Each function gets its own :class:`ResilientRouter` and
    :class:`~repro.telemetry.resilience.ResilienceStats` — breakers,
    hedging, and SLO accounting are per function, while the GPU (and
    the weight cache) is shared fleet-wide.  Replica ``k`` is served by
    ``<prefix>k`` and owns one placement slot of the fleet: every client
    it ever gets comes from that slot's factory (:meth:`new_client`).
    """

    def __init__(self, fleet: "AutoscaledServingFleet", spec: FleetFunction,
                 seed: int):
        self.fleet = fleet
        self.spec = spec
        self.name = spec.name
        self.n_tokens = spec.n_tokens
        self.slo_seconds = spec.slo_seconds
        llm = fleet.llm
        #: Isolated completion latency vs SM count (the sizing model).
        self.latency_fn: Callable[[int], float] = (
            lambda sms: llm.completion_seconds(fleet.device.spec, sms,
                                               spec.n_tokens))
        self.model_key = spec.name
        self.model_bytes = llm.weight_bytes
        self.model_load_seconds = llm.load_seconds
        #: Desired per-replica MPS percentage (the controller's target).
        self.current_pct = spec.initial_pct
        #: Actually-provisioned percentage per replica (diverges from
        #: ``current_pct`` transiently, mid-rolling-resize).
        self.pct_by_replica = [spec.initial_pct] * spec.n_replicas
        #: Client-name generation counter (names must be unique).
        self.generation = 0
        self.policy, self.stats, self.prefix = fleet._function_parts(spec)
        # The next free slots: groups built earlier hold the ones before.
        first = fleet.n_replicas
        self.factories = fleet._factories[first:first + spec.n_replicas]
        self.replicas: list[Replica] = []
        for k, factory in enumerate(self.factories):
            client = factory(f"{self.prefix}{k}g0", spec.initial_pct)
            fleet._set_provisioned(self.name, k, spec.initial_pct)
            server = fleet._make_server(self, k, client)
            self.replicas.append(Replica(k, server, self.policy))
        self.router = ResilientRouter(fleet.env, self.replicas, self.policy,
                                      stats=self.stats, seed=seed)

    def new_client(self, index: int, pct: int) -> GpuClient:
        """A fresh client for replica ``index`` at ``pct``, in its slot;
        records ``pct`` as provisioned."""
        self.generation += 1
        self.pct_by_replica[index] = pct
        self.fleet._set_provisioned(self.name, index, pct)
        return self.factories[index](
            f"{self.prefix}{index}g{self.generation}", pct)


class AutoscaledServingFleet:
    """A multi-function serving fleet whose shares can be resized live.

    Named functions share one GPU under one flat MPS daemon (the
    ``"mps"`` :func:`placement`; :class:`ServingFleet` builds the same
    fleet from any mode).  Each function owns a fixed set of replicas
    whose ``active_thread_percentage`` the
    :class:`~repro.workloads.autoscale.FleetAutoscaler` re-negotiates at
    runtime via :meth:`resize_replica` — the §7 "change GPU resources
    depending on demand" loop made concrete.  With ``weight_cache=True``
    the fleet owns a :class:`~repro.partition.weightcache.WeightCache`
    holding one standing reference per function's weights, so a resized
    replica's restarted client skips the model reload.

    :meth:`provisioned_gpu_seconds` integrates the summed SM caps over
    time — the "equal GPU-seconds" side of the bench's fairness claim.
    """

    def __init__(self, env: Environment,
                 functions: Sequence[FleetFunction],
                 spec=A100_80GB, dtype_bytes: int = 1,
                 max_batch_size: int = 1, seed: int = 0,
                 weight_cache: bool = True,
                 respawn_seconds: float = 5.0):
        if not functions:
            raise ValueError("need at least one function")
        names = {f.name for f in functions}
        if len(names) != len(functions):
            raise ValueError("function names must be unique")
        self._build(env, functions,
                    [seed * 1_000_003 + i for i in range(len(functions))],
                    spec, dtype_bytes, max_batch_size, respawn_seconds,
                    WeightCache() if weight_cache else None, "mps")

    def _build(self, env: Environment, functions: Sequence[FleetFunction],
               seeds: Sequence[int], spec, dtype_bytes: int,
               max_batch_size: int, respawn_seconds: float,
               weight_cache: Optional[WeightCache], mode: str,
               n_partitions: int = 1, profile: str = "1g.10gb") -> None:
        """Lay the device out for ``mode`` and build one group per
        function, the router of function ``i`` seeded with ``seeds[i]``."""
        if respawn_seconds <= 0:
            raise ValueError("respawn_seconds must be positive")
        self.env = env
        self.max_batch_size = max_batch_size
        self.respawn_seconds = respawn_seconds
        # -- injected control-plane fault state (see apply_fault) ----------
        #: ``(function, replica index) -> sim time`` until which that
        #: replica's resize drain handshake is held (inf = forever).
        self._drain_stuck: dict[tuple[str, int], float] = {}
        #: Functions whose cached weights are corrupt: the next resize
        #: restart misses, pays a full reload, and repairs the entry.
        self._cache_corrupt: set[str] = set()
        #: ``function -> (until, frozen offered, frozen as-of)``: the
        #: telemetry pipeline stopped publishing; consumers keep seeing
        #: the last snapshot.
        self._sensor_dropout: dict[str, tuple[float, int, float]] = {}
        #: ``function -> (until, offered at onset, factor)``: the offered
        #: counter inflates by ``factor`` relative to onset.
        self._sensor_corrupt: dict[str, tuple[float, int, float]] = {}
        self.device = SimulatedGPU(env, spec)
        self.manager, self._factories = placement(
            self.device, mode, sum(f.n_replicas for f in functions),
            n_partitions, profile)
        self.llm = LlamaInference(LLAMA2_7B,
                                  InferenceRuntime(dtype_bytes=dtype_bytes))
        self.weight_cache = weight_cache
        self.groups: dict[str, FunctionGroup] = {}
        #: Injected faults by kind (fleet-wide; per-function counters
        #: live in each group's :class:`ResilienceStats`).
        self.faults: dict[str, int] = {}
        #: Per-ECC-fault blast radius: (domain, killed, resident before).
        self.ecc_log: list[tuple[str, int, int]] = []
        # Provisioned-capacity integral: sum over replicas of their MPS
        # percentage, integrated piecewise over sim time.  The ledger is
        # per-replica (`_provisioned`) so resize transactions, crashes,
        # and respawns can all touch the same replica without double
        # counting — see _set_provisioned.
        self._provisioned: dict[tuple[str, int], int] = {}
        self._alloc_total_pct = 0
        self._alloc_integral = 0.0
        self._alloc_changed_at = env.now
        for fn, seed in zip(functions, seeds):
            group = FunctionGroup(self, fn, seed=seed)
            self.groups[fn.name] = group
            if self.weight_cache is not None:
                # The standing fleet-level reference: weights stay
                # resident (refcount >= 1) for the fleet's lifetime, so
                # every resize-restart is a cache hit.
                self.weight_cache.acquire(group.replicas[0].server.client,
                                          group.model_key, group.model_bytes)

    def _function_parts(self, spec: FleetFunction
                        ) -> tuple[SLOPolicy, ResilienceStats, str]:
        """A named function's SLO policy, stats and server-name prefix."""
        return (SLOPolicy(deadline_seconds=spec.slo_seconds),
                ResilienceStats(), f"{spec.name}-r")

    def _make_server(self, group: FunctionGroup, index: int,
                     client: GpuClient) -> InferenceServer:
        return InferenceServer(
            self.env, client, self.llm,
            max_batch_size=self.max_batch_size,
            keep_completed=False,
            name=f"{group.prefix}{index}")

    # -- client API ---------------------------------------------------------
    def submit(self, name: str):
        """Route one request to function ``name`` (router passthrough)."""
        group = self.groups[name]
        return group.router.submit(group.n_tokens)

    # -- capacity accounting ------------------------------------------------
    def _note_alloc_change(self, delta_pct: int) -> None:
        now = self.env.now
        self._alloc_integral += self._alloc_total_pct * \
            (now - self._alloc_changed_at)
        self._alloc_changed_at = now
        self._alloc_total_pct += delta_pct

    def _set_provisioned(self, name: str, index: int, pct: int) -> None:
        """Set one replica's provisioned percentage (idempotent ledger).

        All capacity transitions — resize teardown/restart, crash,
        respawn — go through here, so overlapping events (a crash during
        a restart window, say) can each assert the state they produce
        without double-charging the integral.
        """
        key = (name, index)
        old = self._provisioned.get(key, 0)
        if pct != old:
            self._note_alloc_change(pct - old)
            self._provisioned[key] = pct

    def provisioned_gpu_seconds(self) -> float:
        """GPU-seconds of provisioned capacity up to now (1.0 = whole GPU
        for one second).  Restart windows provision nothing: the share is
        released at client teardown and re-counted when the new client
        exists."""
        live = self._alloc_total_pct * (self.env.now - self._alloc_changed_at)
        return (self._alloc_integral + live) / 100.0

    # -- live resize --------------------------------------------------------
    def resize_replica(self, name: str, replica: Replica, new_pct: int,
                       planner, watchdog_seconds: float = 30.0):
        """Drain one replica and restart its MPS client at ``new_pct``.

        The §6 sequence, executed against live traffic: pause admission,
        wait for in-flight kernels (queued requests are *held*, and the
        router steers new work elsewhere — see ``Replica.stalled``),
        close the client, pay teardown + worker start from ``planner``,
        create the resized client, reload weights unless the cache has
        them, swap the client under the same server, resume.  The
        :class:`Replica` object — and with it the breaker state and the
        router registration — survives, so fault-tolerance history
        carries across the resize.  A :class:`ResizeTransaction` runs it:
        a drain that outlives ``watchdog_seconds`` aborts the resize with
        a verified rollback instead of wedging the control loop.

        A generator: run under ``env.process``.  Returns a dict with the
        replica's downtime and whether the weight cache hit; aborted
        transactions return ``{"aborted": True, "rollback_verified": …}``
        instead, and ``None`` means the replica died mid-resize.
        """
        txn = ResizeTransaction(self, name, replica, new_pct, planner,
                                watchdog_seconds=watchdog_seconds)
        return (yield from txn.run())

    def _drain(self, victims: Sequence[tuple[str, Replica]],
               watchdog_seconds: float):
        """Race the drain handshakes of ``victims``, ``(function,
        replica)`` pairs, against a watchdog; the first to finish decides.

        A replica's handshake completes once its drain does *and* any
        injected ``resize_stuck`` hold on it has released.  A hold with
        ``until == inf`` never releases — the watchdog is then the only
        way out, which is the point of the fault.  A generator: returns
        ``True`` when every handshake completed, ``False`` on timeout.
        """
        env = self.env
        decided = env.event()
        outcome: list[bool] = []
        pending = [len(victims)]

        def settle(drained: bool) -> None:
            if not outcome:
                outcome.append(drained)
                decided.succeed()

        def handshake(key: tuple[str, int]) -> Callable[[object], None]:
            def release() -> None:
                self._drain_stuck.pop(key, None)
                pending[0] -= 1
                if pending[0] == 0:
                    settle(True)

            def on_drained(_event) -> None:
                until = self._drain_stuck.get(key)
                if until is None or env.now >= until:
                    release()
                elif until != math.inf:
                    env.schedule_callback(until - env.now, release)
                # inf: held until further notice; never released.

            return on_drained

        for name, replica in victims:
            replica.server.drain().callbacks.append(
                handshake((name, replica.index)))
        env.schedule_callback(watchdog_seconds, lambda: settle(False))
        yield decided
        return outcome[0]

    # -- control-plane introspection ----------------------------------------
    def control_state(self) -> dict:
        """JSON-able snapshot of the fleet's control-plane state.

        Everything a resize rollback must restore: per-replica
        percentages and client identities, incarnation counts, router
        membership, the capacity ledger, and the weight cache's
        per-model refcounts.  The rollback property tests compare this
        dict verbatim before and after an aborted transaction.
        """
        state: dict = {
            "alloc_total_pct": self._alloc_total_pct,
            "provisioned": {f"{name}/{idx}": pct for (name, idx), pct
                            in sorted(self._provisioned.items())},
            "groups": {},
        }
        if self.weight_cache is not None:
            state["weight_cache_refs"] = self.weight_cache.refcounts()
        for name, group in self.groups.items():
            state["groups"][name] = {
                "current_pct": group.current_pct,
                "pct_by_replica": list(group.pct_by_replica),
                "generation": group.generation,
                "replicas": [
                    {"index": r.index,
                     "alive": r.alive,
                     "incarnations": r.incarnations,
                     "client": (r.server.client.name
                                if r.server is not None else None),
                     "stalled": r.stalled,
                     "registered": group.router.replicas[r.index] is r}
                    for r in group.replicas],
            }
        return state

    def sensor_snapshot(self, name: str) -> tuple[int, float]:
        """Function ``name``'s *published* telemetry: (offered, as-of).

        This is what the autoscaler is allowed to see.  Healthy sensors
        publish ``(stats.offered, now)``; an active ``sensor_dropout``
        freezes both at fault onset, and an active
        ``telemetry_corruption`` inflates the offered delta since onset
        by its factor.  Expired faults clean themselves up here, so the
        post-fault snapshot reverts to ground truth (the autoscaler's
        plausibility check absorbs the resulting step).
        """
        group = self.groups[name]
        now = self.env.now
        drop = self._sensor_dropout.get(name)
        if drop is not None:
            until, frozen_offered, frozen_at = drop
            if now < until:
                return frozen_offered, frozen_at
            del self._sensor_dropout[name]
        corrupt = self._sensor_corrupt.get(name)
        if corrupt is not None:
            until, onset_offered, factor = corrupt
            if now < until:
                real = group.stats.offered
                inflated = onset_offered + int(
                    round((real - onset_offered) * factor))
                return inflated, now
            del self._sensor_corrupt[name]
        return group.stats.offered, now

    # -- fault application --------------------------------------------------
    def apply_fault(self, event) -> str:
        """Apply one :class:`~repro.faas.chaos.FaultEvent`; describe it.

        The data-plane kinds resolve over the flat multi-function
        replica pool; the ``repro-faultplan/2`` control-plane kinds
        mutate the resize/telemetry machinery instead of the replicas.
        :attr:`faults` counts every event; a function's
        ``stats.faults`` counts the faults that landed on it.
        """
        handler = self._handler_for(event.kind)
        self.faults[event.kind] = self.faults.get(event.kind, 0) + 1
        return handler(event)

    def _handler_for(self, kind: str) -> Callable[[object], str]:
        handler = getattr(self, f"_fault_{kind}", None)
        if handler is None:
            raise ValueError(f"fleet cannot apply fault kind {kind!r}")
        return handler

    def _landed(self, group: FunctionGroup, kind: str) -> None:
        group.stats.record_fault(kind)

    def _group_for(self, event) -> FunctionGroup:
        names = list(self.groups)
        return self.groups[names[event.target % len(names)]]

    def _victim(self, event
                ) -> Optional[tuple[FunctionGroup, Replica, str]]:
        """``(group, replica, server name)`` of the replica ``event``
        targets across every function, or ``None`` with no replicas."""
        pairs = [(g, r) for g in self.groups.values() for r in g.replicas]
        # Defensive: a fleet with an empty replica pool (all torn down)
        # must skip replica-targeted faults, not crash on `% 0`.
        if not pairs:
            return None
        group, replica = pairs[event.target % len(pairs)]
        return group, replica, f"{group.prefix}{replica.index}"

    def _fault_ecc(self, event) -> str:
        # Only domains with clients can lose work; the empty residual
        # domain (e.g. the zero-budget default group in MIG mode) is
        # not a meaningful ECC victim.
        domains = [d for d in fault_domains(self.device)
                   if any(g.clients for g in d.groups)]
        if not domains:
            return "ecc: no populated fault domain"
        domain = domains[event.target % len(domains)]
        resident = len(self.device.pool.tasks)
        killed = kill_domain(self.device, domain)
        self.ecc_log.append((domain.name, killed, resident))
        return (f"ecc {domain.name}: killed {killed} of "
                f"{resident} resident kernels")

    def _fault_replica_crash(self, event) -> str:
        victim = self._victim(event)
        if victim is None:
            return "crash: no replicas (skipped)"
        group, replica, who = victim
        if not replica.alive:
            return f"crash {who}: already down"
        self._landed(group, event.kind)
        replica.server.crash()
        self._set_provisioned(group.name, replica.index, 0)
        delay = event.duration if event.duration > 0 else \
            self.respawn_seconds
        self.env.schedule_callback(
            delay, lambda: self._respawn(replica))
        return f"crash {who}: respawn in {delay:g}s"

    def _respawn(self, replica: Replica) -> None:
        if replica.alive:
            return
        group = next(g for g in self.groups.values() if replica in g.replicas)
        client = group.new_client(replica.index,
                                  group.pct_by_replica[replica.index])
        replica.replace(self._make_server(group, replica.index, client))

    def _fault_straggler_replica(self, event) -> str:
        victim = self._victim(event)
        if victim is None:
            return "straggler: no replicas (skipped)"
        group, replica, who = victim
        server = replica.server
        if not server.alive:
            return f"straggler {who}: replica down"
        self._landed(group, event.kind)
        server.slowdown = event.factor

        def restore() -> None:
            # The incarnation that straggled may have crashed meanwhile;
            # its replacement starts at full speed anyway.
            if server.alive:
                server.slowdown = 1.0

        self.env.schedule_callback(event.duration, restore)
        return (f"straggler {who}: x{event.factor:g} "
                f"for {event.duration:g}s")

    def _fault_straggler_device(self, event) -> str:
        groups = [g for g in self.device.groups if g.clients]
        if not groups:
            return "straggler-device: no populated group"
        group = groups[event.target % len(groups)]
        original = group.overhead_factor
        group.overhead_factor = original / event.factor
        self.device.pool.poke()

        def restore() -> None:
            group.overhead_factor = original
            self.device.pool.poke()

        self.env.schedule_callback(event.duration, restore)
        return (f"straggler-device {group.name}: x{event.factor:g} "
                f"for {event.duration:g}s")

    def _fault_launch_failure(self, event) -> str:
        victim = self._victim(event)
        if victim is None:
            return "launch-failure: no replicas (skipped)"
        group, replica, who = victim
        if not replica.alive:
            return f"launch-failure {who}: replica down"
        self._landed(group, event.kind)
        replica.server.fail_next_launches += 1
        return f"launch-failure {who}: next launch rejected"

    def _fault_reconfig_stall(self, event) -> str:
        victim = self._victim(event)
        if victim is None:
            return "stall: no replicas (skipped)"
        group, replica, who = victim
        server = replica.server
        if not server.alive:
            return f"stall {who}: replica down"
        self._landed(group, event.kind)
        server.stall_until = max(server.stall_until,
                                 self.env.now + event.duration)
        return f"stall {who}: {event.duration:g}s"

    # Control-plane kinds (repro-faultplan/2).
    def _hold(self, event) -> tuple[float, str]:
        """A held fault's end time and wording (``duration`` 0: forever)."""
        if event.duration <= 0:
            return math.inf, "until further notice"
        return self.env.now + event.duration, f"for {event.duration:g}s"

    def _fault_resize_stuck(self, event) -> str:
        victim = self._victim(event)
        if victim is None:
            return "resize-stuck: no replicas (skipped)"
        group, replica, who = victim
        self._landed(group, event.kind)
        until, hold = self._hold(event)
        self._drain_stuck[(group.name, replica.index)] = until
        return f"resize-stuck {who}: drain held {hold}"

    def _fault_cache_load_failure(self, event) -> str:
        group = self._group_for(event)
        self._landed(group, event.kind)
        self._cache_corrupt.add(group.name)
        return (f"cache-load-failure {group.name}: next resize restart "
                f"reloads from cold")

    def _fault_sensor_dropout(self, event) -> str:
        group = self._group_for(event)
        self._landed(group, event.kind)
        until, hold = self._hold(event)
        self._sensor_dropout[group.name] = (
            until, group.stats.offered, self.env.now)
        return f"sensor-dropout {group.name}: telemetry frozen {hold}"

    def _fault_telemetry_corruption(self, event) -> str:
        group = self._group_for(event)
        self._landed(group, event.kind)
        until, hold = self._hold(event)
        self._sensor_corrupt[group.name] = (
            until, group.stats.offered, event.factor)
        return (f"telemetry-corruption {group.name}: offered inflated "
                f"x{event.factor:g} {hold}")

    # -- reporting ----------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return sum(len(g.replicas) for g in self.groups.values())

    def report(self, horizon: float) -> dict:
        return {name: group.stats.report(horizon)
                for name, group in self.groups.items()}


class ServingFleet(AutoscaledServingFleet):
    """Replicated inference serving over one partitioned GPU.

    A fleet of one function whose ``n_partitions *
    servers_per_partition`` replicas (``srv0``, ``srv1``, …) are placed
    by ``mode``; it exposes that function's :attr:`stats`,
    :attr:`router` and :attr:`replicas`, and clients talk to
    :attr:`router` (or the :meth:`submit` passthrough).  It has no
    control plane: no weight cache, no controller, and the control-plane
    fault kinds are skipped.
    """

    def __init__(self, env: Environment, mode: str = "mig-mps",
                 n_partitions: int = 7, servers_per_partition: int = 16,
                 spec=A100_80GB, profile: str = "1g.10gb",
                 dtype_bytes: int = 1, max_batch_size: int = 1,
                 policy: Optional[SLOPolicy] = None, seed: int = 0,
                 respawn_seconds: float = 5.0,
                 stats: Optional[ResilienceStats] = None):
        if mode not in FLEET_MODES:
            raise ValueError(f"unknown fleet mode {mode!r}; "
                             f"expected one of {FLEET_MODES}")
        if n_partitions < 1 or servers_per_partition < 1:
            raise ValueError("fleet dimensions must be positive")
        self.mode = mode
        self.policy = policy if policy is not None else SLOPolicy()
        self.stats = stats if stats is not None else ResilienceStats()
        # Flat MPS caps every replica to an equal share mirroring the MIG
        # slice width, so the modes differ in *isolation*, not
        # per-replica compute; MIG slices and time slices are whole.
        pct = max(1, round(100 / n_partitions)) if mode == "mps" else 100
        function = FleetFunction("srv", n_partitions * servers_per_partition,
                                 self.policy.deadline_seconds, pct)
        self._build(env, [function], [seed], spec, dtype_bytes,
                    max_batch_size, respawn_seconds, None, mode,
                    n_partitions, profile)
        group = self.groups[function.name]
        self.router = group.router
        self.replicas = group.replicas

    def _function_parts(self, spec: FleetFunction
                        ) -> tuple[SLOPolicy, ResilienceStats, str]:
        return self.policy, self.stats, "srv"

    def _landed(self, group: FunctionGroup, kind: str) -> None:
        """Counted in :meth:`apply_fault`, with every other event."""

    def submit(self, n_tokens: int = 20):
        """Route one request through the fleet (router passthrough)."""
        return self.router.submit(n_tokens)

    def report(self, horizon: float) -> dict:
        return self.stats.report(horizon)

    def apply_fault(self, event) -> str:
        """Apply one fault: :attr:`stats` counts every applied event,
        skipped ones included, and control-plane kinds are no-ops."""
        handler = self._handler_for(event.kind)
        self.stats.record_fault(event.kind)
        if event.kind in _CONTROL_PLANE_KINDS:
            return (f"{event.kind.replace('_', '-')}: "
                    f"no control plane (skipped)")
        return handler(event)
