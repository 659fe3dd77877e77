"""A partitioned serving fleet wired for chaos experiments.

:class:`ServingFleet` builds the canonical fleet of the scale benchmark
— an A100-80GB split seven ways with 16 serving replicas per partition
— in one of three sharing modes, puts a :class:`ResilientRouter` in
front of it, and exposes :meth:`apply_fault`, the dispatch point a
:class:`~repro.faas.chaos.ChaosController` drives.

The three modes give the *same replica count* over the *same silicon*
with different isolation, which is what the blast-radius experiment
measures:

- ``"mig-mps"`` — 7 MIG ``1g.10gb`` instances, an MPS daemon inside
  each (the paper's nested fine-grained configuration).  Each instance
  is a hardware fault domain: an ECC error kills kernels in one slice.
- ``"mps"`` — one flat MPS daemon, every replica capped to an equal SM
  share mirroring the MIG slice.  One fault domain: an ECC error kills
  every resident kernel.
- ``"timeshare"`` — default time-sliced contexts, one fault domain.

Fault targets in a plan are raw integers; :meth:`apply_fault` resolves
them modulo the relevant victim pool (fault domains, replicas, device
groups), so one plan replays against any mode.
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


class ServingFleet:
    """Replicated inference serving over one partitioned GPU.

    The fleet owns the device, the replicas, their router, and the
    fault-application logic; clients talk to :attr:`router` (or the
    fleet's :meth:`submit` passthrough).
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
        if respawn_seconds <= 0:
            raise ValueError("respawn_seconds must be positive")
        self.env = env
        self.mode = mode
        self.n_partitions = n_partitions
        self.servers_per_partition = servers_per_partition
        self.max_batch_size = max_batch_size
        self.respawn_seconds = respawn_seconds
        self.policy = policy if policy is not None else SLOPolicy()
        self.stats = stats if stats is not None else ResilienceStats()
        self.device = SimulatedGPU(env, spec)
        self.llm = LlamaInference(LLAMA2_7B,
                                  InferenceRuntime(dtype_bytes=dtype_bytes))
        #: Per-ECC-fault blast radius: (domain, killed, resident before).
        self.ecc_log: list[tuple[str, int, int]] = []

        self._factories: list = []
        if mode == "mig-mps":
            manager = MigManager(self.device)
            env.run(until=env.process(manager.enable()))
            self.manager = manager
            for _ in range(n_partitions):
                instance = manager.create_instance(profile)
                daemon = instance.enable_mps()
                for _ in range(servers_per_partition):
                    self._factories.append(
                        lambda name, d=daemon: d.client(name))
        elif mode == "mps":
            daemon = MpsControlDaemon(self.device)
            daemon.start()
            self.manager = daemon
            # Equal-share SM caps mirroring the MIG slice width, so the
            # two modes differ in *isolation*, not per-replica compute.
            pct = max(1, round(100 / n_partitions))
            for _ in range(n_partitions * servers_per_partition):
                self._factories.append(
                    lambda name, d=daemon, p=pct:
                    d.client(name, active_thread_percentage=p))
        else:  # timeshare
            self.manager = None
            for _ in range(n_partitions * servers_per_partition):
                self._factories.append(
                    lambda name: self.device.timeshare_client(name))

        self.replicas: list[Replica] = []
        for k, factory in enumerate(self._factories):
            server = self._make_server(k, factory(f"srv{k}"))
            self.replicas.append(Replica(k, server, self.policy))
        self.router = ResilientRouter(env, self.replicas, self.policy,
                                      stats=self.stats, seed=seed)

    def _make_server(self, index: int, client: GpuClient) -> InferenceServer:
        return InferenceServer(
            self.env, client, self.llm,
            max_batch_size=self.max_batch_size,
            keep_completed=False, kernel_cache=True,
            name=f"srv{index}")

    # -- client API ---------------------------------------------------------
    def submit(self, n_tokens: int = 20):
        """Route one request through the fleet (router passthrough)."""
        return self.router.submit(n_tokens)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def report(self, horizon: float) -> dict:
        return self.stats.report(horizon)

    # -- fault application --------------------------------------------------
    def apply_fault(self, event) -> str:
        """Apply one :class:`~repro.faas.chaos.FaultEvent`; describe it."""
        handler = getattr(self, f"_fault_{event.kind}", None)
        if handler is None:
            raise ValueError(f"fleet cannot apply fault kind {event.kind!r}")
        self.stats.record_fault(event.kind)
        return handler(event)

    def _replica_for(self, event) -> Optional[Replica]:
        # Defensive: a fleet with an empty replica pool (all torn down)
        # must skip replica-targeted faults, not crash on `% 0`.
        if not self.replicas:
            return None
        return self.replicas[event.target % len(self.replicas)]

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
        replica = self._replica_for(event)
        if replica is None:
            return "crash: no replicas (skipped)"
        if not replica.alive:
            return f"crash srv{replica.index}: already down"
        replica.server.crash()
        delay = event.duration if event.duration > 0 else \
            self.respawn_seconds
        self.env.schedule_callback(
            delay, lambda: self._respawn(replica))
        return f"crash srv{replica.index}: respawn in {delay:g}s"

    def _respawn(self, replica: Replica) -> None:
        if replica.alive:
            return
        name = f"srv{replica.index}r{replica.incarnations}"
        client = self._factories[replica.index](name)
        replica.replace(self._make_server(replica.index, client))

    def _fault_straggler_replica(self, event) -> str:
        replica = self._replica_for(event)
        if replica is None:
            return "straggler: no replicas (skipped)"
        server = replica.server
        if not server.alive:
            return f"straggler srv{replica.index}: replica down"
        server.slowdown = event.factor

        def restore() -> None:
            # The incarnation that straggled may have crashed meanwhile;
            # its replacement starts at full speed anyway.
            if server.alive:
                server.slowdown = 1.0

        self.env.schedule_callback(event.duration, restore)
        return (f"straggler srv{replica.index}: x{event.factor:g} "
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
        replica = self._replica_for(event)
        if replica is None:
            return "launch-failure: no replicas (skipped)"
        if not replica.alive:
            return f"launch-failure srv{replica.index}: replica down"
        replica.server.fail_next_launches += 1
        return f"launch-failure srv{replica.index}: next launch rejected"

    def _fault_reconfig_stall(self, event) -> str:
        replica = self._replica_for(event)
        if replica is None:
            return "stall: no replicas (skipped)"
        server = replica.server
        if not server.alive:
            return f"stall srv{replica.index}: replica down"
        server.stall_until = max(server.stall_until,
                                 self.env.now + event.duration)
        return f"stall srv{replica.index}: {event.duration:g}s"

    # Control-plane kinds (repro-faultplan/2) target the resize/telemetry
    # machinery of :class:`AutoscaledServingFleet`; the static fleet has
    # neither, so one plan replays against any fleet as a no-op here.
    def _fault_resize_stuck(self, event) -> str:
        return "resize-stuck: no control plane (skipped)"

    def _fault_cache_load_failure(self, event) -> str:
        return "cache-load-failure: no control plane (skipped)"

    def _fault_sensor_dropout(self, event) -> str:
        return "sensor-dropout: no control plane (skipped)"

    def _fault_telemetry_corruption(self, event) -> str:
        return "telemetry-corruption: no control plane (skipped)"


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

    STATES = ("pending", "draining", "restarting", "committed",
              "aborted", "failed")

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
        # Drain watchdog: first of {drain handshake, deadline} decides.
        decided = env.event()
        outcome: list[str] = []

        def settle(what: str) -> None:
            if not outcome:
                outcome.append(what)
                decided.succeed()

        fleet._drain_handshake(self.name, replica,
                               lambda: settle("drained"))
        env.schedule_callback(self.watchdog_seconds,
                              lambda: settle("timeout"))
        yield decided
        if outcome[0] == "timeout":
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
        group.generation += 1
        client = fleet.daemon.client(
            f"{group.name}-r{replica.index}g{group.generation}",
            active_thread_percentage=self.new_pct)
        group.pct_by_replica[replica.index] = self.new_pct
        fleet._set_provisioned(self.name, replica.index, self.new_pct)
        hit = False
        cache = fleet.weight_cache
        if self.name in fleet._cache_corrupt:
            # Injected corruption: the resident bytes are garbage.  Pay
            # the full reload (streaming fresh weights into the standing
            # allocation repairs the entry for subsequent restarts) and
            # never touch the refcount — the cache stays consistent.
            fleet._cache_corrupt.discard(self.name)
            stats.cache_load_failures += 1
            yield env.timeout_pooled(group.model_load_seconds)
        elif cache is not None:
            # Bump-and-release against the standing fleet reference:
            # counts the hit, leaves the refcount unchanged, and stays
            # safe under concurrent resizes of sibling replicas.
            hit = cache.acquire(client, group.model_key, group.model_bytes)
            if hit:
                cache.release(client, group.model_key)
            else:
                yield env.timeout_pooled(group.model_load_seconds)
        else:
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
    the weight cache) is shared fleet-wide.
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
        self.stats = ResilienceStats()
        self.policy = SLOPolicy(deadline_seconds=spec.slo_seconds)
        self.replicas: list[Replica] = []
        for k in range(spec.n_replicas):
            client = fleet.daemon.client(f"{spec.name}-r{k}g0",
                                         active_thread_percentage=spec.initial_pct)
            server = fleet._make_group_server(self, k, client)
            self.replicas.append(Replica(k, server, self.policy))
        self.router = ResilientRouter(fleet.env, self.replicas, self.policy,
                                      stats=self.stats, seed=seed)


class AutoscaledServingFleet:
    """A multi-function MPS serving fleet whose shares can be resized live.

    One flat MPS daemon over one GPU; each function owns a fixed set of
    replicas whose ``active_thread_percentage`` the
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
        self.daemon = MpsControlDaemon(self.device)
        self.daemon.start()
        self.llm = LlamaInference(LLAMA2_7B,
                                  InferenceRuntime(dtype_bytes=dtype_bytes))
        self.weight_cache: Optional[WeightCache] = (
            WeightCache() if weight_cache else None)
        self.groups: dict[str, FunctionGroup] = {}
        #: Injected faults by kind (fleet-wide; per-function counters
        #: live in each group's :class:`ResilienceStats`).
        self.faults: dict[str, int] = {}
        # Provisioned-capacity integral: sum over replicas of their MPS
        # percentage, integrated piecewise over sim time.  The ledger is
        # per-replica (`_provisioned`) so resize transactions, crashes,
        # and respawns can all touch the same replica without double
        # counting — see _set_provisioned.
        self._provisioned: dict[tuple[str, int], int] = {}
        self._alloc_total_pct = 0
        self._alloc_integral = 0.0
        self._alloc_changed_at = env.now
        for i, fn in enumerate(functions):
            group = FunctionGroup(self, fn, seed=seed * 1_000_003 + i)
            self.groups[fn.name] = group
            for k in range(fn.n_replicas):
                self._provisioned[(fn.name, k)] = fn.initial_pct
            self._alloc_total_pct += fn.initial_pct * fn.n_replicas
            if self.weight_cache is not None:
                # The standing fleet-level reference: weights stay
                # resident (refcount >= 1) for the fleet's lifetime, so
                # every resize-restart is a cache hit.
                self.weight_cache.acquire(group.replicas[0].server.client,
                                          group.model_key, group.model_bytes)

    def _make_group_server(self, group: FunctionGroup, index: int,
                           client: GpuClient) -> InferenceServer:
        return InferenceServer(
            self.env, client, self.llm,
            max_batch_size=self.max_batch_size,
            keep_completed=False, kernel_cache=True,
            name=f"{group.name}-r{index}")

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
        carries across the resize.

        Since the control-plane chaos work this is a thin wrapper over
        :class:`ResizeTransaction`: the drain is guarded by a watchdog
        (``watchdog_seconds``), and a drain that never completes aborts
        the resize with a verified rollback instead of wedging the
        control loop.

        A generator: run under ``env.process``.  Returns a dict with the
        replica's downtime and whether the weight cache hit; aborted
        transactions return ``{"aborted": True, "rollback_verified": …}``
        instead, and ``None`` means the replica died mid-resize.
        """
        txn = ResizeTransaction(self, name, replica, new_pct, planner,
                                watchdog_seconds=watchdog_seconds)
        return (yield from txn.run())

    def _drain_handshake(self, name: str, replica: Replica,
                         done: Callable[[], None]) -> None:
        """Call ``done`` once ``replica``'s drain completes *and* any
        injected ``resize_stuck`` hold on it has released.

        A hold with ``until == inf`` never releases — the caller's
        watchdog is then the only way out, which is the point of the
        fault.
        """
        env = self.env
        key = (name, replica.index)

        def release() -> None:
            self._drain_stuck.pop(key, None)
            done()

        def on_drained(_event) -> None:
            until = self._drain_stuck.get(key)
            if until is None or env.now >= until:
                release()
            elif until != math.inf:
                env.schedule_callback(until - env.now, release)
            # inf: held until further notice; never call done().

        replica.server.drain().callbacks.append(on_drained)

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

        The PR-4 data-plane kinds resolve over the flat multi-function
        replica pool; the ``repro-faultplan/2`` control-plane kinds
        mutate the resize/telemetry machinery instead of the replicas.
        """
        handler = getattr(self, f"_fault_{event.kind}", None)
        if handler is None:
            raise ValueError(f"fleet cannot apply fault kind {event.kind!r}")
        self.faults[event.kind] = self.faults.get(event.kind, 0) + 1
        return handler(event)

    def _group_for(self, event) -> FunctionGroup:
        names = list(self.groups)
        return self.groups[names[event.target % len(names)]]

    def _replica_pair_for(self, event) -> Optional[tuple[str, Replica]]:
        pairs = [(name, r) for name, g in self.groups.items()
                 for r in g.replicas]
        if not pairs:
            return None
        return pairs[event.target % len(pairs)]

    def _fault_ecc(self, event) -> str:
        domains = [d for d in fault_domains(self.device)
                   if any(g.clients for g in d.groups)]
        if not domains:
            return "ecc: no populated fault domain"
        domain = domains[event.target % len(domains)]
        resident = len(self.device.pool.tasks)
        killed = kill_domain(self.device, domain)
        return (f"ecc {domain.name}: killed {killed} of "
                f"{resident} resident kernels")

    def _fault_replica_crash(self, event) -> str:
        pair = self._replica_pair_for(event)
        if pair is None:
            return "crash: no replicas (skipped)"
        name, replica = pair
        if not replica.alive:
            return f"crash {name}-r{replica.index}: already down"
        self.groups[name].stats.record_fault(event.kind)
        replica.server.crash()
        self._set_provisioned(name, replica.index, 0)
        delay = event.duration if event.duration > 0 else \
            self.respawn_seconds
        self.env.schedule_callback(
            delay, lambda: self._respawn_group_replica(name, replica))
        return f"crash {name}-r{replica.index}: respawn in {delay:g}s"

    def _respawn_group_replica(self, name: str, replica: Replica) -> None:
        if replica.alive:
            return
        group = self.groups[name]
        pct = group.pct_by_replica[replica.index]
        group.generation += 1
        client = self.daemon.client(
            f"{group.name}-r{replica.index}g{group.generation}",
            active_thread_percentage=pct)
        replica.replace(self._make_group_server(group, replica.index, client))
        self._set_provisioned(name, replica.index, pct)

    def _fault_straggler_replica(self, event) -> str:
        pair = self._replica_pair_for(event)
        if pair is None:
            return "straggler: no replicas (skipped)"
        name, replica = pair
        server = replica.server
        if not server.alive:
            return f"straggler {name}-r{replica.index}: replica down"
        self.groups[name].stats.record_fault(event.kind)
        server.slowdown = event.factor

        def restore() -> None:
            if server.alive:
                server.slowdown = 1.0

        self.env.schedule_callback(event.duration, restore)
        return (f"straggler {name}-r{replica.index}: x{event.factor:g} "
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
        pair = self._replica_pair_for(event)
        if pair is None:
            return "launch-failure: no replicas (skipped)"
        name, replica = pair
        if not replica.alive:
            return f"launch-failure {name}-r{replica.index}: replica down"
        self.groups[name].stats.record_fault(event.kind)
        replica.server.fail_next_launches += 1
        return f"launch-failure {name}-r{replica.index}: next launch rejected"

    def _fault_reconfig_stall(self, event) -> str:
        pair = self._replica_pair_for(event)
        if pair is None:
            return "stall: no replicas (skipped)"
        name, replica = pair
        server = replica.server
        if not server.alive:
            return f"stall {name}-r{replica.index}: replica down"
        self.groups[name].stats.record_fault(event.kind)
        server.stall_until = max(server.stall_until,
                                 self.env.now + event.duration)
        return f"stall {name}-r{replica.index}: {event.duration:g}s"

    # Control-plane kinds (repro-faultplan/2).
    def _fault_resize_stuck(self, event) -> str:
        pair = self._replica_pair_for(event)
        if pair is None:
            return "resize-stuck: no replicas (skipped)"
        name, replica = pair
        self.groups[name].stats.record_fault(event.kind)
        until = (math.inf if event.duration <= 0
                 else self.env.now + event.duration)
        self._drain_stuck[(name, replica.index)] = until
        hold = ("until further notice" if until == math.inf
                else f"for {event.duration:g}s")
        return f"resize-stuck {name}-r{replica.index}: drain held {hold}"

    def _fault_cache_load_failure(self, event) -> str:
        group = self._group_for(event)
        group.stats.record_fault(event.kind)
        self._cache_corrupt.add(group.name)
        return (f"cache-load-failure {group.name}: next resize restart "
                f"reloads from cold")

    def _fault_sensor_dropout(self, event) -> str:
        group = self._group_for(event)
        group.stats.record_fault(event.kind)
        until = (math.inf if event.duration <= 0
                 else self.env.now + event.duration)
        self._sensor_dropout[group.name] = (
            until, group.stats.offered, self.env.now)
        hold = ("until further notice" if until == math.inf
                else f"for {event.duration:g}s")
        return f"sensor-dropout {group.name}: telemetry frozen {hold}"

    def _fault_telemetry_corruption(self, event) -> str:
        group = self._group_for(event)
        group.stats.record_fault(event.kind)
        until = (math.inf if event.duration <= 0
                 else self.env.now + event.duration)
        self._sensor_corrupt[group.name] = (
            until, group.stats.offered, event.factor)
        hold = ("until further notice" if until == math.inf
                else f"for {event.duration:g}s")
        return (f"telemetry-corruption {group.name}: offered inflated "
                f"x{event.factor:g} {hold}")

    # -- reporting ----------------------------------------------------------
    @property
    def n_replicas(self) -> int:
        return sum(len(g.replicas) for g in self.groups.values())

    def report(self, horizon: float) -> dict:
        return {name: group.stats.report(horizon)
                for name, group in self.groups.items()}
