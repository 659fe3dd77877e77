"""SLO-aware fault-tolerant routing over a fleet of inference replicas.

The serving plane of :mod:`repro.workloads.serving` runs one queue per
replica and loses everything in it when the replica dies.  This module
adds the production layer on top: a :class:`ResilientRouter` that owns
the fleet-wide request lifecycle and guarantees every submitted request
terminates *exactly once* — completed, shed, or failed — whatever the
chaos schedule does underneath.  The mechanisms are the standard SRE
toolkit:

- **deadlines**: every request carries an absolute SLO deadline;
- **retries** with exponential backoff + seeded jitter, capped by a
  token-bucket *retry budget* (a failing fleet must not DDoS itself);
- **hedging**: once enough attempt latencies are observed, a duplicate
  attempt fires after a streaming-quantile (P²) delay — the classic
  tail-tolerant trick — bounded by a hedge-rate cap;
- **circuit breakers**: consecutive attempt failures open a per-replica
  breaker for a cooldown, steering traffic away from a sick replica;
- **failover routing**: attempts go to the least-loaded available
  replica not already tried by the request; replicas whose admission is
  stalled (a reconfiguration drain or chaos ``stall_until`` window) are
  used only as a last resort.  Picks walk a replica index kept sorted by
  ``(queue depth, replica index)``, so a pick visits the few replicas
  ahead of its answer instead of scanning the fleet;
- **admission control**: requests whose deadline is provably
  infeasible given current queue depths are shed at the door instead
  of queueing to death.

The router is callback-driven — no per-request process, no retained
per-request state after termination — so it composes with streaming
mode's bounded-memory contract, and every decision consumes either no
randomness or draws from the router's own seeded generator, so runs
are bit-deterministic under a fixed seed.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.sim.core import Environment, Event
from repro.telemetry.resilience import ResilienceStats
from repro.telemetry.streaming import P2Quantile
from repro.workloads.serving import InferenceServer

__all__ = ["CircuitBreaker", "Replica", "ResilientRouter", "SLOPolicy",
           "ServedRequest"]

_served_ids = itertools.count()


@dataclass(frozen=True)
class SLOPolicy:
    """The knobs of the serving-plane fault tolerance."""

    #: Per-request latency SLO (absolute deadline = arrival + this).
    deadline_seconds: float = 60.0
    #: Total dispatches a request may consume (first try included).
    max_attempts: int = 3
    #: Exponential backoff: ``min(cap, base * 2**(attempt-1))`` seconds.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Jitter fraction: the backoff is stretched by ``U[0, jitter]``.
    backoff_jitter: float = 0.5
    #: Retry budget token bucket: each completion earns ``rate`` tokens
    #: (capped); each retry spends one.  Exhausted budget = no retries.
    retry_budget_rate: float = 0.2
    retry_budget_initial: float = 20.0
    retry_budget_cap: float = 200.0
    #: Hedge a request once its first attempt outlives this quantile of
    #: observed attempt latencies (needs ``hedge_min_samples`` first).
    #: ``None`` disables hedging.
    hedge_quantile: Optional[float] = 0.95
    hedge_min_samples: int = 64
    #: At most this fraction of offered requests may hedge.
    hedge_max_fraction: float = 0.05
    #: Shed requests whose deadline is infeasible at admission time.
    admission_control: bool = True
    #: Consecutive attempt failures that open a replica's breaker, and
    #: how long it stays open.
    breaker_failures: int = 3
    breaker_cooldown_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if self.retry_budget_rate < 0 or self.retry_budget_initial < 0 \
                or self.retry_budget_cap < 0:
            raise ValueError("retry budget parameters must be non-negative")
        if self.hedge_quantile is not None \
                and not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in (0, 1) or None")
        if self.hedge_min_samples < 5:
            raise ValueError("hedge_min_samples must be at least 5")
        if not 0.0 <= self.hedge_max_fraction <= 1.0:
            raise ValueError("hedge_max_fraction must be in [0, 1]")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be at least 1")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be non-negative")


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown half-open phase.

    ``threshold`` consecutive failures open the breaker until
    ``now + cooldown``.  After the cooldown the breaker is *half-open*:
    traffic may probe the replica, one more failure re-opens it
    immediately (the consecutive counter is still saturated), and one
    success closes it fully.
    """

    __slots__ = ("threshold", "cooldown", "consecutive_failures",
                 "open_until", "opens")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.opens = 0

    def available(self, now: float) -> bool:
        return now >= self.open_until

    def state(self, now: float) -> str:
        """``"open"`` (cooling down), ``"half-open"`` (cooldown elapsed
        with the failure counter still saturated), or ``"closed"``."""
        if not self.available(now):
            return "open"
        if self.consecutive_failures >= self.threshold:
            return "half-open"
        return "closed"

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> bool:
        """Record a failure; True when this newly opened the breaker."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            was_open = not self.available(now)
            self.open_until = now + self.cooldown
            if not was_open:
                self.opens += 1
                return True
        return False


class Replica:
    """One routing slot: a server that may crash and be replaced.

    The :class:`Replica` object is the *stable identity* the router
    holds; ``server`` is swapped when the fleet respawns a crashed
    replica, while the breaker and counters carry across incarnations.
    """

    __slots__ = ("index", "server", "breaker", "outstanding",
                 "incarnations", "_mark", "_key")

    def __init__(self, index: int, server: InferenceServer,
                 policy: SLOPolicy):
        self.index = index
        self.server = server
        self.breaker = CircuitBreaker(policy.breaker_failures,
                                      policy.breaker_cooldown_seconds)
        #: Router-dispatched attempts currently in flight here.
        self.outstanding = 0
        self.incarnations = 1
        #: Routing hook (adds this replica to its router's dirty set) and
        #: this replica's entry in the router's index (None: not in it).
        self._mark: Optional[Callable[[], None]] = None
        self._key: Optional[tuple] = None

    @property
    def alive(self) -> bool:
        return self.server is not None and self.server.alive

    @property
    def stalled(self) -> bool:
        """Alive but admitting no batches (reconfig drain or stall)."""
        return self.alive and self.server.stalled

    @property
    def depth(self) -> int:
        return self.server.queue_depth if self.alive else 0

    def replace(self, server: InferenceServer) -> None:
        """Install a respawned server (the old one has crashed)."""
        self.server = server
        self.incarnations += 1
        if self._mark is not None:
            server._on_change = self._mark
            self._mark()

    def _watch(self, dirty: set) -> None:
        """Report every depth/liveness change of this replica's servers
        by adding it to ``dirty`` (one router's re-key set)."""
        if self._mark is not None:
            raise ValueError(f"replica {self.index} is already routed")
        self._mark = partial(dirty.add, self)
        if self.server is not None:
            self.server._on_change = self._mark


@dataclass(slots=True)
class ServedRequest:
    """One request's fleet-level lifecycle.

    ``done`` always *succeeds* (with this object) on any terminal
    outcome — ``outcome`` distinguishes ``"ok"``/``"shed"``/
    ``"failed"`` — so open-loop clients can await completion without
    special-casing failure.
    """

    n_tokens: int
    arrival_time: float
    deadline: float
    done: Event
    rid: int = field(default_factory=lambda: next(_served_ids))
    outcome: str = "pending"
    finish_time: Optional[float] = None
    #: Dispatches consumed so far.
    attempts: int = 0
    #: Attempts currently in flight (hedges make this 2).
    in_flight: int = 0
    #: Replica indexes already tried (failover avoids them).
    tried: list = field(default_factory=list)
    hedged: bool = False

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time


class ResilientRouter:
    """Routes requests across replicas with retries, hedging, and shed.

    Duck-type compatible with :class:`InferenceServer` from a client's
    point of view (``submit(n_tokens)`` returning an object with a
    ``done`` event), so :class:`~repro.workloads.serving.OpenLoopClient`
    drives it unmodified.

    ``est_service_seconds`` seeds the admission-control service-time
    estimate; once attempts complete, a running mean of observed
    attempt latencies takes over.

    Routing index: ``_order`` holds one ``(queue depth, index, replica)``
    entry per alive replica, sorted, so the least-loaded replica of any
    eligible subset is the first of its entries in order.  Servers report
    every depth or liveness change through their routing hook, which
    adds the replica to ``_dirty``; each pick or admission check first
    re-keys just those replicas.  Breakers and stalls are not indexed
    (cooldowns and stall windows expire with the clock): they are
    evaluated on the entries a walk actually visits.  Replica indexes
    must be distinct — they break depth ties, so the order is total.
    """

    def __init__(self, env: Environment, replicas: list[Replica],
                 policy: Optional[SLOPolicy] = None,
                 stats: Optional[ResilienceStats] = None,
                 seed: int = 0,
                 est_service_seconds: Optional[float] = None,
                 on_resolve: Optional[
                     Callable[[ServedRequest], None]] = None):
        if not replicas:
            raise ValueError("a router needs at least one replica")
        indices = [replica.index for replica in replicas]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate replica indices in {indices}")
        self.env = env
        self.replicas = replicas
        self.policy = policy if policy is not None else SLOPolicy()
        self.stats = stats if stats is not None else ResilienceStats()
        self.on_resolve = on_resolve
        #: Jitter-only generator: the single source of randomness.
        self.rng = np.random.default_rng(seed)
        self._budget = self.policy.retry_budget_initial
        self._hedge_q = (P2Quantile(self.policy.hedge_quantile)
                         if self.policy.hedge_quantile is not None else None)
        self._est_prior = est_service_seconds
        self._lat_sum = 0.0
        self._lat_count = 0
        self._order: list[tuple] = []
        self._dirty: set[Replica] = set(replicas)
        for replica in replicas:
            replica._watch(self._dirty)

    # -- client API ---------------------------------------------------------
    def submit(self, n_tokens: int = 20) -> ServedRequest:
        """Admit (or shed) a request; ``done`` fires on termination."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        env = self.env
        request = ServedRequest(
            n_tokens=n_tokens,
            arrival_time=env.now,
            deadline=env.now + self.policy.deadline_seconds,
            done=env.event(),
        )
        self.stats.offered += 1
        if self.policy.admission_control and self._infeasible(request):
            self._resolve(request, "shed")
            return request
        replica = self._pick(request)
        if replica is None:
            self._resolve(request, "failed")
            return request
        self._dispatch(request, replica)
        self._arm_hedge(request)
        return request

    @property
    def retry_budget(self) -> float:
        return self._budget

    # -- admission control --------------------------------------------------
    def _service_estimate(self) -> Optional[float]:
        if self._lat_count > 0:
            return self._lat_sum / self._lat_count
        return self._est_prior

    def _infeasible(self, request: ServedRequest) -> bool:
        est = self._service_estimate()
        if est is None:
            return False  # nothing observed yet: admit optimistically
        if self._dirty:
            self._rekey()
        now = self.env.now
        for depth, _index, replica in self._order:
            if replica.breaker.available(now) and not replica.server.stalled:
                # The request runs behind the least loaded ready queue,
                # each request costing ~est seconds end to end at batch
                # size 1.
                return now + est * (depth + 1) > request.deadline
        return False  # nobody available: let dispatch decide

    # -- routing ------------------------------------------------------------
    def _rekey(self) -> None:
        """Move every dirty replica to its current place in ``_order``."""
        order = self._order
        for replica in self._dirty:
            old = replica._key
            new = ((replica.server.queue_depth, replica.index, replica)
                   if replica.alive else None)
            if new != old:
                if old is not None:
                    del order[bisect_left(order, old)]
                if new is not None:
                    insort(order, new)
                replica._key = new
        self._dirty.clear()

    def _pick(self, request: ServedRequest) -> Optional[Replica]:
        if self._dirty:
            self._rekey()
        order = self._order
        if not order:
            return None  # everyone dead
        now = self.env.now
        tried = request.tried
        fallback = None
        stalled = None
        # Walk in (depth, index) order: the first match of each class is
        # that class's least-loaded replica.
        for _depth, index, replica in order:
            if not replica.breaker.available(now):
                continue
            if replica.server.stalled:
                # Deprioritise: a stalled replica admits no batches, so
                # attempts (and especially hedges) sent there just queue
                # behind the reconfiguration and blow the deadline.
                if stalled is None:
                    stalled = replica
                continue
            # Prefer a replica the request has not visited (failover);
            # with every candidate already tried, reuse the least loaded.
            if index not in tried:
                return replica
            if fallback is None:
                fallback = replica
        if fallback is not None:
            return fallback
        if stalled is not None:
            # Everyone admitting work is dead or tried: queueing behind
            # a stall still beats failing the request outright.
            return stalled
        # Every breaker open: ignore breakers rather than failing
        # outright — a sick replica beats none.
        return order[0][2]

    def _dispatch(self, request: ServedRequest, replica: Replica,
                  is_hedge: bool = False) -> None:
        env = self.env
        request.attempts += 1
        request.in_flight += 1
        request.tried.append(replica.index)
        self.stats.attempts += 1
        replica.outstanding += 1
        started = env.now
        try:
            attempt = replica.server.submit(request.n_tokens)
        except RuntimeError as exc:
            # The replica crashed between pick and submit.
            self._attempt_finished(None, request, replica, started,
                                   is_hedge, exc)
            return
        done = attempt.done
        # The router takes responsibility for attempt failures here —
        # pre-defused so a failed kernel never escalates to the kernel
        # loop even when the callback resolves the request first.
        done._defused = True
        done.callbacks.append(
            lambda ev, req=request, rep=replica, t0=started, h=is_hedge:
            self._attempt_finished(ev, req, rep, t0, h,
                                   None if ev.ok else ev.value))

    # -- attempt completion -------------------------------------------------
    def _attempt_finished(self, ev: Optional[Event],
                          request: ServedRequest, replica: Replica,
                          started: float, is_hedge: bool,
                          error: Optional[BaseException]) -> None:
        env = self.env
        replica.outstanding -= 1
        request.in_flight -= 1
        if error is None:
            elapsed = env.now - started
            replica.breaker.record_success()
            if self._hedge_q is not None:
                self._hedge_q.add(elapsed)
            self._lat_sum += elapsed
            self._lat_count += 1
            self._budget = min(self.policy.retry_budget_cap,
                               self._budget + self.policy.retry_budget_rate)
            if request.outcome != "pending":
                self.stats.wasted_attempts += 1
                return
            if is_hedge:
                self.stats.hedge_wins += 1
            request.finish_time = env.now
            in_slo = env.now <= request.deadline
            self.stats.record_completion(env.now - request.arrival_time,
                                         in_slo)
            self._resolve(request, "ok")
            return
        self.stats.attempt_failures += 1
        if replica.breaker.record_failure(env.now):
            self.stats.breaker_opens += 1
        if request.outcome != "pending":
            self.stats.wasted_attempts += 1
            return
        if request.in_flight > 0:
            return  # a hedge twin is still running; let it decide
        self._retry_or_fail(request)

    def _retry_or_fail(self, request: ServedRequest) -> None:
        env = self.env
        policy = self.policy
        if request.attempts >= policy.max_attempts:
            self._resolve(request, "failed")
            return
        if self._budget < 1.0:
            self._resolve(request, "failed")
            return
        backoff = min(policy.backoff_cap,
                      policy.backoff_base * 2.0 ** (request.attempts - 1))
        if policy.backoff_jitter > 0:
            backoff *= 1.0 + policy.backoff_jitter * float(self.rng.random())
        if env.now + backoff > request.deadline:
            # Deadline-infeasible retry: spend nothing, fail now.
            self._resolve(request, "failed")
            return
        self._budget -= 1.0
        self.stats.retries += 1
        env.schedule_callback(backoff,
                              lambda: self._redispatch(request))

    def _redispatch(self, request: ServedRequest) -> None:
        if request.outcome != "pending":
            return
        if self.env.now > request.deadline:
            self._resolve(request, "failed")
            return
        replica = self._pick(request)
        if replica is None:
            self._resolve(request, "failed")
            return
        self._dispatch(request, replica)

    # -- hedging ------------------------------------------------------------
    def _arm_hedge(self, request: ServedRequest) -> None:
        policy = self.policy
        q = self._hedge_q
        if q is None or q.count < policy.hedge_min_samples:
            return
        if self.stats.hedges >= policy.hedge_max_fraction * \
                self.stats.offered:
            return
        delay = q.value
        if self.env.now + delay > request.deadline:
            return
        self.env.schedule_callback(delay,
                                   lambda: self._fire_hedge(request))

    def _fire_hedge(self, request: ServedRequest) -> None:
        if request.outcome != "pending" or request.hedged:
            return
        if request.in_flight == 0:
            return  # between attempts: the retry path owns it
        # Re-check the rate cap: many timers may have been armed while
        # the hedge counter was still low.
        if self.stats.hedges >= self.policy.hedge_max_fraction * \
                self.stats.offered:
            return
        replica = self._pick(request)
        if replica is None:
            return
        request.hedged = True
        self.stats.hedges += 1
        self._dispatch(request, replica, is_hedge=True)

    # -- termination --------------------------------------------------------
    def _resolve(self, request: ServedRequest, outcome: str) -> None:
        request.outcome = outcome
        if outcome == "shed":
            self.stats.shed += 1
        elif outcome == "failed":
            self.stats.failed += 1
        if self.on_resolve is not None:
            self.on_resolve(request)
        request.done.succeed(request)
