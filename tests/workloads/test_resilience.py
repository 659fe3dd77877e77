"""Tests for the SLO-aware resilient router and the serving fleet."""

import pytest

from repro.gpu import A100_40GB, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    CircuitBreaker,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    Replica,
    ResilientRouter,
    ServedRequest,
    ServingFleet,
    SLOPolicy,
)
from repro.faas.chaos import FaultEvent


def make_router(n_servers=2, seed=1, **policy_kwargs):
    env = Environment()
    gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
    policy = SLOPolicy(**policy_kwargs)
    servers = [InferenceServer(env, daemon.client(f"s{i}"), llm,
                               max_batch_size=1, name=f"s{i}")
               for i in range(n_servers)]
    replicas = [Replica(i, s, policy) for i, s in enumerate(servers)]
    router = ResilientRouter(env, replicas, policy, seed=seed)
    return env, servers, router


# ------------------------------------------------------------ happy path

def test_request_completes_through_router():
    env, _servers, router = make_router()
    request = router.submit(n_tokens=4)
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.latency is not None and request.latency > 0
    assert request.attempts == 1
    stats = router.stats
    assert stats.offered == 1 and stats.completed == 1
    assert stats.slo_ok == 1 and stats.lost == 0


def test_router_balances_by_queue_depth():
    env, servers, router = make_router(n_servers=2)
    for _ in range(4):
        router.submit(n_tokens=4)
    # Synchronous submits alternate over the two empty replicas.
    assert servers[0].queue_depth == 2
    assert servers[1].queue_depth == 2
    env.run()
    assert router.stats.completed == 4


def test_submit_validates_tokens():
    _env, _servers, router = make_router()
    with pytest.raises(ValueError):
        router.submit(n_tokens=0)


# --------------------------------------------------------------- retries

def test_retry_fails_over_to_surviving_replica():
    env, servers, router = make_router(n_servers=2, backoff_base=0.01)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    victim = servers[request.tried[0]]
    victim.crash()
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.attempts == 2
    assert len(set(request.tried)) == 2  # second attempt went elsewhere
    assert router.stats.retries == 1
    assert router.stats.attempt_failures == 1
    assert router.stats.lost == 0


def test_crash_failover_is_exactly_once():
    env, servers, router = make_router(n_servers=2, backoff_base=0.01)
    requests = [router.submit(n_tokens=50) for _ in range(10)]
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    stats = router.stats
    assert stats.completed == 10
    assert stats.lost == 0
    # Everything that was queued or running on srv0 retried exactly once.
    assert stats.retries == stats.attempt_failures > 0


def test_max_attempts_exhaustion_fails_request():
    env, servers, router = make_router(n_servers=1, max_attempts=1)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run()
    assert request.outcome == "failed"
    assert router.stats.failed == 1
    assert router.stats.retries == 0
    assert router.stats.lost == 0


def test_retry_budget_gates_retries():
    env, servers, router = make_router(
        n_servers=2, retry_budget_initial=0.0, retry_budget_rate=0.0)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[request.tried[0]].crash()
    env.run()
    assert request.outcome == "failed"  # no budget, no retry
    assert router.stats.retries == 0


def test_done_event_always_succeeds():
    """Clients await ``done`` without special-casing failures — the
    outcome field carries the verdict."""
    env, servers, router = make_router(n_servers=1, max_attempts=1)
    request = router.submit(n_tokens=200)
    env.run(until=env.now + 0.05)
    servers[0].crash()
    env.run(until=request.done)  # would raise if done failed
    assert request.done.ok
    assert request.outcome == "failed"


# ------------------------------------------------------ admission control

def test_infeasible_deadline_is_shed():
    env, _servers, router = make_router(deadline_seconds=0.5)
    router._est_prior = 10.0  # pretend service takes 10s
    request = router.submit(n_tokens=4)
    assert request.outcome == "shed"
    assert request.done.triggered
    assert router.stats.shed == 1
    assert router.stats.lost == 0


def test_admission_control_can_be_disabled():
    env, _servers, router = make_router(deadline_seconds=0.5,
                                        admission_control=False)
    router._est_prior = 10.0
    request = router.submit(n_tokens=400)
    assert request.outcome == "pending"
    env.run()
    assert request.outcome == "ok"  # late, but served
    assert request.latency > 0.5
    assert router.stats.slo_ok == 0  # missed the SLO


# ---------------------------------------------------------------- hedging

def test_hedge_rescues_straggling_replica():
    env, servers, router = make_router(
        n_servers=2, hedge_quantile=0.5, hedge_min_samples=5,
        hedge_max_fraction=1.0)
    # Seed the latency quantile with normal completions.
    warm = [router.submit(n_tokens=4) for _ in range(8)]
    env.run()
    assert router._hedge_q.count >= 5
    # Straggle one replica hard; a request landing there hedges away.
    servers[0].slowdown = 500.0
    servers[1].slowdown = 500.0
    request = router.submit(n_tokens=4)
    straggler = servers[request.tried[0]]
    other = servers[1 - request.tried[0]]
    other.slowdown = 1.0
    env.run(until=request.done)
    assert request.outcome == "ok"
    assert request.hedged
    assert router.stats.hedges == 1
    assert router.stats.hedge_wins == 1
    # The straggler's attempt eventually lands as wasted work.
    env.run()
    assert all(r.outcome == "ok" for r in warm)


def test_hedge_rate_cap_is_enforced():
    env, servers, router = make_router(
        n_servers=2, hedge_quantile=0.5, hedge_min_samples=5,
        hedge_max_fraction=0.1)
    for _ in range(8):
        router.submit(n_tokens=4)
    env.run()
    for s in servers:
        s.slowdown = 500.0
    requests = [router.submit(n_tokens=4) for _ in range(10)]
    for s in servers:
        s.slowdown = 400.0  # keep straggling; hedges would fire freely
    env.run()
    assert all(r.outcome in ("ok", "failed") for r in requests)
    assert router.stats.hedges <= 0.1 * router.stats.offered + 1


# -------------------------------------------------------- circuit breaker

def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker(threshold=2, cooldown=10.0)
    assert breaker.available(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(1.0)  # second failure opens it
    assert breaker.opens == 1
    assert not breaker.available(5.0)
    assert breaker.available(11.0)  # half-open after cooldown
    # One failure in half-open re-opens immediately (counter saturated).
    assert breaker.record_failure(12.0)
    assert breaker.opens == 2
    assert not breaker.available(13.0)
    breaker.record_success()
    assert breaker.consecutive_failures == 0


def test_breaker_steers_traffic_away_from_sick_replica():
    env, servers, router = make_router(
        n_servers=2, breaker_failures=2, breaker_cooldown_seconds=30.0,
        backoff_base=0.001, backoff_jitter=0.0)
    sick = servers[0]
    sick.fail_next_launches = 10**6  # every launch on srv0 fails
    requests = [router.submit(n_tokens=4) for _ in range(12)]
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert router.stats.breaker_opens >= 1
    # Once open, new requests go straight to the healthy replica.
    assert not router.replicas[0].breaker.available(env.now)
    request = router.submit(n_tokens=4)
    assert request.tried[0] == 1
    env.run()


# ----------------------------------------------- stalled-replica placement

def test_router_steers_away_from_stalled_replica():
    """Regression: a stalled replica admits no batches, so sending
    first attempts there just queues them behind the stall window."""
    env, servers, router = make_router(n_servers=2)
    servers[0].stall_until = env.now + 10.0
    assert router.replicas[0].stalled
    requests = [router.submit(n_tokens=4) for _ in range(3)]
    assert all(r.tried[0] == 1 for r in requests)
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    env.run(until=servers[0].stall_until)
    assert not router.replicas[0].stalled  # window expired with time


def test_router_steers_away_from_draining_replica():
    env, servers, router = make_router(n_servers=2)
    servers[0].pause()
    assert router.replicas[0].stalled
    request = router.submit(n_tokens=4)
    assert request.tried[0] == 1
    servers[0].resume()
    assert not router.replicas[0].stalled
    env.run()
    assert request.outcome == "ok"


def test_stalled_replica_is_last_resort_not_a_failure():
    env, servers, router = make_router(n_servers=2)
    servers[0].stall_until = env.now + 0.5
    servers[1].crash()
    env.run(until=env.now + 0.001)  # let the crash interrupt propagate
    request = router.submit(n_tokens=4)
    # Queueing behind the stall beats failing the request outright.
    assert request.tried[0] == 0
    env.run()
    assert request.outcome == "ok"


def test_admission_control_ignores_stalled_queue_depths():
    """A stalled replica's empty queue must not fool the feasibility
    projection — its queue cannot move until the stall ends."""
    env, servers, router = make_router(n_servers=2, deadline_seconds=0.5)
    servers[0].stall_until = env.now + 100.0
    for _ in range(3):
        router.submit(n_tokens=4)  # no estimate yet: admitted freely
    assert servers[1].queue_depth == 3  # all steered to the live one
    router._est_prior = 0.4
    request = router.submit(n_tokens=4)
    assert request.outcome == "shed"
    assert router.stats.shed == 1


def test_reconfig_stall_fault_steers_first_attempts():
    """The satellite-2 regression, end to end: a ``reconfig_stall``
    fault deprioritises the victim for fresh placements."""
    env = Environment()
    fleet = small_fleet(env)
    fleet.apply_fault(FaultEvent(time=0.0, kind="reconfig_stall",
                                 target=0, duration=5.0))
    assert fleet.replicas[0].stalled
    requests = [fleet.submit(n_tokens=4) for _ in range(6)]
    assert all(r.tried[0] != 0 for r in requests)
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert fleet.stats.lost == 0


# ------------------------------------------------------- routing index

def settle(env):
    """Let started servers pick up queued work (no kernel finishes)."""
    env.run(until=env.now + 1e-6)


def load(server, n):
    """Queue ``n`` long requests directly on ``server``: depth ``n`` once
    settled (batch size 1, so one runs and the rest wait)."""
    for _ in range(n):
        server.submit(n_tokens=200)


def pick(router, tried=()):
    env = router.env
    request = ServedRequest(n_tokens=4, arrival_time=env.now,
                            deadline=env.now + 60.0, done=env.event())
    request.tried.extend(tried)
    return router._pick(request).index


def trip(replica, now):
    for _ in range(replica.breaker.threshold):
        replica.breaker.record_failure(now)


def test_router_rejects_duplicate_replica_indices():
    env, servers, router = make_router(n_servers=2)
    replicas = [Replica(0, server, router.policy) for server in servers]
    with pytest.raises(ValueError, match="duplicate replica indices"):
        ResilientRouter(env, replicas, router.policy)


def test_replica_cannot_join_two_routers():
    env, _servers, router = make_router(n_servers=2)
    with pytest.raises(ValueError, match="already routed"):
        ResilientRouter(env, router.replicas, router.policy)


def test_every_breaker_open_picks_least_loaded_alive_replica():
    env, servers, router = make_router(n_servers=4)
    settle(env)
    servers[0].crash()                        # depth 0, but dead
    servers[1].stall_until = env.now + 100.0  # depth 0, stalled
    load(servers[2], 1)
    load(servers[3], 2)
    settle(env)
    assert [r.depth for r in router.replicas] == [0, 0, 1, 2]
    for replica in router.replicas:
        trip(replica, env.now)
    # Every breaker open: breakers and stalls are ignored, death is not.
    assert pick(router) == 1
    router.replicas[3].breaker.open_until = env.now  # cooldown elapsed
    # One breaker available: a ready replica beats every open one.
    assert pick(router) == 3
    servers[3].stall_until = env.now + 100.0
    # Both candidates now stalled: the open-breaker stalled replica is
    # eligible only when every breaker is open, so the deeper one wins.
    assert pick(router) == 3


def test_respawned_replica_reenters_routing_at_its_new_depth():
    env = Environment()
    fleet = small_fleet(env, mode="mps")
    router = fleet.router
    settle(env)
    for replica in fleet.replicas[1:]:
        load(replica.server, 1)
    dead = fleet.replicas[0]
    dead.server.crash()
    settle(env)
    assert not dead.alive
    assert pick(router) == 1  # the dead replica's depth 0 does not count
    fleet._respawn(dead)
    assert dead.alive and dead.incarnations == 2
    assert pick(router) == 0  # back, at the new server's depth 0
    load(dead.server, 2)
    settle(env)
    assert dead.depth == 2
    assert pick(router) == 1  # the new server reports its depth too


def test_equal_depths_break_ties_toward_lowest_untried_index():
    env, servers, router = make_router(n_servers=4)
    settle(env)
    for server in servers:
        load(server, 1)
    settle(env)
    assert pick(router) == 0
    assert pick(router, tried=[1, 0]) == 2
    assert pick(router, tried=[2]) == 0
    assert pick(router, tried=[0, 1, 2, 3]) == 0  # all tried: least loaded
    load(servers[0], 1)
    settle(env)
    assert pick(router, tried=[1]) == 2


def test_hedge_lands_on_untried_ready_replica():
    env, servers, router = make_router(n_servers=4, hedge_max_fraction=1.0)
    settle(env)
    request = router.submit(n_tokens=200)
    assert request.tried == [0]
    settle(env)
    servers[1].stall_until = env.now + 100.0  # depth 0, stalled
    trip(router.replicas[2], env.now)         # depth 0, breaker open
    load(servers[3], 2)
    settle(env)
    # The first attempt's replica (depth 1, tried) is the least loaded
    # ready one; the hedge must still go to the untried replica 3.
    router._fire_hedge(request)
    assert request.hedged
    assert request.tried == [0, 3]
    assert router.stats.hedges == 1


# ------------------------------------------------------------ fleet faults

def small_fleet(env, mode="mig-mps", **kwargs):
    return ServingFleet(env, mode=mode, n_partitions=2,
                        servers_per_partition=2, **kwargs)


def test_fleet_validates_mode():
    with pytest.raises(ValueError):
        ServingFleet(Environment(), mode="bare-metal")


def test_fleet_replica_crash_and_respawn():
    env = Environment()
    fleet = small_fleet(env)
    dead = fleet.replicas[1]
    description = fleet.apply_fault(
        FaultEvent(time=0.0, kind="replica_crash", target=1, duration=2.0))
    assert "srv1" in description
    env.run(until=env.now + 0.001)  # let the crash interrupt propagate
    assert not dead.alive
    env.run(until=env.now + 3.0)
    assert dead.alive  # respawned
    assert dead.incarnations == 2
    request = fleet.submit(n_tokens=4)
    env.run()
    assert request.outcome == "ok"


def test_fleet_straggler_replica_restores():
    env = Environment()
    fleet = small_fleet(env)
    fleet.apply_fault(FaultEvent(time=0.0, kind="straggler_replica",
                                 target=0, duration=5.0, factor=4.0))
    assert fleet.replicas[0].server.slowdown == 4.0
    env.run(until=env.now + 6.0)
    assert fleet.replicas[0].server.slowdown == 1.0


def test_fleet_straggler_device_restores_overhead():
    env = Environment()
    fleet = small_fleet(env)
    groups = [g for g in fleet.device.groups if g.clients]
    before = [g.overhead_factor for g in groups]
    fleet.apply_fault(FaultEvent(time=0.0, kind="straggler_device",
                                 target=0, duration=5.0, factor=2.0))
    assert any(g.overhead_factor != b for g, b in zip(groups, before))
    env.run(until=env.now + 6.0)
    assert [g.overhead_factor for g in groups] == before


@pytest.mark.parametrize("mode", ["mps", "mig-mps"])
def test_fleet_straggler_device_under_load_is_cross_checked(monkeypatch,
                                                           mode):
    """A device straggler changes a group's overhead factor while its
    kernels are resident, and its restore changes it back; under the
    allocator cross-check every allocation after either poke must see
    the new factor (the pass re-derives capacity only in a full round,
    and a stale overhead raises ``AllocatorMismatch``)."""
    monkeypatch.setenv("REPRO_ALLOC_CHECK", "1")
    env = Environment()
    fleet = small_fleet(env, mode=mode)
    assert fleet.device.cross_check
    requests = [fleet.submit(n_tokens=16) for _ in range(8)]
    env.run(until=env.now + 0.05)
    resident = len(fleet.device.pool)
    fleet.apply_fault(FaultEvent(time=env.now, kind="straggler_device",
                                 target=0, duration=0.2, factor=2.0))
    env.run()
    assert resident >= 2
    assert all(r.outcome == "ok" for r in requests)


def test_fleet_stall_and_launch_failure_descriptions():
    env = Environment()
    fleet = small_fleet(env)
    d1 = fleet.apply_fault(FaultEvent(time=0.0, kind="reconfig_stall",
                                      target=2, duration=3.0))
    assert "stall srv2" in d1
    d2 = fleet.apply_fault(FaultEvent(time=0.0, kind="launch_failure",
                                      target=3))
    assert "srv3" in d2
    assert fleet.replicas[3].server.fail_next_launches == 1
    request = fleet.submit(n_tokens=4)
    env.run()
    assert request.outcome == "ok"
    assert fleet.stats.faults == {"reconfig_stall": 1, "launch_failure": 1}


def test_fleet_ecc_confined_to_mig_instance():
    env = Environment()
    fleet = small_fleet(env, mode="mig-mps")
    requests = [fleet.submit(n_tokens=100) for _ in range(4)]
    env.run(until=env.now + 0.1)  # let kernels become resident
    resident_before = len(fleet.device.pool.tasks)
    assert resident_before > 0
    fleet.apply_fault(FaultEvent(time=0.0, kind="ecc", target=0))
    _domain, killed, resident = fleet.ecc_log[0]
    assert resident == resident_before
    assert 0 < killed < resident  # confined: not the whole device
    env.run()
    assert all(r.outcome == "ok" for r in requests)  # retried to success
    assert fleet.stats.lost == 0


def test_fleet_ecc_kills_everything_under_flat_mps():
    env = Environment()
    fleet = small_fleet(env, mode="mps")
    requests = [fleet.submit(n_tokens=100) for _ in range(4)]
    env.run(until=env.now + 0.1)
    fleet.apply_fault(FaultEvent(time=0.0, kind="ecc", target=0))
    _domain, killed, resident = fleet.ecc_log[0]
    assert resident > 0 and killed == resident  # whole shared context
    env.run()
    assert all(r.outcome == "ok" for r in requests)
    assert fleet.stats.lost == 0
