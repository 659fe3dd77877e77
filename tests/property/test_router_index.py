"""Property tests: the router's replica index agrees with a linear scan.

:class:`ResilientRouter` keeps its alive replicas in a list sorted by
``(queue depth, replica index)`` and re-keys only the replicas whose
servers reported a change, evaluating breaker cooldowns and stall
windows lazily on the entries it walks.  The reference below is the
plain O(R) scan over every replica that the index replaced.  Random
histories — submits, completions, crashes and respawns, stall windows,
pauses, breaker trips, launch failures, hedges, clock advances and
single event steps —
drive a router whose ``_pick`` and ``_infeasible`` are wrapped so that
*every* call, including those made by retries and hedges inside the
event loop, is compared against the scan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import canonical_fault_plan
from repro.bench.resilience_experiments import build_resilient_fleet
from repro.gpu import A100_40GB, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    Replica,
    ResilientRouter,
    ServedRequest,
    SLOPolicy,
)


# -- the reference: linear scans over every replica ---------------------------

def scan_pick(router, request):
    now = router.env.now
    tried = set(request.tried)
    fresh = fallback = stalled = None
    for replica in router.replicas:
        if not replica.alive or not replica.breaker.available(now):
            continue
        key = (replica.depth, replica.index)
        if replica.stalled:
            if stalled is None or key < stalled[0]:
                stalled = (key, replica)
            continue
        if replica.index not in tried:
            if fresh is None or key < fresh[0]:
                fresh = (key, replica)
        if fallback is None or key < fallback[0]:
            fallback = (key, replica)
    for best in (fresh, fallback, stalled):
        if best is not None:
            return best[1]
    alive = [((r.depth, r.index), r) for r in router.replicas if r.alive]
    return min(alive, key=lambda pair: pair[0])[1] if alive else None


def scan_infeasible(router, request):
    est = router._service_estimate()
    if est is None:
        return False
    now = router.env.now
    depths = [r.depth for r in router.replicas
              if r.alive and r.breaker.available(now) and not r.stalled]
    if not depths:
        return False
    return now + est * (min(depths) + 1) > request.deadline


def check_against_scan(router):
    """Wrap ``router``'s pick and admission check with the reference;
    returns the per-method call counters."""
    counts = {"pick": 0, "infeasible": 0}
    pick, infeasible = router._pick, router._infeasible

    def checked_pick(request):
        expected = scan_pick(router, request)
        got = pick(request)
        assert got is expected, (request.tried, got, expected)
        # After a pick the index mirrors every alive replica exactly.
        assert [(d, i) for d, i, _r in router._order] == sorted(
            (r.depth, r.index) for r in router.replicas if r.alive)
        counts["pick"] += 1
        return got

    def checked_infeasible(request):
        expected = scan_infeasible(router, request)
        got = infeasible(request)
        assert got == expected
        counts["infeasible"] += 1
        return got

    router._pick = checked_pick
    router._infeasible = checked_infeasible
    return counts


# -- random histories ---------------------------------------------------------

def build(n_replicas, batch, breaker_failures, seed):
    env = Environment()
    gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
    policy = SLOPolicy(deadline_seconds=3.0, backoff_base=0.01,
                       hedge_quantile=0.5, hedge_min_samples=5,
                       hedge_max_fraction=0.5,
                       breaker_failures=breaker_failures,
                       breaker_cooldown_seconds=0.5)

    def make_server(name):
        return InferenceServer(env, daemon.client(name), llm,
                               max_batch_size=batch, name=name)

    replicas = [Replica(k, make_server(f"s{k}"), policy)
                for k in range(n_replicas)]
    router = ResilientRouter(env, replicas, policy, seed=seed)
    return env, router, make_server


OPS = ("submit", "submit", "submit", "direct", "advance", "step", "step",
       "crash", "respawn", "stall", "pause", "resume", "trip",
       "fail_launch", "pick", "estimate")


@st.composite
def histories(draw):
    # Small fleets reach the rare branches (every ready replica tried,
    # every breaker open) far more often than large ones.
    n = draw(st.one_of(st.integers(min_value=1, max_value=4),
                       st.integers(min_value=1, max_value=40)))
    op = st.tuples(st.sampled_from(OPS),
                   st.integers(min_value=0, max_value=n - 1),
                   st.floats(min_value=0.0, max_value=1.0))
    return {
        "n": n,
        "batch": draw(st.integers(min_value=1, max_value=3)),
        "breaker_failures": draw(st.integers(min_value=1, max_value=3)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "ops": draw(st.lists(op, min_size=10, max_size=80)),
    }


def replay(case):
    env, router, make_server = build(case["n"], case["batch"],
                                     case["breaker_failures"], case["seed"])
    counts = check_against_scan(router)
    replicas = router.replicas
    env.run(until=1e-6)  # start every serving loop
    for kind, k, x in case["ops"]:
        replica = replicas[k]
        server = replica.server
        if kind == "submit":
            for _ in range(1 + int(x * 4)):
                router.submit(n_tokens=1 + int(x * 30))
        elif kind == "direct" and replica.alive:
            # Load that bypasses the router; nobody awaits its outcome.
            server.submit(n_tokens=1 + int(x * 30)).done._defused = True
        elif kind == "advance":
            env.run(until=env.now + x * x * 2.0)
        elif kind == "step":
            # Single events: the next op may land between a queue get
            # and the serving loop's resume at the same instant.
            for _ in range(1 + int(x * 8)):
                if env.peek() < float("inf"):
                    env.step()
        elif kind == "crash" and replica.alive:
            server.crash()
            # The crash lands when the interrupt is processed; let it
            # land before anything can crash the same server again.
            env.run(until=env.now + 1e-6)
        elif kind == "respawn" and not replica.alive:
            replica.replace(make_server(f"s{k}r{replica.incarnations}"))
        elif kind == "stall":
            server.stall_until = max(server.stall_until, env.now + x)
        elif kind == "pause" and replica.alive:
            server.pause()
        elif kind == "resume":
            server.resume()
        elif kind == "trip":
            for _ in range(replica.breaker.threshold):
                replica.breaker.record_failure(env.now)
        elif kind == "fail_launch":
            server.fail_next_launches += 1
        elif kind == "pick":
            request = ServedRequest(n_tokens=1, arrival_time=env.now,
                                    deadline=env.now + 3.0,
                                    done=env.event())
            request.tried.extend(j for j in range(case["n"])
                                 if (j * 7 + k) % 3 == int(x * 3) % 3)
            router._pick(request)
        elif kind == "estimate":
            router._est_prior = 0.05 + x
    # Lift every pause, then keep submitting while the fleet drains:
    # completions, retries and hedges meet the final fleet state.
    for replica in replicas:
        replica.server.resume()
    for _ in range(4):
        router.submit(n_tokens=4)
        env.run(until=env.now + 0.5)
    env.run(until=env.now + 30.0)
    return counts


@settings(max_examples=100, deadline=None)
@given(histories())
def test_index_matches_linear_scan_on_random_histories(case):
    counts = replay(case)
    assert counts["pick"] > 0 and counts["infeasible"] > 0


def test_index_matches_linear_scan_on_chaos_fleet():
    """A smoke-size copy of the benchmark's ``chaos-mps-flat`` shape:
    112 replicas in one flat MPS group behind the router, under the
    canonical data-plane fault plan."""
    env = Environment()
    n_requests, rate = 240, 3.0
    plan = canonical_fault_plan(n_requests / rate, seed=3)
    fleet, chaos, client = build_resilient_fleet(
        env, "mps", n_requests, rate_rps=rate, deadline_seconds=60.0,
        seed=3, plan=plan, n_partitions=7, servers_per_partition=16)
    counts = check_against_scan(fleet.router)
    env.run(until=client.done)
    stats = fleet.stats
    assert len(fleet.replicas) == 112
    assert len(chaos.applied) > 0 and stats.retries > 0
    assert stats.offered == n_requests and stats.lost == 0
    assert counts["infeasible"] == n_requests
    assert counts["pick"] >= stats.attempts
