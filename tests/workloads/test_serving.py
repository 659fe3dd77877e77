"""Tests for the dynamic-batching inference server."""

import numpy as np
import pytest

from repro.gpu import A100_80GB, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
    OpenLoopClient,
)

FP16 = InferenceRuntime(dtype_bytes=2)


def make_server(max_batch_size=4, batch_timeout=0.01):
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    client = daemon.client("server")
    llm = LlamaInference(LLAMA2_7B, FP16)
    server = InferenceServer(env, client, llm,
                             max_batch_size=max_batch_size,
                             batch_timeout=batch_timeout)
    return env, server, llm


def test_single_request_completes():
    env, server, llm = make_server()
    req = server.submit(n_tokens=20)
    env.run(until=req.done)
    assert req.latency is not None
    # Close to the isolated 20-token completion latency.
    expected = llm.completion_seconds(A100_80GB, A100_80GB.sms)
    assert req.latency == pytest.approx(expected, rel=0.1)


def test_simultaneous_requests_are_batched():
    env, server, llm = make_server(max_batch_size=4)
    reqs = [server.submit(20) for _ in range(4)]
    env.run(until=env.all_of([r.done for r in reqs]))
    assert server.batch_sizes == [4]
    # All four share the same steps: identical finish times.
    finishes = {r.finish_time for r in reqs}
    assert len(finishes) == 1


def test_batching_amortizes_weight_traffic():
    """Batch-of-4 throughput far exceeds 4x1 sequential throughput."""
    env, server, llm = make_server(max_batch_size=4)
    reqs = [server.submit(20) for _ in range(4)]
    env.run(until=env.all_of([r.done for r in reqs]))
    batched_total = env.now

    env1, server1, _ = make_server(max_batch_size=1)
    reqs1 = [server1.submit(20) for _ in range(4)]
    env1.run(until=env1.all_of([r.done for r in reqs1]))
    sequential_total = env1.now

    assert batched_total < 0.6 * sequential_total


def test_batch_respects_max_size():
    env, server, _ = make_server(max_batch_size=2)
    reqs = [server.submit(5) for _ in range(5)]
    env.run(until=env.all_of([r.done for r in reqs]))
    assert max(server.batch_sizes) <= 2
    assert sum(server.batch_sizes) == 5


def test_shorter_requests_leave_batch_early():
    env, server, _ = make_server(max_batch_size=2)
    short = server.submit(n_tokens=5)
    long = server.submit(n_tokens=20)
    env.run(until=env.all_of([short.done, long.done]))
    assert short.finish_time < long.finish_time


def test_open_loop_client_deterministic():
    env, server, _ = make_server()
    client = OpenLoopClient(env, server, rate_rps=2.0, n_requests=6,
                            n_tokens=10)
    env.run(until=client.done)
    assert len(client.requests) == 6
    assert all(r.latency is not None for r in client.requests)
    arrivals = [r.arrival_time for r in client.requests]
    gaps = np.diff(arrivals)
    assert np.allclose(gaps, 0.5)


def test_open_loop_client_poisson():
    env, server, _ = make_server()
    rng = np.random.default_rng(7)
    client = OpenLoopClient(env, server, rate_rps=3.0, n_requests=20,
                            n_tokens=5, rng=rng)
    env.run(until=client.done)
    gaps = np.diff([r.arrival_time for r in client.requests])
    assert gaps.std() > 0  # genuinely random arrivals


def test_latency_metrics():
    env, server, _ = make_server()
    reqs = [server.submit(10) for _ in range(3)]
    env.run(until=env.all_of([r.done for r in reqs]))
    assert server.mean_latency > 0
    assert server.mean_batch_size >= 1.0


def test_validation():
    env, server, _ = make_server()
    with pytest.raises(ValueError):
        server.submit(n_tokens=0)
    with pytest.raises(RuntimeError):
        make_server()[1].mean_latency
    with pytest.raises(ValueError):
        OpenLoopClient(env, server, rate_rps=0.0, n_requests=1)


# ------------------------------------------------------- streaming mode

def _run_fleet(streaming, n_requests=60, rate=4.0, pooling=True):
    """One MPS-partitioned server pair under open-loop Poisson load."""
    from repro.telemetry.streaming import StreamingLatencyStats

    env = Environment(pooling=pooling)
    gpu = SimulatedGPU(env, A100_80GB, incremental=streaming)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    llm = LlamaInference(LLAMA2_7B, FP16)
    stats = StreamingLatencyStats() if streaming else None
    servers, clients = [], []
    for i in range(2):
        server = InferenceServer(env, daemon.client(f"s{i}",
                                                    active_thread_percentage=50),
                                 llm, max_batch_size=2,
                                 keep_completed=not streaming)
        servers.append(server)
        clients.append(OpenLoopClient(
            env, server, rate_rps=rate / 2, n_requests=n_requests // 2,
            n_tokens=6, rng=np.random.default_rng(100 + i),
            streaming=streaming, stats=stats))
    env.run(until=env.all_of([c.done for c in clients]))
    if streaming:
        lat = stats.stats()
        retained = sum(len(s.completed) for s in servers) \
            + sum(len(c.requests) for c in clients)
    else:
        lats = [r.latency for s in servers for r in s.completed]
        from repro.telemetry import summarize
        lat = summarize(lats)
        retained = sum(len(s.completed) for s in servers)
    return env, lat, retained, sum(s.n_completed for s in servers)


def test_streaming_mode_matches_legacy_exactly():
    """Same arrivals, same clock, same exact latency aggregates."""
    env_s, lat_s, retained_s, done_s = _run_fleet(streaming=True)
    env_l, lat_l, retained_l, done_l = _run_fleet(streaming=False,
                                                  pooling=False)
    assert env_s.now == env_l.now
    assert env_s.events_processed == env_l.events_processed
    assert done_s == done_l == 60
    assert lat_s.count == lat_l.count
    assert lat_s.mean == pytest.approx(lat_l.mean, rel=1e-12)
    assert lat_s.minimum == lat_l.minimum
    assert lat_s.maximum == lat_l.maximum


def test_streaming_mode_retains_nothing():
    _, _, retained, done = _run_fleet(streaming=True)
    assert done == 60
    assert retained == 0


def test_kernel_cache_is_invisible():
    def run(kernel_cache):
        env, server, llm = make_server(max_batch_size=4)
        server.kernel_cache = kernel_cache
        reqs = [server.submit(n_tokens=5) for _ in range(6)]
        env.run(until=env.all_of([r.done for r in reqs]))
        return env.now, [r.latency for r in reqs]

    assert run(True) == run(False)


def test_server_counters_without_retention():
    env, server, llm = make_server()
    server.keep_completed = False
    reqs = [server.submit(n_tokens=4) for _ in range(5)]
    env.run(until=env.all_of([r.done for r in reqs]))
    assert server.n_completed == 5
    assert server.completed == []
    assert server.batch_sizes == []
    assert server.mean_batch_size > 0


def test_on_complete_hook_sees_every_request():
    env, server, llm = make_server()
    seen = []
    server.on_complete = seen.append
    reqs = [server.submit(n_tokens=4) for _ in range(5)]
    env.run(until=env.all_of([r.done for r in reqs]))
    assert sorted(r.rid for r in seen) == sorted(r.rid for r in reqs)


def test_open_loop_client_trace_arrivals():
    from repro.workloads import iter_poisson_trace

    env, server, llm = make_server()
    client = OpenLoopClient(env, server,
                            arrivals=iter_poisson_trace(5.0, 4.0, seed=1),
                            n_tokens=4, streaming=True)
    env.run(until=client.done)
    assert client.n_submitted == client.n_completed > 0


# ------------------------------------------- reconfiguration drain protocol

def test_pause_holds_queued_requests_until_resume():
    env, server, llm = make_server(max_batch_size=1)
    server.pause()
    assert server.stalled
    req = server.submit(n_tokens=4)
    env.run(until=env.now + 5.0)
    assert req.finish_time is None  # held, not failed
    server.resume()
    assert not server.stalled
    env.run(until=req.done)
    assert req.latency is not None


def test_pause_and_resume_are_idempotent():
    env, server, llm = make_server()
    server.pause()
    event = server._pause_event
    server.pause()
    assert server._pause_event is event  # no new gate created
    server.resume()
    server.resume()  # no-op on an unpaused server
    assert not server.stalled


def test_drain_is_immediate_between_batches():
    env, server, llm = make_server()
    server.pause()
    drained = server.drain()
    assert drained.triggered  # nothing executing: safe to reconfigure


def test_drain_waits_for_the_inflight_batch():
    env, server, llm = make_server(max_batch_size=1)
    req = server.submit(n_tokens=8)
    env.run(until=env.now + 0.01)  # let the batch launch kernels
    assert server._executing
    server.pause()
    drained = server.drain()
    assert not drained.triggered
    env.run(until=drained)
    # The drain fired exactly when the in-flight batch completed...
    assert req.finish_time == pytest.approx(env.now)
    # ...and admission stays closed for whatever was queued after it.
    assert server.stalled


def test_drain_fires_even_when_the_batch_crashes():
    env, server, llm = make_server(max_batch_size=1)
    server.submit(n_tokens=200)
    env.run(until=env.now + 0.01)
    assert server._executing
    server.pause()
    drained = server.drain()
    server.crash()
    env.run(until=drained)  # would deadlock if crash skipped the flush
    assert not server.alive


def test_stall_window_defers_batch_launch():
    env, server, llm = make_server(max_batch_size=1)
    server.stall_until = 3.0
    req = server.submit(n_tokens=4)
    env.run(until=req.done)
    assert req.finish_time > 3.0  # nothing ran inside the stall window


def test_double_crash_before_the_interrupt_lands():
    # Two crashes at one instant (e.g. two replica_crash faults with one
    # timestamp): the second interrupt lands on a finished loop and is
    # dropped.
    env, server, llm = make_server()
    req = server.submit(n_tokens=20)
    req.done._defused = True  # its failure is asserted below
    env.run(until=env.now + 0.01)
    server.crash()
    server.crash()
    assert server.alive  # flips only when the interrupt lands
    env.run()
    assert not server.alive
    assert not req.done.ok
    assert server.n_failed == 1


def test_crash_before_the_serving_loop_starts():
    # The crash's interrupt lands after the loop's first resume has
    # attached it to a get registered after interrupt() ran.
    env, server, llm = make_server()
    req = server.submit(n_tokens=20)
    req.done._defused = True  # its failure is asserted below
    server.crash()
    env.run()
    assert not server.alive
    assert not req.done.ok
    assert server.n_failed == 1
    with pytest.raises(RuntimeError):
        server.submit()
