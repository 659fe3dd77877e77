"""Faults against the callback-driven decode loop.

``InferenceServer`` runs each token step from callbacks on the step's
kernel ``done`` and host-gap events, and hands control back to its
serving generator inline when the batch ends.  Every fault the serving
plane knows is injected here at each point of a batch's life: while a
kernel is resident, inside a host gap, at the batch-end instant (just
before and just after the final step, and from inside the completion
hook), twice at one instant, before the loop starts, during a pause and
drain, during a stall, as a rejected launch and as an ECC kill.

The expected outcomes (counters, finish times, failure types, kernels
launched) were recorded from the generator-driven decode loop this one
replaced.  After a crash lands, the counters must stay frozen: no
decode callback may act on a dead server.
"""

import pytest

from repro.gpu import A100_80GB, MpsControlDaemon, SimulatedGPU
from repro.gpu.faults import domain_of, kill_domain
from repro.sim import Environment
from repro.workloads import (
    LLAMA2_7B,
    InferenceRuntime,
    InferenceServer,
    LlamaInference,
)

FP16 = InferenceRuntime(dtype_bytes=2)

# One batch of a 3-token and a 5-token request: (launch, done) per step,
# recorded from the generator-driven loop.
STEPS = [(0.01, 0.045551648351648356),
         (0.08555164835164836, 0.12110329670329671),
         (0.1611032967032967, 0.19665494505494507),
         (0.23665494505494508, 0.2722065934065934),
         (0.3122065934065934, 0.34775824175824177)]
FINISH = [0.23665494505494508, 0.38775824175824175]
#: Mid-kernel and mid-host-gap instants of the second step.
RESIDENT = (STEPS[1][0] + STEPS[1][1]) / 2
GAP = (STEPS[1][1] + STEPS[2][0]) / 2
END = FINISH[1]


def make():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    server = InferenceServer(env, daemon.client("server"),
                             LlamaInference(LLAMA2_7B, FP16))
    return env, gpu, server


def submit(server, *tokens):
    requests = [server.submit(n) for n in tokens]
    for request in requests:
        request.done._defused = True  # failures are asserted instead
    return requests


def at(env, t, fn):
    """Run ``fn()`` at absolute time ``t`` (ahead of any event created
    later for the same instant)."""
    env.schedule_batch([t], lambda _ev: fn())


def summary(server, requests):
    return {
        "completed": server.n_completed,
        "failed": server.n_failed,
        "launched": server.client.kernels_launched,
        "alive": server.alive,
        "finish": [r.finish_time for r in requests],
        "outcome": [None if not r.done.triggered
                    else "ok" if r.done.ok
                    else type(r.done.value).__name__
                    for r in requests],
    }


def crashed(launched, completed=0, finish=(None, None)):
    return {"completed": completed, "failed": 2 - completed,
            "launched": launched, "alive": False, "finish": list(finish),
            "outcome": ["ok" if f is not None else "RuntimeError"
                        for f in finish]}


def run_frozen_after(env, server, t):
    """Run past ``t`` (the crash lands by then), then to the end; the
    counters must not move after the crash landed."""
    env.run(until=t + 1e-9)
    assert not server.alive
    frozen = (server.n_completed, server.n_failed,
              server.client.kernels_launched)
    env.run()
    assert (server.n_completed, server.n_failed,
            server.client.kernels_launched) == frozen


def test_recorded_timeline():
    env, _gpu, server = make()
    steps = []
    launch = server.client.launch

    def traced(kernel):
        done = launch(kernel)
        record = [env.now, None]
        done.callbacks.append(lambda _ev: record.__setitem__(1, env.now))
        steps.append(record)
        return done

    server.client.launch = traced
    requests = submit(server, 3, 5)
    env.run()
    assert [tuple(s) for s in steps] == STEPS
    assert [r.finish_time for r in requests] == FINISH


@pytest.mark.parametrize("t", [RESIDENT, GAP], ids=["resident", "host-gap"])
def test_crash_mid_step(t):
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    at(env, t, server.crash)
    run_frozen_after(env, server, t)
    assert summary(server, requests) == crashed(launched=2)
    assert len(server.client.device.pool) == 0


def test_crash_at_batch_end_before_the_last_step():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    at(env, END, server.crash)
    run_frozen_after(env, server, END)
    assert summary(server, requests) == crashed(
        launched=5, completed=1, finish=(FINISH[0], None))


def test_crash_at_batch_end_after_the_last_step():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    requests[1].done.callbacks.append(lambda _ev: server.crash())
    run_frozen_after(env, server, END)
    assert summary(server, requests) == crashed(
        launched=5, completed=2, finish=FINISH)


def test_crash_from_the_completion_hook():
    # The crash is requested inside the step that ends the batch: the
    # hand-back still runs, and the loop stops at its next wait.
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    server.on_complete = \
        lambda r: server.crash() if r is requests[1] else None
    at(env, END, lambda: requests.extend(submit(server, 2)))
    run_frozen_after(env, server, END)
    assert summary(server, requests) == {
        "completed": 2, "failed": 1, "launched": 5, "alive": False,
        "finish": FINISH + [None], "outcome": ["ok", "ok", "RuntimeError"]}


def test_double_crash_mid_step():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)

    def twice():
        server.crash()
        server.crash()

    at(env, RESIDENT, twice)
    run_frozen_after(env, server, RESIDENT)
    assert summary(server, requests) == crashed(launched=2)


def test_crash_before_the_loop_starts():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    server.crash()
    run_frozen_after(env, server, 0.0)
    assert summary(server, requests) == crashed(launched=0)


def test_pause_and_drain_mid_batch():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)
    drained = []

    def pause():
        server.pause()
        server.drain().callbacks.append(lambda _ev: drained.append(env.now))
        requests.extend(submit(server, 2))

    at(env, RESIDENT, pause)
    at(env, END + 1.0, server.resume)
    env.run()
    # The in-flight batch ran to completion; the held one ran on resume.
    assert drained == [END]
    assert summary(server, requests) == {
        "completed": 3, "failed": 0, "launched": 7, "alive": True,
        "finish": FINISH + [1.5388615384615383], "outcome": ["ok"] * 3}


def test_stall_set_mid_batch_defers_only_the_next_batch():
    env, _gpu, server = make()
    requests = submit(server, 3, 5)

    def stall():
        server.stall_until = END + 0.5
        requests.extend(submit(server, 2))

    at(env, GAP, stall)
    env.run()
    assert summary(server, requests) == {
        "completed": 3, "failed": 0, "launched": 7, "alive": True,
        "finish": FINISH + [1.0388615384615385], "outcome": ["ok"] * 3}


@pytest.mark.parametrize("fault", ["launch", "ecc"])
def test_failed_step_fails_the_batch_and_the_replica_survives(fault):
    env, gpu, server = make()
    requests = submit(server, 3, 5)
    if fault == "launch":
        at(env, GAP, lambda: setattr(server, "fail_next_launches", 1))
    else:
        at(env, RESIDENT, lambda: kill_domain(
            gpu, domain_of(gpu, server.client.group)))
    env.run(until=END)
    assert (server.n_completed, server.n_failed) == (0, 2)
    assert not server._executing
    requests.extend(submit(server, 2))
    env.run()
    error = "GpuLaunchError" if fault == "launch" else "GpuEccError"
    assert summary(server, requests) == {
        "completed": 1, "failed": 2, "launched": 4, "alive": True,
        "finish": [None, None, 0.5488615384615385],
        "outcome": [error, error, "ok"]}
