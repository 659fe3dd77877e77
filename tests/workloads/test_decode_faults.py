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

A batch of unequal lengths (2, 5 and 5 tokens) pins the decode
countdown, which walks the batch only at a step where a request
finishes: its finish times, counters and routing-hook calls were
recorded from the per-token walk it replaced, plain, with a launch
failure and with a crash after the first request has finished.
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


def make(max_batch_size=4):
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    server = InferenceServer(env, daemon.client("server"),
                             LlamaInference(LLAMA2_7B, FP16),
                             max_batch_size=max_batch_size)
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


# One full batch (max_batch_size=3) of a 2-token and two 5-token
# requests: (launch, done) per step and the finish times, recorded from
# the per-token walk.  The first request finishes at the second step's
# host gap, and the next three steps decode a batch of two.
UNEQUAL_STEPS = [(0.0, 0.041476923076923085),
                 (0.08147692307692309, 0.12295384615384616),
                 (0.16295384615384617, 0.19850549450549454),
                 (0.23850549450549455, 0.2740571428571429),
                 (0.31405714285714287, 0.34960879120879124)]
UNEQUAL_FINISH = [0.16295384615384617, 0.3896087912087912,
                  0.3896087912087912]
#: Mid-host-gap instant of the third step, after the first finish.
UNEQUAL_GAP = (UNEQUAL_STEPS[2][1] + UNEQUAL_STEPS[3][0]) / 2
#: ``(time, queue_depth, alive)`` at each routing-hook call while the
#: batch is gathered (three submits, then a get and its resume each),
#: and at the first request's finish.
UNEQUAL_HOOK = [(0.0, 1, True), (0.0, 2, True), (0.0, 3, True),
                (0.0, 2, True), (0.0, 3, True), (0.0, 2, True),
                (0.0, 3, True), (0.0, 2, True), (0.0, 3, True),
                (UNEQUAL_FINISH[0], 2, True)]


def run_unequal(fault=None):
    """Run the unequal batch with ``fault`` injected at
    ``UNEQUAL_GAP``; returns the summary, the steps and the hook
    calls."""
    env, _gpu, server = make(max_batch_size=3)
    hook = []
    server._on_change = lambda: hook.append(
        (env.now, server.queue_depth, server.alive))
    steps = []
    launch = server.client.launch

    def traced(kernel):
        done = launch(kernel)
        record = [env.now, None]
        done.callbacks.append(lambda _ev: record.__setitem__(1, env.now))
        steps.append(record)
        return done

    server.client.launch = traced
    requests = submit(server, 2, 5, 5)
    if fault == "launch":
        at(env, UNEQUAL_GAP, lambda: setattr(server, "fail_next_launches",
                                             1))
    elif fault == "crash":
        at(env, UNEQUAL_GAP, server.crash)
    env.run()
    return summary(server, requests), [tuple(s) for s in steps], hook


def test_unequal_batch_counts_down_to_each_finish():
    result, steps, hook = run_unequal()
    assert steps == UNEQUAL_STEPS
    assert result == {
        "completed": 3, "failed": 0, "launched": 5, "alive": True,
        "finish": UNEQUAL_FINISH, "outcome": ["ok"] * 3}
    end = UNEQUAL_FINISH[1]
    # The batch's last step: the walk, the hand-back and the next get.
    assert hook == UNEQUAL_HOOK + [(end, 0, True)] * 3


def test_unequal_batch_launch_failure_after_a_finish():
    result, steps, hook = run_unequal("launch")
    assert steps == UNEQUAL_STEPS[:3]
    assert result == {
        "completed": 1, "failed": 2, "launched": 3, "alive": True,
        "finish": UNEQUAL_FINISH[:1] + [None, None],
        "outcome": ["ok", "GpuLaunchError", "GpuLaunchError"]}
    # The rejected fourth launch fails the two survivors at the end of
    # the third step's host gap.
    assert hook == UNEQUAL_HOOK + [(UNEQUAL_STEPS[3][0], 0, True)] * 3


def test_unequal_batch_crash_in_a_host_gap_after_a_finish():
    result, steps, hook = run_unequal("crash")
    assert steps == UNEQUAL_STEPS[:3]
    assert result == {
        "completed": 1, "failed": 2, "launched": 3, "alive": False,
        "finish": UNEQUAL_FINISH[:1] + [None, None],
        "outcome": ["ok", "RuntimeError", "RuntimeError"]}
    assert hook == UNEQUAL_HOOK + [(UNEQUAL_GAP, 2, False)]
