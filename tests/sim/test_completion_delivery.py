"""Completion delivery: a pool wakeup runs its drained tasks' ``done``
callbacks itself.

When the wakeup drains tasks it re-arms the pool, then runs each drained
task's ``done`` callbacks in admission order — within one wakeup the
order in which scheduled ``done`` events would fire — so a completion
costs no loop event of its own.  Other events due at the same instant
now run after those callbacks.  A task that drains at admission (inside ``add``)
keeps a scheduled ``done``: its launcher attaches callbacks only after
``add`` returns.  Every test pins the loop-event count, which is one
event per wakeup-drained task lower than under scheduled delivery.
"""

from repro.gpu import A100_40GB, Kernel, MpsControlDaemon, SimulatedGPU
from repro.sim import Environment, FluidPool, FluidTask


def _equal_share(tasks):
    share = 1.0 / len(tasks)
    for t in tasks:
        t.rate = share


def _mps_client(env):
    gpu = SimulatedGPU(env, A100_40GB)
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    return gpu, daemon


def test_sequential_kernels_cost_one_loop_event_each():
    env = Environment()
    _, daemon = _mps_client(env)
    client = daemon.client("c", active_thread_percentage=50)
    kernel = Kernel(flops=2e10, bytes_moved=1e8, max_sms=40)
    done_at = []

    def chain(ev=None):
        if ev is not None:
            done_at.append(env.now)
        if len(done_at) < 10:
            client.launch(kernel).callbacks.append(chain)

    env.run()
    events0 = env.events_processed
    chain()
    env.run()
    assert len(done_at) == 10
    assert done_at == sorted(set(done_at))
    # Each kernel is one wakeup; its completion and the next launch run
    # inside it (scheduled delivery took two events per kernel).
    assert env.events_processed - events0 == 10


def test_admission_drain_runs_callbacks_attached_after_add():
    env = Environment()
    pool = FluidPool(env, _equal_share)
    seen = []

    def on_first(ev):
        seen.append(("first", env.now))
        instant = pool.add(FluidTask(env, work=0.0))
        # Attached after ``add`` returned: the drain at admission must
        # still be delivered, so its ``done`` is scheduled.
        instant.done.callbacks.append(
            lambda ev: seen.append(("instant", env.now, ev.value is instant)))

    first = FluidTask(env, work=1.0)
    first.done.callbacks.append(on_first)
    pool.add(first)
    env.run()
    assert seen == [("first", 1.0), ("instant", 1.0, True)]
    # The wakeup (delivering ``first`` inline) and the instant task's
    # scheduled ``done``.
    assert env.events_processed == 2


def test_simultaneous_drains_deliver_in_admission_order():
    """Two tasks draining in one wakeup are delivered in admission order
    after the pool re-armed; a zero-delay event scheduled by the first
    callback runs after both, as it did behind scheduled ``done``s."""
    env = Environment()
    pool = FluidPool(env, _equal_share)
    order = []
    tasks = [FluidTask(env, work=w) for w in (3.0, 1.0, 1.0)]

    def on_done(ev):
        task = ev.value
        order.append((tasks.index(task), env.now, len(pool),
                      pool.domain()._wakeup_pending, task.done.processed))
        if task is tasks[1]:
            env.timeout(0).callbacks.append(
                lambda _ev: order.append(("after", env.now)))

    for t in tasks:
        t.done.callbacks.append(on_done)
        pool.add(t)
    env.run()
    # Both short tasks drain at t = 3 (rate 1/3 each); the survivor then
    # runs alone, armed before the deliveries.
    assert order == [(1, 3.0, 1, True, True), (2, 3.0, 1, True, True),
                     ("after", 3.0), (0, 5.0, 0, False, True)]
    # Two wakeups plus the zero-delay timeout.
    assert env.events_processed == 3


def test_same_instant_events_run_after_the_wakeups_completions():
    """Two pools' wakeups and a timeout are due at the same instant.
    Each wakeup delivers its completion itself, so the timeout (armed
    last) runs after both.  Under scheduled delivery it ran between the
    wakeups and the ``done`` events: timeout, a, b, in five events."""
    env = Environment()
    order = []
    pools = [FluidPool(env, _equal_share, name=n) for n in "ab"]
    for name, pool in zip("ab", pools):
        task = FluidTask(env, work=1.0)
        task.done.callbacks.append(
            lambda _ev, name=name: order.append((name, env.now)))
        pool.add(task)
    env.timeout(1.0).callbacks.append(
        lambda _ev: order.append(("timeout", env.now)))
    env.run()
    assert order == [("a", 1.0), ("b", 1.0), ("timeout", 1.0)]
    assert env.events_processed == 3


def test_raising_callback_leaves_the_rest_of_the_wakeup_scheduled():
    """A callback that raises ends the run; the wakeup's completions
    not yet delivered stay on the heap and run on the next ``run``."""
    env = Environment()
    pool = FluidPool(env, _equal_share)
    seen = []

    def boom(_ev):
        raise RuntimeError("boom")

    tasks = [FluidTask(env, work=1.0) for _ in range(3)]
    tasks[0].done.callbacks.append(boom)
    for t in tasks[1:]:
        t.done.callbacks.append(
            lambda ev: seen.append((tasks.index(ev.value), env.now)))
    for t in tasks:
        pool.add(t)
    try:
        env.run()
    except RuntimeError:
        pass
    else:
        raise AssertionError("the callback's error was swallowed")
    assert seen == []
    env.run()
    assert seen == [(1, 3.0), (2, 3.0)]
    assert all(t.done.processed for t in tasks)


def _resume_trace(timeshare):
    """Three workers each running three kernels through
    ``GpuClient.run``; returns ``(time, worker, step, resident
    kernels)`` of every resume and the loop-event count.  Workers 1 and
    2 run identical kernels, so under MPS they drain in one wakeup.
    Time-shared clients also wake the temporal pump, a second process
    waiting on each ``done``: the resident count shows it resumes after
    the worker."""
    env = Environment()
    if timeshare:
        gpu = SimulatedGPU(env, A100_40GB)
        clients = [gpu.timeshare_client(f"c{i}") for i in range(3)]
    else:
        _, daemon = _mps_client(env)
        clients = [daemon.client(f"c{i}", active_thread_percentage=40)
                   for i in range(3)]
    kernels = [Kernel(flops=f, bytes_moved=b, max_sms=s) for f, b, s in
               ((3e10, 2e8, 30), (1e10, 6e8, 60), (1e10, 6e8, 60))]
    trace = []

    def worker(i):
        for step in range(3):
            yield from clients[i].run(kernels[i])
            trace.append((env.now, i, step, len(clients[i].device.pool)))

    for i in range(3):
        env.process(worker(i))
    env.run()
    return trace, env.events_processed


# Resume times, order and resident counts recorded under scheduled
# ``done`` delivery.
SCHEDULED_TEMPORAL = [
    (0.011081923076923078, 0, 0, 0),
    (0.01792807692307692, 1, 0, 0),
    (0.02477423076923077, 2, 0, 0),
    (0.04085115384615385, 0, 1, 0),
    (0.04769730769230769, 1, 1, 0),
    (0.054543461538461534, 2, 1, 0),
    (0.07062038461538461, 0, 2, 0),
    (0.07746653846153846, 1, 2, 0),
    (0.08431269230769231, 2, 2, 0),
]
SCHEDULED_MPS = [
    (0.002771845557543232, 1, 0, 1),
    (0.002771845557543232, 2, 0, 1),
    (0.005543691115086464, 1, 1, 1),
    (0.005543691115086464, 2, 1, 1),
    (0.008315536672629695, 1, 2, 1),
    (0.008315536672629695, 2, 2, 1),
    (0.011654373881932023, 0, 0, 0),
    (0.022736296958855103, 0, 1, 0),
    (0.03381822003577818, 0, 2, 0),
]


def test_temporal_pump_resumes_as_under_scheduled_delivery():
    trace, events = _resume_trace(timeshare=True)
    assert trace == SCHEDULED_TEMPORAL
    assert events == 40  # 49 with a scheduled ``done`` per kernel


def test_client_run_resumes_as_under_scheduled_delivery():
    trace, events = _resume_trace(timeshare=False)
    assert trace == SCHEDULED_MPS
    assert events == 22  # 31 with a scheduled ``done`` per kernel
