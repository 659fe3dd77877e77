"""MIG instances are isolated fluid domains of the device's pool.

A kernel admitted to, or drained from, one instance advances and
reallocates that instance's domain only: another instance's stored work
and armed wakeup stay bitwise as they were, and the allocator sees only
the residents of the domain whose membership changed.  Wakeups of two
domains that are due at the same instant fire in the order they were
armed, each delivering its own completions.  A destroyed instance's
domain is retired, its integrals carried over to the device domain.
"""

from repro.gpu import A100_80GB, Kernel, MigManager, SimulatedGPU
from repro.sim import Environment


def _instances(env, gpu, n):
    """``n`` ``1g.10gb`` instances, an MPS daemon in each (the run
    lets each instance's idle time-slicing pump start)."""
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    daemons = [manager.create_instance("1g.10gb").enable_mps()
               for _ in range(n)]
    env.run()
    return daemons


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_events_in_one_instance_leave_the_other_untouched():
    """An admission and a drain in instance A leave instance B's stored
    work and armed wakeup bitwise unchanged; the allocator sees only
    A's residents."""
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=True)
    a, b = _instances(env, gpu, 2)
    seen = []
    allocate = gpu.pool.allocator

    def spy(tasks):
        seen.append([t.tid for t in tasks])
        allocate(tasks)

    gpu.pool.allocator = spy
    dom_a = gpu.pool.domain(a.group.fluid_domain)
    dom_b = gpu.pool.domain(b.group.fluid_domain)
    assert dom_a is not dom_b
    for name in ("b0", "b1"):
        b.client(name).launch(Kernel(flops=5e12, bytes_moved=1e9,
                                     max_sms=14))
    long_a = a.client("a0").launch(Kernel(flops=4e12, bytes_moved=1e9,
                                          max_sms=14))
    env.run(until=env.now + 0.01)
    b_tids = {t.tid for t in dom_b._slot_task}
    work_b = _bits(dom_b._w)
    key_b = env._timers[dom_b._wake]

    def untouched() -> None:
        assert _bits(dom_b._w) == work_b
        assert env._timers[dom_b._wake] is key_b

    # Admission into A: A advances and reallocates, B does not.
    del seen[:]
    short_a = a.client("a1").launch(Kernel(flops=1e10, bytes_moved=1e8,
                                           max_sms=14))
    untouched()
    assert seen == [[t.tid for t in dom_a._slot_task]] and len(seen[0]) == 2

    # A drain in A (its wakeup), reallocating A's survivor alone.
    del seen[:]
    env.run(until=short_a)
    untouched()
    assert seen == [[t.tid for t in dom_a._slot_task]] and len(seen[0]) == 1
    assert not long_a.triggered and {t.tid for t in dom_b._slot_task} == b_tids
    env.run()
    assert gpu.kernels_completed == 4


def _same_instant_run():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=True)
    a, b = _instances(env, gpu, 2)
    kernel = Kernel(flops=1e11, bytes_moved=1e9, max_sms=14)
    order = []
    events0 = env.events_processed
    for name, daemon in (("a", a), ("b", b)):
        done = daemon.client(name).launch(kernel)
        done.callbacks.append(
            lambda _ev, name=name: order.append((name, env.now)))
    # Same instance shape, kernel and admission time: both instances'
    # wakeups are armed at the same float, and a timeout created with
    # the same delay (one solo task: its work over its rate) too.
    dom = gpu.pool.domain(a.group.fluid_domain)
    env.timeout(dom._w[0] / dom._r[0]).callbacks.append(
        lambda _ev: order.append(("timeout", env.now)))
    env.run()
    return order, env.events_processed - events0


def test_same_instant_completions_in_two_instances():
    """Two instances' kernels complete at exactly the same time.  Each
    instance's wakeup delivers its own completion, in arming order: A's
    kernel was admitted (and its domain armed) first.  The timeout due
    at that instant was created last and runs after both.  Three loop
    events: two wakeups and the timeout."""
    order, events = _same_instant_run()
    t = order[0][1]
    assert order == [("a", t), ("b", t), ("timeout", t)]
    assert events == 3
    assert _same_instant_run() == (order, events)


def test_destroyed_instances_leave_no_domain():
    """Reconfiguring MIG retires the destroyed instances' domains; the
    device's integrals keep counting their work."""
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=True)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    kernel = Kernel(flops=1e11, bytes_moved=1e9, max_sms=14)
    for _ in range(3):
        instances = env.run(until=env.process(
            manager.reconfigure(["1g.10gb"] * 3)))
        clients = [inst.enable_mps().client(f"c{i}")
                   for i, inst in enumerate(instances)]
        env.run(until=env.all_of([c.launch(kernel) for c in clients]))
        assert len(gpu._domains) == len(gpu.pool._domains) == 4
        before = gpu.sm_seconds
        for c in clients:
            c.close()
    env.run(until=env.process(manager.reconfigure([])))
    assert list(gpu._domains) == list(gpu.pool._domains) == [None]
    assert before > 0.0
    assert abs(gpu.sm_seconds - before) <= 1e-12 * before
    assert gpu.kernels_completed == 9
