"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_process_runs_and_returns():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)
        return 99

    p = env.process(proc(env))
    assert env.run(until=p) == 99
    assert env.now == 3.0


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_processes_interleave():
    env = Environment()
    log = []

    def proc(env, name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            log.append((env.now, name))

    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "b", 1.5))
    env.run()
    # At t=3.0 both fire; b's timeout was scheduled earlier (at t=1.5 vs
    # t=2.0), so by creation-order tie-breaking b resumes first.
    assert log == [
        (1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a"), (4.5, "b"),
    ]


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(5.0)
        return "child-result"

    def parent(env):
        v = yield env.process(child(env))
        return v

    assert env.run(until=env.process(parent(env))) == "child-result"


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(parent(env))) == "caught child failed"


def test_unhandled_process_exception_raises_from_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_defused_process_exception_is_silent():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("defused")

    p = env.process(proc(env))
    p.defuse()
    env.run()
    assert not p.ok
    assert isinstance(p.value, ValueError)


def test_interrupt_wakes_process_early():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    p = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(3.0)
        p.interrupt("wake up")

    env.process(interrupter(env))
    env.run()
    assert log == [(3.0, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_before_start_resumes_once():
    # The interrupt lands after the bootstrap ran the generator to its
    # first yield: the process must not also resume from that event.
    env = Environment()
    log = []

    def worker(env):
        try:
            yield env.timeout(0.0)
        except Interrupt as i:
            log.append(("interrupted", i.cause))
        yield env.timeout(5.0)
        log.append(("done", env.now))

    p = env.process(worker(env))
    p.interrupt("early")
    env.run()
    assert log == [("interrupted", "early"), ("done", 5.0)]


def test_interrupt_landing_after_finish_is_dropped():
    env = Environment()

    def worker(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            return "stopped"

    p = env.process(worker(env))
    env.run(until=1.0)
    p.interrupt()
    p.interrupt()  # queued behind the first, which ends the process
    env.run()
    assert p.value == "stopped"


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    p.defuse()
    env.run()
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_yield_already_processed_event():
    env = Environment()
    done = env.event()
    done.succeed("early")

    def proc(env):
        yield env.timeout(1.0)
        v = yield done  # fired long ago
        return v

    assert env.run(until=env.process(proc(env))) == "early"


def test_is_alive():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive
