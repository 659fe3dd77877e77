"""The event-loop profiler: observation without perturbation."""

import json

import pytest

from repro.profile import EventLoopProfiler, profiling, site_name
from repro.sim import Environment, FluidPool, FluidTask, SimulationError
from repro.sim import core as sim_core


def _run_scenario(env):
    """A small deterministic workload with three distinct callback sites."""
    order = []

    def site_a(ev):
        order.append(("a", env.now))

    def site_b(ev):
        order.append(("b", env.now))

    for d in (1.0, 1.0, 2.0, 3.0):
        env.timeout(d).callbacks.append(site_a)
    for d in (2.0, 4.5):
        env.timeout(d).callbacks.append(site_b)
    env.schedule_batch([5.0, 5.0], callback=site_a)
    env.run()
    return order


def test_profiler_does_not_perturb_the_simulation():
    plain_env = Environment()
    plain = _run_scenario(plain_env)

    prof_env = Environment()
    prof = EventLoopProfiler()
    prof.attach(prof_env)
    profiled = _run_scenario(prof_env)

    assert profiled == plain
    assert prof_env.now == plain_env.now
    assert prof_env.events_processed == plain_env.events_processed


def _fluid_scenario(env):
    """Three tasks sharing one pool: every completion is a pool wakeup."""

    def equal_share(tasks):
        for t in tasks:
            t.rate = 1.0 / len(tasks)

    pool = FluidPool(env, equal_share)
    for delay, work in ((0.0, 1.0), (0.5, 2.0), (0.7, 3.0)):
        env.schedule_callback(
            delay, lambda work=work: pool.add(FluidTask(env, work=work)))
    env.run()
    return pool.work_drained


def test_profiler_attributes_pool_wakeup_slots():
    plain_env = Environment()
    plain = _fluid_scenario(plain_env)
    prof_env = Environment()
    prof = EventLoopProfiler()
    prof.attach(prof_env)
    profiled = _fluid_scenario(prof_env)
    assert profiled == plain
    assert prof_env.now == plain_env.now
    assert prof.events == prof_env.events_processed \
        == plain_env.events_processed
    sites = {r["site"].rsplit(":", 1)[-1]: r for r in prof.report()["sites"]}
    wakeups = sites["FluidPool._schedule_wakeup.<locals>._on_wakeup"]
    assert wakeups["events"] == 3  # one live wakeup per completion
    # Plus the three arrivals: each wakeup runs its drained task's
    # ``done`` callbacks itself, so completions add no loop event.
    assert prof.events == 6


def test_profiler_deterministic_counts():
    """Event counts, sim attribution, and the depth histogram are pure
    functions of the scenario — identical across runs."""
    reports = []
    for _ in range(2):
        env = Environment()
        prof = EventLoopProfiler()
        prof.attach(env)
        _run_scenario(env)
        rep = prof.report()
        # Strip the wall-clock columns, the only nondeterministic part,
        # and the row order, which the report sorts by wall time.
        for row in rep["sites"]:
            row.pop("wall_seconds")
            row.pop("wall_pct")
        rep["sites"].sort(key=lambda r: r["site"])
        rep.pop("wall_seconds_in_callbacks")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_profiler_site_attribution():
    env = Environment()
    prof = EventLoopProfiler()
    prof.attach(env)
    _run_scenario(env)
    rep = prof.report()
    assert rep["schema"] == "repro-profile/1"
    assert rep["events"] == env.events_processed == 8
    names = {r["site"]: r for r in rep["sites"]}
    a = next(v for k, v in names.items() if k.endswith("site_a"))
    b = next(v for k, v in names.items() if k.endswith("site_b"))
    assert a["events"] == 6
    assert b["events"] == 2
    # Sim-time gaps attribute to the first callback of each event;
    # total attributed sim time is the final clock (monotone scenario).
    assert a["sim_seconds"] + b["sim_seconds"] == env.now


def test_profiler_sim_gap_goes_to_first_callback():
    env = Environment()
    prof = EventLoopProfiler()
    prof.attach(env)

    def first(ev):
        pass

    def second(ev):
        pass

    ev = env.timeout(3.0)
    ev.callbacks.append(first)
    ev.callbacks.append(second)
    env.run()
    rows = {r["site"]: r for r in prof.report()["sites"]}
    f = next(v for k, v in rows.items() if k.endswith("first"))
    s = next(v for k, v in rows.items() if k.endswith("second"))
    assert f["sim_seconds"] == 3.0
    assert s["sim_seconds"] == 0.0


def test_profiler_queue_depth_histogram():
    env = Environment()
    prof = EventLoopProfiler()
    prof.attach(env)
    for d in (1.0, 2.0, 3.0):
        env.timeout(d)
    env.run()
    hist = prof.report()["queue_depth_hist"]
    # Pops happen at depths 2, 1, 0 (depth sampled after the pop).
    assert hist == {"0": 1, "1": 1, "2-3": 1}


def test_profiling_context_manager_hooks_new_envs():
    with profiling() as prof:
        env = Environment()
        assert env._profiler is prof
        _run_scenario(env)
    assert env._profiler is None
    assert sim_core.ENV_CREATED_HOOK is None
    assert prof.report()["events"] == 8


def test_profiling_context_manager_explicit_env():
    env = Environment()
    with profiling(env) as prof:
        _run_scenario(env)
    assert env._profiler is None
    assert prof.report()["events"] == 8
    # Environments created *outside* the explicit-env form are untouched.
    assert Environment()._profiler is None


def test_profiling_chains_previous_hook():
    seen = []
    hook = seen.append
    prev = sim_core.ENV_CREATED_HOOK
    sim_core.ENV_CREATED_HOOK = hook
    try:
        with profiling() as prof:
            env = Environment()
            assert env._profiler is prof
        assert seen == [env]                    # previous hook still ran
        assert sim_core.ENV_CREATED_HOOK is hook
    finally:
        sim_core.ENV_CREATED_HOOK = prev


def test_profiler_preserves_exception_semantics():
    """A failing un-defused event raises through the profiled step just
    as through the plain one."""
    env = Environment()
    prof = EventLoopProfiler()
    prof.attach(env)
    ev = env.timeout(1.0)
    ev.callbacks.append(lambda e: (_ for _ in ()).throw(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_report_json_round_trips():
    env = Environment()
    prof = EventLoopProfiler()
    prof.attach(env)
    _run_scenario(env)
    rep = json.loads(prof.report_json(top=2))
    assert rep["schema"] == "repro-profile/1"
    assert len(rep["sites"]) <= 2


def test_site_name_formats():
    def f(ev):
        pass

    name = site_name(f)
    # file:line:qualname — the qualname of a nested function ends ".f".
    # Code outside the repro package is named by its bare basename.
    assert name.startswith("test_profiler.py:") and name.endswith(".f")
    # Package code is named relative to the package: no absolute path.
    core = site_name(Environment.step)
    assert core.startswith("sim/core.py:") and core.endswith(":Environment.step")
    # C callables without __code__ fall back to a type-derived name.
    assert site_name(len).startswith("<")
