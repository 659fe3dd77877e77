"""The incremental allocator must be bit-identical to the full recompute.

Two layers of defence, both exercised here:

- ``cross_check=True`` makes the device run the full hierarchical
  recompute after every incremental allocation and raise
  ``AllocatorMismatch`` on the first float that differs — so simply
  *running* a schedule under cross-check is an exhaustive equality test
  over every membership change in it;
- twin runs (incremental vs ``incremental=False``) must produce
  exactly equal completion timestamps, which additionally pins the
  event-loop interaction (wakeup horizons derive from rates).

Schedules are randomised over client counts, kernel shapes, and launch
staggering, across the three sharing topologies (flat MPS, MIG+MPS,
vGPU fair-share), because the allocator's branches differ per topology:
MPS exercises the aggregate-cap shrink, MIG the per-group bandwidth
caps, and vGPU the fair SM policy with an overhead factor.  Small
schedules never reach the resident counts at which the pool's hot loops
and the allocator's per-group math switch to numpy, so the ``*_regimes``
tests replay them with both thresholds forced to each side (see
``tests/regimes.py``, which also checks the pool's slot layout after
every reallocation and eviction).

The allocation memo (group columns looked up by kernel-class signature)
only hits when group contents recur, which random-float shapes almost
never produce; its tests draw shapes and MPS percentages from a small
palette and replay each schedule twice on one device.  The class cache
(a task's demand, kernel constants and class id looked up by kernel
``kid``, client cap and budget) only hits when kernel *objects* recur,
so its scenarios launch one shared set of kernels throughout.
"""

import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100_40GB,
    Kernel,
    MigManager,
    MpsControlDaemon,
    SimulatedGPU,
)
from repro.gpu import device
from repro.gpu.device import AllocatorMismatch
from repro.gpu.memory import MemoryPool
from repro.gpu.vgpu import VgpuManager
from repro.sim import Environment
from tests.pysum import sum_py312
from tests.regimes import REGIMES, forced_regime

SPEC = A100_40GB

regimes = pytest.mark.parametrize("regime", [t for _, t in REGIMES],
                                  ids=[i for i, _ in REGIMES])


@st.composite
def launch_schedule(draw, max_clients=4, max_kernels=10):
    """A list of (client index, start delay, kernel shape) launches."""
    n_clients = draw(st.integers(min_value=1, max_value=max_clients))
    n_kernels = draw(st.integers(min_value=1, max_value=max_kernels))
    launches = []
    for _ in range(n_kernels):
        launches.append((
            draw(st.integers(min_value=0, max_value=n_clients - 1)),
            draw(st.floats(min_value=0.0, max_value=0.5,
                           allow_nan=False, allow_infinity=False)),
            draw(st.floats(min_value=1e6, max_value=1e12)),   # flops
            draw(st.floats(min_value=0.0, max_value=1e9)),    # bytes
            draw(st.integers(min_value=1, max_value=SPEC.sms)),
        ))
    return n_clients, launches


def _drive(env, clients, launches):
    """Launch every kernel on its schedule; return completion times."""
    return _launch_all(env, [
        (clients[c], delay,
         Kernel(flops=flops, bytes_moved=nbytes, max_sms=max_sms,
                name=f"k{i}"))
        for i, (c, delay, flops, nbytes, max_sms) in enumerate(launches)])


def _launch_all(env, launches):
    """Run ``(client, delay, kernel)`` launches; return completion times."""
    finished = []

    def submit(env, client, delay, kernel):
        yield env.timeout(delay)
        yield client.launch(kernel)
        finished.append(env.now)

    env.run(until=env.all_of([env.process(submit(env, *launch))
                              for launch in launches]))
    return finished


def _mps_setup(env, gpu, n_clients):
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    pct = 100 // n_clients
    return [daemon.client(f"c{i}", active_thread_percentage=pct)
            for i in range(n_clients)]


def _mig_setup(env, gpu, n_clients):
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instances = [manager.create_instance("1g.5gb"),
                 manager.create_instance("2g.10gb")]
    daemons = [inst.enable_mps() for inst in instances]
    return [daemons[i % 2].client(f"c{i}") for i in range(n_clients)]


def _vgpu_setup(env, gpu, n_clients):
    manager = VgpuManager(gpu, num_vms=min(2, n_clients))
    return [manager.vm(i % min(2, n_clients)).client(f"c{i}")
            for i in range(n_clients)]


TOPOLOGIES = {"mps": _mps_setup, "mig": _mig_setup, "vgpu": _vgpu_setup}


def _run(topology, schedule, incremental):
    n_clients, launches = schedule
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                       cross_check=incremental)
    clients = TOPOLOGIES[topology](env, gpu, n_clients)
    finished = _drive(env, clients, launches)
    return finished, env.now, gpu


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=launch_schedule())
@settings(max_examples=25, deadline=None)
def test_incremental_matches_full_recompute(topology, schedule):
    """Twin runs agree exactly; cross-check guards every intermediate."""
    inc_times, inc_now, gpu = _run(topology, schedule, incremental=True)
    full_times, full_now, _ = _run(topology, schedule, incremental=False)
    assert inc_times == full_times      # exact float equality, no approx
    assert inc_now == full_now
    assert gpu.alloc_calls > 0


def _cancel_run(schedule, incremental):
    """Admit/cancel/poke churn on flat MPS; returns the event log."""
    n_clients, launches = schedule
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                       cross_check=incremental)
    clients = _mps_setup(env, gpu, n_clients)
    events = []

    def submit(env, client, delay, kernel, cancel_after):
        yield env.timeout(delay)
        done = client.launch(kernel)
        # Spatial groups admit immediately, so the newest resident
        # task with our client is ours.
        mine = [t for t in gpu.pool.tasks
                if t.meta.get("client") is client]
        task = mine[-1] if mine else None
        if cancel_after is not None and task is not None:
            yield env.timeout(cancel_after)
            if not done.triggered and task._pool is gpu.pool:
                gpu.pool.cancel(task)
                events.append(("cancel", env.now))
                return
        yield done
        events.append(("done", env.now))

    def poker(env):
        # External capacity-change notifications interleaved with
        # the admit/cancel churn (the incremental path must survive
        # forced reallocations of an unchanged membership).
        for _ in range(3):
            yield env.timeout(0.07)
            gpu.pool.poke()

    procs = []
    for i, (c, delay, flops, nbytes, max_sms) in enumerate(launches):
        kernel = Kernel(flops=flops, bytes_moved=nbytes,
                        max_sms=max_sms, name=f"k{i}")
        cancel_after = 0.01 if i % 3 == 0 else None
        procs.append(env.process(
            submit(env, clients[c], delay, kernel, cancel_after)))
    env.process(poker(env))
    env.run(until=env.all_of(procs))
    return events, env.now


@given(schedule=launch_schedule())
@settings(max_examples=25, deadline=None)
def test_cancellation_keeps_paths_identical(schedule):
    """Admit/cancel churn (eviction mid-flight) stays bit-identical."""
    assert _cancel_run(schedule, True) == _cancel_run(schedule, False)


@regimes
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=launch_schedule(max_clients=6, max_kernels=14))
@settings(max_examples=10, deadline=None)
def test_incremental_matches_full_recompute_regimes(topology, regime,
                                                     schedule):
    """Both adaptive regimes: twin runs agree exactly, and the
    incremental side passes the cross-check (rates, totals and the
    hook-maintained indexes) after every allocation."""
    with forced_regime(regime):
        inc_times, inc_now, _ = _run(topology, schedule, incremental=True)
        full_times, full_now, _ = _run(topology, schedule,
                                       incremental=False)
    assert (inc_times, inc_now) == (full_times, full_now)


@regimes
@given(schedule=launch_schedule())
@settings(max_examples=10, deadline=None)
def test_cancellation_keeps_paths_identical_regimes(regime, schedule):
    with forced_regime(regime):
        assert _cancel_run(schedule, True) == _cancel_run(schedule, False)


def test_sum_emulation_compensates():
    assert sum_py312([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert sum_py312([0.1] * 10) == 1.0
    assert sum_py312([True, False, True]) == 2


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="the builtin sum compensates from Python 3.12")
def test_sum_emulation_matches_builtin():
    rng = random.Random(1)
    for _ in range(500):
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
                  for _ in range(rng.randint(0, 30))]
        assert sum_py312(values) == sum(values)


def _paths_agree_under_sum_py312(topology, regime, schedule):
    """Twin runs with ``sum_py312`` patched into the device module as
    ``sum``; the cross-check guards every allocation on the way."""
    with mock.patch.object(device, "sum", sum_py312, create=True), \
            forced_regime(regime):
        inc_times, inc_now, _ = _run(topology, schedule, incremental=True)
        full_times, full_now, _ = _run(topology, schedule,
                                       incremental=False)
    assert (inc_times, inc_now) == (full_times, full_now)


#: Schedules on which a compensated ``sum`` in the exact paths made them
#: diverge from the incremental path's running sums (id: topology,
#: regime threshold, schedule).
COMPENSATED_SUM_CASES = {
    "mig-scalar": ("mig", 10**9, (3, [
        (2, 0.01, 1e11, 4e9, 60), (2, 0.0, 2e10, 1e8, 14),
        (0, 0.001, 1e11, 1e8, 14), (1, 0.0, 1e11, 4e9, 108),
        (2, 0.0, 5e9, 4e9, 14)])),
    "mig-vector": ("mig", 1, (3, [
        (1, 0.001, 1e11, 4e9, 14), (1, 0.01, 1e11, 1e8, 60),
        (1, 0.0, 1e11, 4e9, 60)])),
    "mps-scalar": ("mps", 10**9, (4, [
        (3, 0.001, 1e11, 4e9, 60), (3, 0.001, 1e11, 1e8, 60),
        (3, 0.01, 5e9, 1e8, 14), (2, 0.001, 5e9, 7e8, 108)])),
    "mps-vector": ("mps", 1, (2, [
        (1, 0.001, 1e11, 7e8, 40), (1, 0.001, 1e11, 4e9, 108),
        (1, 0.01, 1e11, 7e8, 108), (1, 0.0, 5e9, 7e8, 108)])),
}


@pytest.mark.parametrize("case", sorted(COMPENSATED_SUM_CASES))
def test_paths_agree_under_compensated_sum(case):
    """From Python 3.12 the builtin ``sum`` adds floats with Neumaier
    compensation, so it rounds differently from a running sum; neither
    allocation path may use it for floats."""
    _paths_agree_under_sum_py312(*COMPENSATED_SUM_CASES[case])


@regimes
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=launch_schedule(max_clients=6, max_kernels=14))
@settings(max_examples=10, deadline=None)
def test_paths_agree_under_compensated_sum_random(topology, regime,
                                                  schedule):
    _paths_agree_under_sum_py312(topology, regime, schedule)


def test_solo_fast_path_and_counters():
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    clients = _mps_setup(env, gpu, 2)

    def one(env):
        yield clients[0].launch(Kernel(flops=1e10, bytes_moved=1e8,
                                       max_sms=40))

    env.run(until=env.process(one(env)))
    # A single resident kernel goes through the solo collapse.
    assert gpu.alloc_fast_path > 0
    assert gpu.alloc_calls > 0

    def two(env):
        a = clients[0].launch(Kernel(flops=1e11, bytes_moved=1e8, max_sms=40))
        b = clients[1].launch(Kernel(flops=1e11, bytes_moved=1e8, max_sms=40))
        yield env.all_of([a, b])

    env.run(until=env.process(two(env)))
    assert gpu.alloc_group_recomputes > 0


def test_group_reuse_skips_clean_groups():
    """With two MIG groups, churn in one must not recompute the other."""
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    # Four clients over two MIG instances (even index -> instance 0).
    clients = _mig_setup(env, gpu, 4)

    def busy(env, client, n):
        for _ in range(n):
            yield client.launch(Kernel(flops=1e10, bytes_moved=1e7,
                                       max_sms=14))

    # Instance 0 churns (two clients trading short kernels) while
    # instance 1 holds one long kernel: every churn event dirties only
    # group 0, so group 1's cached state must be reused.  (Reuse needs
    # at least two resident tasks throughout — a single resident kernel
    # takes the solo path, which drops the cache on purpose.)
    def long_one(env):
        yield clients[1].launch(Kernel(flops=5e12, bytes_moved=1e7,
                                       max_sms=28))

    procs = [env.process(busy(env, clients[0], 10)),
             env.process(busy(env, clients[2], 10)),
             env.process(long_one(env))]
    env.run(until=env.all_of(procs))
    assert gpu.alloc_group_reuses > 0
    assert gpu.alloc_group_recomputes > 0


def test_group_order_is_checked_exactly():
    """The hook keeps the records in first-admission order, and the
    cross-check compares that order exactly: two swapped records fail
    the next allocation."""
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    clients = _mig_setup(env, gpu, 2)
    for client in clients:
        client.launch(Kernel(flops=1e12, bytes_moved=1e9, max_sms=14))
    ordered = gpu._ordered
    assert [st.group for st in ordered] == [c.group for c in clients]
    ordered[0], ordered[1] = ordered[1], ordered[0]
    with pytest.raises(AllocatorMismatch, match="group order"):
        clients[0].launch(Kernel(flops=1e12, bytes_moved=1e9, max_sms=14))


def test_incremental_default_on_and_env_cross_check(monkeypatch):
    monkeypatch.setenv("REPRO_ALLOC_CHECK", "1")
    env = Environment()
    gpu = SimulatedGPU(env, SPEC)
    assert gpu.incremental is True
    assert gpu.cross_check is True
    monkeypatch.setenv("REPRO_ALLOC_CHECK", "0")
    assert SimulatedGPU(Environment(), SPEC).cross_check is False


# -------------------------------------------------------- allocation memo

#: (flops, bytes moved, max SMs): compute-bound, memory-bound and
#: bytes-free kernels, so recurring groups still mix rate regimes.
SHAPES = [(2e10, 1e8, 40), (5e9, 4e9, 108), (1e10, 0.0, 14)]
PERCENTAGES = [25, 50, 100]


@st.composite
def palette_schedule(draw, max_clients=4, max_kernels=10):
    """Per-client MPS percentages plus launches from the shape palette.

    The first two launches come from distinct clients at delay 0, so the
    first multi-kernel allocation has no repeated client and a replay of
    the schedule must hit the memo.
    """
    n_clients = draw(st.integers(min_value=2, max_value=max_clients))
    pcts = [draw(st.sampled_from(PERCENTAGES)) for _ in range(n_clients)]
    n_kernels = draw(st.integers(min_value=2, max_value=max_kernels))
    launches = []
    for i in range(n_kernels):
        client = i if i < 2 else draw(
            st.integers(min_value=0, max_value=n_clients - 1))
        delay = 0.0 if i < 2 else draw(st.sampled_from([0.0, 0.001, 0.004]))
        launches.append((client, delay, *draw(st.sampled_from(SHAPES))))
    return pcts, launches


def _palette_clients(topology, env, gpu, pcts):
    if topology == "vgpu":
        # One client per VM: with no context switches inside a VM, the
        # replay reproduces the first pass's group contents exactly.
        manager = VgpuManager(gpu, num_vms=len(pcts))
        return [manager.vm(i).client(f"c{i}") for i in range(len(pcts))]
    if topology == "mps":
        daemon = MpsControlDaemon(gpu)
        daemon.start()
        daemons = [daemon]
    else:
        manager = MigManager(gpu)
        env.run(until=env.process(manager.enable()))
        daemons = [manager.create_instance(profile).enable_mps()
                   for profile in ("1g.5gb", "2g.10gb")]
    return [daemons[i % len(daemons)].client(
                f"c{i}", active_thread_percentage=pct)
            for i, pct in enumerate(pcts)]


def _replay(topology, schedule, incremental=True):
    """Run the schedule twice back to back on one device."""
    pcts, launches = schedule
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                       cross_check=incremental)
    clients = _palette_clients(topology, env, gpu, pcts)
    finished = _drive(env, clients, launches)
    finished += _drive(env, clients, launches)
    return finished, gpu


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=palette_schedule())
@settings(max_examples=20, deadline=None)
def test_memo_hits_are_bit_identical(topology, schedule):
    """Memo hits occur, repeated clients bypass the memo, and neither
    the memo nor clearing it moves any completion time."""
    bypassed = []
    recompute = SimulatedGPU._recompute_group

    def spy(self, state, budget, overhead):
        hits = self.alloc_memo_hits
        recompute(self, state, budget, overhead)
        if state.repeats:
            bypassed.append(self.alloc_memo_hits == hits
                            and state.rmemo is None)

    with mock.patch.object(SimulatedGPU, "_recompute_group", spy):
        times, gpu = _replay(topology, schedule)
    assert gpu.alloc_memo_hits > 0
    assert all(bypassed)
    full_times, _ = _replay(topology, schedule, incremental=False)
    assert times == full_times          # exact float equality, no approx
    with mock.patch.object(device, "_MEMO_MAX", 1):
        cleared_times, _ = _replay(topology, schedule)
    assert cleared_times == times


@regimes
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=palette_schedule())
@settings(max_examples=10, deadline=None)
def test_memo_hits_are_bit_identical_regimes(topology, regime, schedule):
    """Memo hits replay the columns and splits of either regime."""
    with forced_regime(regime):
        times, gpu = _replay(topology, schedule)
        full_times, _ = _replay(topology, schedule, incremental=False)
    assert gpu.alloc_memo_hits > 0
    assert times == full_times


def test_multi_stream_client_bypasses_memo():
    """A client with several resident streams never takes the memo."""
    env = Environment()
    gpu = SimulatedGPU(env, SPEC, incremental=True, cross_check=True)
    (client,) = _mps_setup(env, gpu, 1)
    launches = [(0, 0.0, 2e10, 1e8, 40), (0, 0.0, 5e9, 4e9, 108)]
    _drive(env, [client], launches)
    _drive(env, [client], launches)
    assert gpu.alloc_group_recomputes > 0
    assert gpu.alloc_memo_hits == 0



def test_memo_separates_budget_and_overhead():
    """Groups with the same kernel classes but a different SM budget or
    overhead factor must not share memoised columns or rates."""
    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        clients = []
        for g, (budget, overhead) in enumerate([(14, 1.0), (28, 1.0),
                                                (28, 0.5)]):
            group = gpu.add_group(device.ShareGroup(
                name=f"g{g}", device=gpu, sm_budget=budget, bw_cap=None,
                memory=MemoryPool(SPEC.memory_bytes / 3, name=f"g{g}-mem"),
                overhead_factor=overhead))
            clients += [device.GpuClient(gpu, group, f"g{g}c{i}")
                        for i in range(2)]
        # Two 14-SM kernels per group: the 14-SM group halves them and
        # the 28-SM groups do not, so identical classes need different
        # columns; the last group's overhead needs different rates.
        launches = [(i, 0.0, 2e10, 1e8, 14) for i in range(len(clients))]
        return _drive(env, clients, launches), gpu

    times, gpu = run(True)
    assert gpu.alloc_memo_hits > 0
    assert times == run(False)[0]


# ------------------------------------------------------------ class cache


def _rounds(clients, kernels):
    """Three rounds in which every client launches a kernel of the
    shared set, so the same kernel objects recur across clients.  The
    rounds start far enough apart not to overlap, so no client has two
    resident kernels and a replay of the rounds hits the memo."""
    return [(client, delay, kernels[(i + j) % len(kernels)])
            for j, delay in enumerate((0.0, 0.05, 0.1))
            for i, client in enumerate(clients)]


def _mps_caps(env, gpu, kernels, replays=2):
    """MPS clients with different SM caps launching one kernel object."""
    daemon = MpsControlDaemon(gpu)
    daemon.start()
    clients = [daemon.client(f"c{i}", active_thread_percentage=pct)
               for i, pct in enumerate((25, 50, 100, 50))]
    times = []
    for _ in range(replays):
        times += _launch_all(env, _rounds(clients, kernels))
    return times


def _mig_toggle(env, gpu, kernels):
    """MPS on the whole device, then MIG (the default group's budget
    drops to 0), then MPS again once MIG is disabled (back to all SMs),
    with the same kernel objects in every phase."""
    def whole_device():
        daemon = MpsControlDaemon(gpu)
        daemon.start()
        clients = [daemon.client(f"d{i}", active_thread_percentage=pct)
                   for i, pct in enumerate((50, 100))]
        times = _launch_all(env, _rounds(clients, kernels))
        for client in clients:
            client.close()
        daemon.stop()
        return times

    times = whole_device()
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    instances = [manager.create_instance(profile)
                 for profile in ("1g.5gb", "2g.10gb")]
    clients = [inst.enable_mps().client(f"m{i}", active_thread_percentage=pct)
               for i, inst in enumerate(instances) for pct in (50, 100)]
    times += _launch_all(env, _rounds(clients, kernels))
    for client in clients:
        client.close()
    for inst in instances:
        manager.destroy_instance(inst)
    env.run(until=env.process(manager.disable()))
    return times + whole_device()


def _vgpu_fair(env, gpu, kernels):
    """Fair-policy VMs: each group's budget follows the active VM count."""
    manager = VgpuManager(gpu, num_vms=3)
    clients = [manager.vm(i).client(f"v{i}") for i in range(3)]
    return _launch_all(env, _rounds(clients, kernels))


def _memo_clears(env, gpu, kernels):
    """:func:`_mps_caps` with a memo bound that clears the memo (and the
    class cache with it) several times mid-run, yet lets replays hit."""
    with mock.patch.object(device, "_MEMO_MAX", 28):
        return _mps_caps(env, gpu, kernels, replays=6)


CACHE_SCENARIOS = {"mps-caps": _mps_caps, "mig-toggle": _mig_toggle,
                   "vgpu-fair": _vgpu_fair, "memo-clears": _memo_clears}


@regimes
@pytest.mark.parametrize("scenario", sorted(CACHE_SCENARIOS))
def test_class_cache_matches_full_recompute(scenario, regime):
    """Shared kernel objects take the class cache under every cap and
    budget a run moves through, bit-identically to the full recompute
    (``cross_check`` also verifies every allocation on the way), and
    with the same memo counters as a run that empties the cache before
    every classification."""
    kernels = [Kernel(flops=f, bytes_moved=b, max_sms=m, name=f"s{i}")
               for i, (f, b, m) in enumerate(SHAPES)]
    hits = []
    uncached = [False]
    classify = SimulatedGPU._classify

    def spy(self, st, t):
        if uncached[0]:
            self._kcache.clear()
        hits.append((t.meta["kernel"].kid, t.meta["client"].sm_cap,
                     st.budget) in self._kcache)
        classify(self, st, t)

    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        times = CACHE_SCENARIOS[scenario](env, gpu, kernels)
        return times, (gpu.alloc_group_recomputes, gpu.alloc_memo_hits,
                       gpu.alloc_group_reuses)

    with forced_regime(regime), \
            mock.patch.object(SimulatedGPU, "_classify", spy):
        times, counters = run(True)
        assert any(hits)
        full_times, _ = run(False)
        uncached[0] = True
        ref_times, ref_counters = run(True)
    assert times == full_times == ref_times
    assert counters == ref_counters
