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
vGPU fair-share).  MPS exercises the aggregate-cap shrink and MIG the
per-group bandwidth caps, each instance its own fluid domain.  Only a
domain holding one cap-policy group takes the incremental path, so
vGPU (the fair SM policy with an overhead factor) and a device domain
shared by several groups run the full recompute itself: their twin runs
check that the incremental path hands such a domain over, and back,
exactly.  The
``*_regimes`` tests replay them under both regimes' checks (see
``tests/regimes.py``: the pool's slot layout after every reallocation
and eviction and, in the ``vector`` regime, every advance, column and
split against its numpy computation), and one flat-MPS run keeps more
than 100 kernels resident at once.

The allocation memo (group columns looked up by kernel-class signature)
only hits when group contents recur, which random-float shapes almost
never produce; its tests draw shapes and MPS percentages from a small
palette and replay each schedule twice on one device.  The class cache
(a task's demand, kernel constants and class id looked up by kernel
``kid``, client cap and budget) only hits when kernel *objects* recur,
so its scenarios launch one shared set of kernels throughout.  Both are
the incremental path's, so their hits are asserted for the cap-policy
topologies only.
"""

import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    A100_40GB,
    A100_80GB,
    Kernel,
    MigManager,
    MpsControlDaemon,
    SimulatedGPU,
)
from repro.gpu import device
from repro.gpu.memory import MemoryPool
from repro.gpu.vgpu import VgpuManager
from repro.sim import Environment
from tests.pysum import sum_py312
from tests.regimes import REGIMES, regime_checks

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


def _full_memory_mig_setup(env, gpu, n_clients):
    """``4g.40gb`` + ``3g.40gb`` on an A100-80GB, an MPS daemon in each:
    all eight memory slices, so the two instances' bandwidth caps sum
    to the device bandwidth."""
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    daemons = [manager.create_instance(profile).enable_mps()
               for profile in ("4g.40gb", "3g.40gb")]
    assert (daemons[0].group.bw_cap + daemons[1].group.bw_cap
            == gpu.spec.bandwidth)
    pct = max(1, 100 // n_clients)
    return [daemons[i % 2].client(f"c{i}", active_thread_percentage=pct)
            for i in range(n_clients)]


def _cancel_run(schedule, incremental, spec=SPEC, setup=_mps_setup):
    """Admit/cancel/poke churn (flat MPS by default); returns the event
    log."""
    n_clients, launches = schedule
    env = Environment()
    gpu = SimulatedGPU(env, spec, incremental=incremental,
                       cross_check=incremental)
    clients = setup(env, gpu, n_clients)
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
            if not done.triggered and task._dom is not None:
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


@given(schedule=launch_schedule())
@settings(max_examples=25, deadline=None)
def test_full_memory_mig_layout_keeps_paths_identical(schedule):
    """Admit/cancel/poke churn over MPS clients of a full-memory MIG
    layout, each instance its own fluid domain whose bandwidth cap is
    half the device's: the cross-checked incremental run and the full
    recompute agree exactly."""
    run = (lambda incremental: _cancel_run(
        schedule, incremental, A100_80GB, _full_memory_mig_setup))
    assert run(True) == run(False)


@regimes
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@given(schedule=launch_schedule(max_clients=6, max_kernels=14))
@settings(max_examples=10, deadline=None)
def test_incremental_matches_full_recompute_regimes(topology, regime,
                                                     schedule):
    """Under both regimes' checks: twin runs agree exactly, and the
    incremental side passes the cross-check (rates, totals and the
    hook-maintained indexes) after every allocation."""
    with regime_checks(regime):
        inc_times, inc_now, _ = _run(topology, schedule, incremental=True)
        full_times, full_now, _ = _run(topology, schedule,
                                       incremental=False)
    assert (inc_times, inc_now) == (full_times, full_now)


@regimes
@given(schedule=launch_schedule())
@settings(max_examples=10, deadline=None)
def test_cancellation_keeps_paths_identical_regimes(regime, schedule):
    with regime_checks(regime):
        assert _cancel_run(schedule, True) == _cancel_run(schedule, False)


@regimes
def test_large_flat_mps_pool_matches_full_recompute(regime):
    """112 MPS clients keep more than 100 kernels resident in one pool
    and one share group (the 112-server fleets' regime), some clients
    with two streams: twin runs agree exactly, and the incremental side
    passes the cross-check at every allocation."""
    rng = random.Random(7)
    shapes = [(rng.choice([5e9, 2e10, 8e10]), rng.choice([0.0, 1e8, 2e9]),
               rng.choice([14, 40, 108])) for _ in range(160)]

    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        daemon = MpsControlDaemon(gpu)
        daemon.start()
        clients = [daemon.client(f"c{i}", active_thread_percentage=14)
                   for i in range(112)]
        finished = []

        def second_streams():
            yield env.timeout(0.001)
            assert len(gpu.pool) > 100
            for i, shape in enumerate(shapes[112:]):
                launch(clients[i], i + 112, shape)

        def launch(client, i, shape):
            flops, nbytes, max_sms = shape
            done = client.launch(Kernel(flops=flops, bytes_moved=nbytes,
                                        max_sms=max_sms, name=f"k{i}"))
            done.callbacks.append(
                lambda ev: finished.append((i, env.now)))

        for i, shape in enumerate(shapes[:112]):
            launch(clients[i], i, shape)
        assert len(gpu.pool) == 112
        env.process(second_streams())
        env.run()
        return finished, gpu

    with regime_checks(regime):
        times, gpu = run(True)
        full_times, _ = run(False)
    assert len(times) == len(shapes)
    assert times == full_times


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
            regime_checks(regime):
        inc_times, inc_now, _ = _run(topology, schedule, incremental=True)
        full_times, full_now, _ = _run(topology, schedule,
                                       incremental=False)
    assert (inc_times, inc_now) == (full_times, full_now)


#: Schedules on which a compensated ``sum`` in the exact paths made them
#: diverge from the incremental path's running sums (id: topology,
#: numpy oracle, schedule).
COMPENSATED_SUM_CASES = {
    "mig-scalar": ("mig", False, (3, [
        (2, 0.01, 1e11, 4e9, 60), (2, 0.0, 2e10, 1e8, 14),
        (0, 0.001, 1e11, 1e8, 14), (1, 0.0, 1e11, 4e9, 108),
        (2, 0.0, 5e9, 4e9, 14)])),
    "mig-vector": ("mig", True, (3, [
        (1, 0.001, 1e11, 4e9, 14), (1, 0.01, 1e11, 1e8, 60),
        (1, 0.0, 1e11, 4e9, 60)])),
    "mps-scalar": ("mps", False, (4, [
        (3, 0.001, 1e11, 4e9, 60), (3, 0.001, 1e11, 1e8, 60),
        (3, 0.01, 5e9, 1e8, 14), (2, 0.001, 5e9, 7e8, 108)])),
    "mps-vector": ("mps", True, (2, [
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


def _device_groups(gpu, n_clients):
    """Two spatial 54-SM groups with no bandwidth cap of their own, so
    both sit in the device domain; client ``i`` joins group ``i % 2``."""
    groups = [gpu.add_group(device.ShareGroup(
        name=f"g{g}", device=gpu, sm_budget=54, bw_cap=None,
        memory=MemoryPool(SPEC.memory_bytes / 2, name=f"g{g}-mem")))
        for g in range(2)]
    return [device.GpuClient(gpu, groups[i % 2], f"c{i}")
            for i in range(n_clients)]


@pytest.mark.parametrize("poke", [False, True], ids=["plain", "poke"])
def test_group_left_alone_reruns_its_split(poke):
    """Group A (two long memory-bound kernels) runs alone, group B (one
    short kernel) joins the device domain and drains while A's
    residents stay unchanged; with ``poke``, a poke lands while both
    are resident.  The full recompute over both groups halves A's
    bandwidth; once B drains, A's record (its columns unchanged, so
    reused) must rerun its split rather than keep the halved rates,
    even though its share is what it was before B came."""
    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        a0, b0, a1 = _device_groups(gpu, 3)
        launches = [(a0, 0.0, Kernel(flops=1e9, bytes_moved=2e11,
                                     max_sms=40, name="a0")),
                    (a1, 0.0, Kernel(flops=1e9, bytes_moved=2e11,
                                     max_sms=40, name="a1")),
                    (b0, 0.01, Kernel(flops=1e9, bytes_moved=1e10,
                                      max_sms=40, name="b0"))]
        if poke:
            def poker():
                yield env.timeout(0.015)
                assert len(gpu.pool) == 3
                gpu.pool.poke()
            env.process(poker())
        return _launch_all(env, launches), gpu

    times, gpu = run(True)
    assert times == run(False)[0]
    # B drains first, while both of A's kernels are still resident.
    assert times[0] < min(times[1:])
    assert gpu.alloc_group_reuses > 0


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
    # Clients pair up per daemon, so the first two launches share a MIG
    # instance (one fluid domain) and its group.
    return [daemons[i // 2 % len(daemons)].client(
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
    """Memo hits occur (a vGPU domain takes the full recompute, so
    has none), repeated clients bypass the memo, and neither the memo
    nor clearing it moves any completion time."""
    bypassed = []
    recompute = SimulatedGPU._recompute_group

    def spy(self, state):
        hits = self.alloc_memo_hits
        recompute(self, state)
        if state.repeats:
            bypassed.append(self.alloc_memo_hits == hits
                            and state.cols.rmemo is None)

    with mock.patch.object(SimulatedGPU, "_recompute_group", spy):
        times, gpu = _replay(topology, schedule)
    if topology != "vgpu":
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
    """Memo hits replay columns and splits that equal their numpy
    computation (``vector``) under the slot checks of both regimes."""
    with regime_checks(regime):
        times, gpu = _replay(topology, schedule)
        full_times, _ = _replay(topology, schedule, incremental=False)
    if topology != "vgpu":
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
    overhead factor must not share memoised columns or rates.  Each
    group has a bandwidth cap of its own, so it is its own fluid domain
    and takes the incremental path; the memo is the device's, shared
    by all three."""
    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        clients = []
        for g, (budget, overhead) in enumerate([(14, 1.0), (28, 1.0),
                                                (28, 0.5)]):
            group = gpu.add_group(device.ShareGroup(
                name=f"g{g}", device=gpu, sm_budget=budget,
                bw_cap=SPEC.bandwidth / 3,
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
    budget a run moves through (the cap-policy scenarios; vGPU's
    domain takes the full recompute), bit-identically to it
    (``cross_check`` also verifies every allocation on the way), and
    with the same memo counters as a run that empties the cache before
    every classification."""
    kernels = [Kernel(flops=f, bytes_moved=b, max_sms=m, name=f"s{i}")
               for i, (f, b, m) in enumerate(SHAPES)]
    hits = []
    uncached = [False]

    class SpyCache(dict):
        """The class cache, logging every lookup (the membership hook
        and ``_classify`` both look entries up through ``get``); when
        ``uncached``, empty before every lookup."""

        def get(self, key, default=None):
            if uncached[0]:
                self.clear()
            hits.append(key in self)
            return super().get(key, default)

    def run(incremental):
        env = Environment()
        gpu = SimulatedGPU(env, SPEC, incremental=incremental,
                           cross_check=incremental)
        gpu._kcache = SpyCache()
        times = CACHE_SCENARIOS[scenario](env, gpu, kernels)
        return times, (gpu.alloc_group_recomputes, gpu.alloc_memo_hits,
                       gpu.alloc_group_reuses)

    with regime_checks(regime):
        times, counters = run(True)
        if scenario != "vgpu-fair":
            assert any(hits)
        full_times, _ = run(False)
        uncached[0] = True
        ref_times, ref_counters = run(True)
    assert times == full_times == ref_times
    assert counters == ref_counters
