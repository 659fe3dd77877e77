"""Cross-check of the MIG-nested MPS regime under batch-1 decode.

Seven ``1g.10gb`` MIG instances of an A100-80GB, an MPS daemon in each
and three batch-1 LLaMa-2-7B servers per daemon, under open-loop
arrivals: every token is one kernel in one of seven cap-policy groups,
each in its own fluid domain, so nearly every allocation pass with two
or more residents recomputes its domain's one record from the memo.
``cross_check=True`` compares every pass with the full recompute (and
recounts the membership indexes), raising ``AllocatorMismatch`` on the
first difference.
"""

import numpy as np

from repro.gpu import A100_80GB, MigManager, SimulatedGPU
from repro.sim import Environment
from repro.telemetry.streaming import StreamingLatencyStats
from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
from repro.workloads.serving import InferenceServer, OpenLoopClient

INSTANCES = 7
SERVERS_PER_INSTANCE = 3
REQUESTS_PER_SERVER = 3
N_TOKENS = 8


def test_mig_nested_decode_matches_full_recompute():
    env = Environment()
    gpu = SimulatedGPU(env, A100_80GB, cross_check=True)
    manager = MigManager(gpu)
    env.run(until=env.process(manager.enable()))
    llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
    stats = StreamingLatencyStats()
    # A 3 s burst keeps every group busy: 63 requests queue on 21
    # batch-1 servers.
    rng = np.random.default_rng(11)
    n_servers = INSTANCES * SERVERS_PER_INSTANCE
    arrivals = env.now + np.sort(
        rng.uniform(0.0, 3.0, (n_servers, REQUESTS_PER_SERVER)), axis=1)
    clients = []
    for i in range(INSTANCES):
        daemon = manager.create_instance("1g.10gb").enable_mps()
        for j in range(SERVERS_PER_INSTANCE):
            k = i * SERVERS_PER_INSTANCE + j
            server = InferenceServer(env, daemon.client(f"srv{k}"), llm,
                                     max_batch_size=1, keep_completed=False)
            clients.append(OpenLoopClient(
                env, server, arrivals=arrivals[k].tolist(),
                n_tokens=N_TOKENS, streaming=True, stats=stats))

    env.run(until=env.all_of([c.done for c in clients]))

    assert stats.count == n_servers * REQUESTS_PER_SERVER
    assert gpu.kernels_completed == stats.count * N_TOKENS
    assert not gpu._groups  # every record dropped with its last task
    # The memo-hit path carries the run: most recomputes are hits.  Each
    # instance is its own fluid domain, so a pass allocates one group
    # and never visits the other six.
    assert gpu.alloc_memo_hits > 0.9 * gpu.alloc_group_recomputes
    assert gpu.alloc_group_reuses == 0
