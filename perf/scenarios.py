"""The benchmark workloads, built from the package's public constructors.

Every input -- arrival timestamps and fault plans -- comes from the
benchmark's own seeded numpy generators, so editing the program's trace
generators or ``repro.bench`` helpers cannot move a workload.  A workload
is a fixed number of *episodes*: independent scenarios with their own
inputs.  For each episode, ``build`` is the untimed set-up,
``Episode.run`` the timed section (the event loop), and
``Episode.result`` reads the simulated outcome, the program's public
counters and the correctness checks.

All simulated arrivals are open loop: a request is due at its generated
timestamp whatever the fleet is doing, and its latency runs from that
timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.faas.chaos import ChaosController, FaultEvent, FaultPlan
from repro.gpu.device import SimulatedGPU
from repro.gpu.mig import MigManager
from repro.gpu.specs import A100_80GB
from repro.sim.core import Environment
from repro.telemetry.streaming import StreamingLatencyStats
from repro.workloads.autoscale import FleetAutoscaler
from repro.workloads.fleet import (AutoscaledServingFleet, FleetFunction,
                                   ServingFleet)
from repro.workloads.llm import LLAMA2_7B, InferenceRuntime, LlamaInference
from repro.workloads.resilience import SLOPolicy
from repro.workloads.serving import InferenceServer, OpenLoopClient

__all__ = ["WORKLOADS", "aggregate", "episode_digest", "json_digest"]

#: Tokens per completion request in every serving workload.
N_TOKENS = 16


# -- seeded input generators --------------------------------------------------

def _rngs(seed: int, workload: int, episode: int, n: int) -> list:
    """``n`` independent generators for one episode of one workload."""
    seq = np.random.SeedSequence([seed, workload, episode])
    return [np.random.default_rng(child) for child in seq.spawn(n)]


# Arrivals and faults are Poisson processes conditioned on their count:
# the count is fixed by rate x horizon and the times are independent
# draws from the rate profile.  Every episode then offers exactly its
# nominal load and fault rate, which removes the largest seed-to-seed
# swings in the simulated metrics of a fleet run near saturation.

def _uniform_arrivals(rng, shape, horizon: float) -> np.ndarray:
    """Constant-rate event times: sorted uniform draws over the horizon."""
    return np.sort(rng.uniform(0.0, horizon, shape), axis=-1)


def _diurnal_arrivals(rng, mean_rps: float, horizon: float, period: float,
                      depth: float, phase: float) -> np.ndarray:
    """``mean_rps * horizon`` arrivals drawn from the sinusoidal profile
    ``mean * (1 + depth * sin(2 pi t / period + phase))`` by rejection."""
    n = int(round(mean_rps * horizon))
    accepted = np.empty(0)
    while accepted.size < n:
        t = rng.uniform(0.0, horizon, 2 * n)
        shape = 1.0 + depth * np.sin(2.0 * math.pi * t / period + phase)
        keep = rng.uniform(size=t.size) * (1.0 + depth) < shape
        accepted = np.concatenate((accepted, t[keep]))
    return np.sort(accepted[:n])


def _fault_plan(rng, horizon: float, mix) -> FaultPlan:
    """``horizon / mtbf`` faults per ``(kind, mtbf, duration, factor)``,
    at uniform times, merged."""
    events = []
    for kind, mtbf, duration, factor in mix:
        times = _uniform_arrivals(rng, int(round(horizon / mtbf)), horizon)
        targets = rng.integers(0, 2**31 - 1, size=times.size)
        events.extend(FaultEvent(float(t), kind, int(x), duration, factor)
                      for t, x in zip(times, targets))
    return FaultPlan(events)


# -- shared helpers -----------------------------------------------------------

class LatencyCollector:
    """Keeps every request latency (for exact percentiles) and forwards it
    to the program's own streaming statistics."""

    def __init__(self, sink=None):
        self.values: list[float] = []
        self.sink = sink

    def add(self, latency: float) -> None:
        self.values.append(latency)
        if self.sink is not None:
            self.sink.add(latency)


def _device_counters(gpus) -> dict:
    return {
        "kernels": sum(g.kernels_completed for g in gpus),
        "alloc_calls": sum(g.alloc_calls for g in gpus),
        "group_recomputes": sum(g.alloc_group_recomputes for g in gpus),
        "group_reuses": sum(g.alloc_group_reuses for g in gpus),
        "fast_path": sum(g.alloc_fast_path for g in gpus),
        "sm_seconds": sum(g.sm_seconds for g in gpus),
        "sm_capacity_seconds": sum(g.spec.sms * g.env.now for g in gpus),
    }


def _router_counters(stats_list) -> dict:
    names = ("attempts", "retries", "hedges", "hedge_wins",
             "wasted_attempts", "breaker_opens", "resize_attempts",
             "resize_aborts", "resize_rollbacks")
    out = {n: sum(getattr(s, n) for s in stats_list) for n in names}
    out["records"] = sum(s.latency.count for s in stats_list)
    return out


def _conservation(offered: int, completed: int, shed: int, failed: int,
                  submitted: int) -> list:
    lost = offered - completed - shed - failed
    return [
        ("offered == completed + shed + failed", lost == 0,
         f"offered {offered}, completed {completed}, shed {shed}, "
         f"failed {failed}"),
        ("every generated arrival was offered", offered == submitted,
         f"offered {offered} of {submitted}"),
    ]


def json_digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def episode_digest(result: dict) -> str:
    """Digest of one episode's simulated outcome (not its counters)."""
    h = hashlib.sha256(json.dumps(result["outcome"], sort_keys=True).encode())
    h.update(np.ascontiguousarray(result["latencies"], "<f8").tobytes())
    return h.hexdigest()


def _quantile(values: np.ndarray, q: float) -> float:
    """Exact (inverted-CDF) quantile."""
    return float(np.quantile(values, q, method="inverted_cdf"))


class _Episode:
    """A built scenario: ``run`` is timed, ``result`` is not.

    A subclass sets ``env``, ``done`` (the event that ends the run) and
    ``last_arrival`` (the simulated time of the last request)."""

    def run(self, timed) -> None:
        """Run the event loop until ``done``, in slices of the workload's
        ``slice_seconds`` of simulated time; ``timed(fn)`` runs each.

        ``done`` cannot fire before the last arrival, so up to it the loop
        runs in slices of ``Environment.advance``, which processes the
        same events in the same order as one ``run(until=done)``; the
        rest is one ``run(until=done)``.
        """
        env, step = self.env, self.wl.slice_seconds
        horizon = env.now + step
        while horizon < self.last_arrival:
            timed(lambda: env.advance(horizon))
            horizon += step
        timed(lambda: env.run(until=self.done))


# -- stream-mig-mps -----------------------------------------------------------

class StreamMigMps:
    """The engine alone: one A100-80GB as 7 x 1g.10gb MIG instances, an MPS
    daemon in each, 16 batch-1 LLaMa-2-7B int8 servers per instance, under
    Poisson load at ~95% of capacity.  No router, faults or controller."""

    name = "stream-mig-mps"
    index = 0
    instances = 7
    servers_per_instance = 16
    rate_rps = 3.88
    slo_seconds = 60.0
    #: Simulated seconds per timed slice: ~25 ms of host time at the
    #: reference speed, for each workload.
    slice_seconds = 5.0
    episodes = 4
    requests_per_server = 20          # 2,240 requests per episode
    smoke_episodes = 1
    smoke_requests_per_server = 3

    def inputs(self, seed: int, episode: int, smoke: bool) -> dict:
        (rng,) = _rngs(seed, self.index, episode, 1)
        n_servers = self.instances * self.servers_per_instance
        per_server = (self.smoke_requests_per_server if smoke
                      else self.requests_per_server)
        horizon = per_server * n_servers / self.rate_rps
        return {"arrivals": _uniform_arrivals(rng, (n_servers, per_server),
                                              horizon)}

    def build(self, inputs: dict) -> _Episode:
        return _StreamEpisode(self, inputs)


class _StreamEpisode(_Episode):
    def __init__(self, wl: StreamMigMps, inputs: dict):
        self.wl = wl
        self.env = env = Environment()
        self.gpu = SimulatedGPU(env, A100_80GB, cross_check=False)
        manager = MigManager(self.gpu)
        env.run(until=env.process(manager.enable()))
        llm = LlamaInference(LLAMA2_7B, InferenceRuntime(dtype_bytes=1))
        self.stats = StreamingLatencyStats()
        self.collector = LatencyCollector(self.stats)
        arrivals = inputs["arrivals"] + env.now
        self.submitted = int(arrivals.size)
        self.last_arrival = float(arrivals.max())
        clients = []
        for i in range(wl.instances):
            daemon = manager.create_instance("1g.10gb").enable_mps()
            for j in range(wl.servers_per_instance):
                k = i * wl.servers_per_instance + j
                server = InferenceServer(env, daemon.client(f"srv{k}"), llm,
                                         max_batch_size=1,
                                         keep_completed=False)
                clients.append(OpenLoopClient(
                    env, server, arrivals=[arrivals[k]], n_tokens=N_TOKENS,
                    streaming=True, stats=self.collector))
        self.clients = clients
        self.done = env.all_of([c.done for c in clients])
        self.events0 = env.events_processed

    def result(self) -> dict:
        lat = np.asarray(self.collector.values, dtype=np.float64)
        offered = sum(c.n_submitted for c in self.clients)
        completed = int(lat.size)
        outcome = {
            "offered": offered, "completed": completed, "shed": 0,
            "failed": 0, "good": int((lat <= self.wl.slo_seconds).sum()),
            "gpu_seconds": self.env.now, "sim_seconds": self.env.now,
        }
        counters = {"events": self.env.events_processed - self.events0,
                    "records": self.stats.count,
                    **_device_counters([self.gpu])}
        return {"ops": offered, "outcome": outcome, "latencies": lat,
                "counters": counters,
                "checks": _conservation(offered, completed, 0, 0,
                                        self.submitted)}


# -- chaos-mps-flat -----------------------------------------------------------

class ChaosMpsFlat:
    """The same 112 replicas as one flat MPS group behind the resilient
    router (60 s deadline), under the data-plane fault mix."""

    name = "chaos-mps-flat"
    index = 1
    #: ~77% of capacity.  At 3.4 rps (~88%) Poisson bursts congest the
    #: group for minutes: an episode's mean resident count ranged 7-21
    #: with the seed, and the allocator's cost per event grows with it.
    #: Over ten seeds a run's mean resident count had a quartile spread
    #: of 0.21 at 3.4 rps and of 0.06 at 3.0 rps.
    rate_rps = 3.0
    deadline_seconds = 60.0
    slice_seconds = 6.0
    #: (kind, MTBF s, duration s, factor): the canonical data-plane mix.
    faults = (("ecc", 80.0, 0.0, 1.0),
              ("replica_crash", 80.0, 5.0, 1.0),
              ("straggler_replica", 60.0, 10.0, 4.0),
              ("launch_failure", 40.0, 0.0, 1.0),
              ("reconfig_stall", 120.0, 2.0, 1.0))
    episodes = 6
    requests = 1_250
    smoke_episodes = 1
    smoke_requests = 300

    def inputs(self, seed: int, episode: int, smoke: bool) -> dict:
        arr_rng, fault_rng, router_rng = _rngs(seed, self.index, episode, 3)
        n = self.smoke_requests if smoke else self.requests
        horizon = n / self.rate_rps
        return {"arrivals": _uniform_arrivals(arr_rng, n, horizon),
                "plan": _fault_plan(fault_rng, horizon, self.faults),
                "router_seed": int(router_rng.integers(2**31 - 1))}

    def build(self, inputs: dict) -> _Episode:
        return _ChaosEpisode(self, inputs)


class _ChaosEpisode(_Episode):
    def __init__(self, wl: ChaosMpsFlat, inputs: dict):
        self.wl = wl
        self.env = env = Environment()
        self.fleet = ServingFleet(
            env, mode="mps", n_partitions=7, servers_per_partition=16,
            policy=SLOPolicy(deadline_seconds=wl.deadline_seconds),
            seed=inputs["router_seed"])
        self.collector = LatencyCollector()
        self.fleet.stats.on_completion = \
            lambda latency, in_slo: self.collector.add(latency)
        self.chaos = ChaosController(env, self.fleet, inputs["plan"])
        arrivals = inputs["arrivals"] + env.now
        self.submitted = int(arrivals.size)
        self.last_arrival = float(arrivals.max())
        self.client = OpenLoopClient(
            env, self.fleet.router, arrivals=[arrivals], n_tokens=N_TOKENS,
            streaming=True)
        self.done = self.client.done
        self.events0 = env.events_processed

    def result(self) -> dict:
        s = self.fleet.stats
        outcome = {
            "offered": s.offered, "completed": s.completed, "shed": s.shed,
            "failed": s.failed, "good": s.slo_ok,
            "gpu_seconds": self.env.now, "sim_seconds": self.env.now,
            "faults": [list(entry) for entry in self.chaos.applied],
        }
        counters = {"events": self.env.events_processed - self.events0,
                    "faults_applied": len(self.chaos.applied),
                    "fleet_gpu_seconds": outcome["gpu_seconds"],
                    **_router_counters([s]),
                    **_device_counters([self.fleet.device])}
        return {"ops": s.offered, "outcome": outcome,
                "latencies": np.asarray(self.collector.values, np.float64),
                "counters": counters,
                "checks": _conservation(s.offered, s.completed, s.shed,
                                        s.failed, self.submitted)}


# -- diurnal-autoscale --------------------------------------------------------

class DiurnalAutoscale:
    """A hot and a cold function on 3 flat-MPS replicas each, anti-phased
    diurnal demand, the closed-loop autoscaler, and the control-plane fault
    mix (stuck resize drains, corrupt weight cache, sensor faults)."""

    name = "diurnal-autoscale"
    index = 2
    replicas = 3
    slo_seconds = 6.0
    initial_pct = {"hot": 17, "cold": 16}
    mean_rps = {"hot": 0.9, "cold": 0.45}
    phase = {"hot": 0.0, "cold": math.pi}
    period_seconds = 600.0
    depth = 0.8
    interval_seconds = 30.0
    cooldown_seconds = 120.0
    slice_seconds = 22.0
    faults = (("resize_stuck", 100.0, 150.0, 1.0),
              ("cache_load_failure", 300.0, 0.0, 1.0),
              ("sensor_dropout", 300.0, 75.0, 1.0),
              ("telemetry_corruption", 250.0, 60.0, 8.0))
    episodes = 4
    horizon_seconds = 2_400.0         # four diurnal periods per episode
    smoke_episodes = 1
    smoke_horizon_seconds = 600.0

    def inputs(self, seed: int, episode: int, smoke: bool) -> dict:
        hot_rng, cold_rng, fault_rng, fleet_rng = _rngs(
            seed, self.index, episode, 4)
        horizon = self.smoke_horizon_seconds if smoke else self.horizon_seconds
        arrivals = {
            name: _diurnal_arrivals(rng, self.mean_rps[name], horizon,
                                    self.period_seconds, self.depth,
                                    self.phase[name])
            for name, rng in (("hot", hot_rng), ("cold", cold_rng))}
        return {"arrivals": arrivals, "horizon": horizon,
                "plan": _fault_plan(fault_rng, horizon, self.faults),
                "fleet_seed": int(fleet_rng.integers(2**31 - 1))}

    def build(self, inputs: dict) -> _Episode:
        return _DiurnalEpisode(self, inputs)


class _DiurnalEpisode(_Episode):
    def __init__(self, wl: DiurnalAutoscale, inputs: dict):
        self.wl = wl
        self.env = env = Environment()
        functions = [FleetFunction(name, wl.replicas, wl.slo_seconds,
                                   wl.initial_pct[name], n_tokens=N_TOKENS)
                     for name in ("hot", "cold")]
        self.fleet = AutoscaledServingFleet(env, functions,
                                            seed=inputs["fleet_seed"])
        self.collector = LatencyCollector()
        self.cap_violations = 0
        for group in self.fleet.groups.values():
            # Installed before the autoscaler, which chains onto it.
            group.stats.on_completion = self._tap(group)
        self.autoscaler = FleetAutoscaler(
            self.fleet, interval_seconds=wl.interval_seconds,
            cooldown_seconds=wl.cooldown_seconds)
        self.autoscaler.start()
        self.chaos = ChaosController(env, self.fleet, inputs["plan"],
                                     horizon=inputs["horizon"])
        arrivals = {name: a + env.now
                    for name, a in inputs["arrivals"].items()}
        self.submitted = sum(int(a.size) for a in arrivals.values())
        self.last_arrival = max(float(a.max()) for a in arrivals.values())
        self.clients = [
            OpenLoopClient(env, self.fleet.groups[name].router,
                           arrivals=[a], n_tokens=N_TOKENS, streaming=True)
            for name, a in arrivals.items()]
        self.done = env.all_of([c.done for c in self.clients])
        self.events0 = env.events_processed

    def _tap(self, group):
        collector = self.collector

        def on_completion(latency: float, in_slo: bool) -> None:
            collector.add(latency)
            # The replica-weighted MPS cap sum of one function must never
            # exceed the whole GPU, including mid-resize.
            if sum(group.pct_by_replica) > 100:
                self.cap_violations += 1
        return on_completion

    def result(self) -> dict:
        self.autoscaler.stop()
        groups = list(self.fleet.groups.values())
        stats = [g.stats for g in groups]
        offered = sum(s.offered for s in stats)
        completed = sum(s.completed for s in stats)
        shed = sum(s.shed for s in stats)
        failed = sum(s.failed for s in stats)
        summary = self.autoscaler.summary()
        outcome = {
            "offered": offered, "completed": completed, "shed": shed,
            "failed": failed, "good": sum(s.slo_ok for s in stats),
            "gpu_seconds": self.fleet.provisioned_gpu_seconds(),
            "sim_seconds": self.env.now,
            "final_pcts": {g.name: g.current_pct for g in groups},
            "autoscaler": summary,
            "faults": [list(entry) for entry in self.chaos.applied],
        }
        counters = {"events": self.env.events_processed - self.events0,
                    "faults_applied": len(self.chaos.applied),
                    "fleet_gpu_seconds": outcome["gpu_seconds"],
                    "ticks": summary["ticks"],
                    "degraded_ticks": summary["degraded_ticks"],
                    "reconfigurations": summary["reconfigurations"],
                    "replica_restarts": summary["replica_restarts"],
                    "weight_cache_hits": summary["weight_cache_hits"],
                    "reconfig_downtime_s":
                        summary["reconfiguration_downtime"],
                    **_router_counters(stats),
                    **_device_counters([self.fleet.device])}
        checks = _conservation(offered, completed, shed, failed,
                               self.submitted)
        checks += [
            ("resize_rollbacks == resize_aborts",
             summary["resize_rollbacks"] == summary["resize_aborts"],
             f"rollbacks {summary['resize_rollbacks']}, "
             f"aborts {summary['resize_aborts']}"),
            ("per-function MPS cap sum <= 100 at every completion and at "
             "the end",
             self.cap_violations == 0
             and all(sum(g.pct_by_replica) <= 100 for g in groups),
             f"{self.cap_violations} violating completions"),
        ]
        return {"ops": offered, "outcome": outcome,
                "latencies": np.asarray(self.collector.values, np.float64),
                "counters": counters, "checks": checks}


WORKLOADS = {wl.name: wl for wl in (StreamMigMps(), ChaosMpsFlat(),
                                    DiurnalAutoscale())}


# -- payload aggregation ------------------------------------------------------

def aggregate(results: list) -> dict:
    """The simulated end-to-end metrics over a workload's episodes."""
    lat = np.concatenate([r["latencies"] for r in results])
    out = [r["outcome"] for r in results]
    good = sum(o["good"] for o in out)
    return {
        "sim_latency_p50_s": _quantile(lat, 0.50),
        "sim_latency_p99_s": _quantile(lat, 0.99),
        "slo_good_fraction": good / sum(o["offered"] for o in out),
        "gpu_s_per_good_request":
            sum(o["gpu_seconds"] for o in out) / good,
        "latency_samples": int(lat.size),
    }
