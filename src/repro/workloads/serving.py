"""Dynamic-batching LLM inference serving.

An extension study on top of the paper: partitioning (Figs. 4/5) is one
way to raise GPU utilization for small-batch inference — *batching* is
the classic other.  This module implements a serving loop with dynamic
batching over the simulated GPU so the two can be compared (see
``benchmarks/test_extension_batching.py``).

Batching economics in the cost model: the decode kernel's weight traffic
is shared across the batch (read once per step), while per-sequence
KV-cache traffic and FLOPs scale with the batch — so batching amortizes
exactly the memory-bound component that throttles multi-process MPS
sharing.  Larger batches also expose more parallelism (higher
``max_sms``).

Scale notes
-----------
The default mode retains every completed request (``server.completed``,
``client.requests``) for post-hoc analysis — O(n) memory.  For
million-request runs both ends support a *streaming* mode: the server
takes ``keep_completed=False`` plus an optional ``on_complete``
callback, and the client takes ``streaming=True`` plus an optional
:class:`~repro.telemetry.streaming.StreamingLatencyStats` sink, so the
run completes in bounded memory.  In streaming mode inter-arrival gaps
are drawn from numpy in chunks (bit-identical to per-draw scalars when
the client owns its generator), and the hot loops draw recycled
timeouts from the environment's free list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.sim.core import Environment, Event
from repro.sim.process import Interrupt
from repro.sim.resources import Store
from repro.gpu.device import GpuClient
from repro.gpu.faults import GpuLaunchError
from repro.gpu.kernel import Kernel
from repro.workloads.llm import LlamaInference

__all__ = ["InferenceRequest", "InferenceServer", "OpenLoopClient"]

_request_ids = itertools.count()

#: Gap draws per numpy call in the open-loop generator.
_GAP_CHUNK = 4096


def _unrouted() -> None:
    """The routing hook of a server no router watches."""


@dataclass(slots=True)
class InferenceRequest:
    """One text-completion request."""

    n_tokens: int
    arrival_time: float
    rid: int = field(default_factory=lambda: next(_request_ids))
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    done: Optional[Event] = None

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time


class InferenceServer:
    """Serves one model from one GPU partition with dynamic batching.

    The loop waits for at least one request, then admits up to
    ``max_batch_size`` requests that arrive within ``batch_timeout``
    before running the whole batch's decode steps together.

    With ``keep_completed=False`` the server stops retaining finished
    requests (``completed`` stays empty and ``batch_sizes`` stops
    growing); aggregate counters (``n_completed``, ``mean_batch_size``)
    keep working, and ``on_complete`` — called with each finished
    request before its ``done`` event fires — is the hook for streaming
    accumulators.

    Fault model
    -----------
    A kernel failure (injected ECC error, transient launch rejection)
    is *contained*: the in-flight batch's requests fail — through
    ``on_failure`` and each request's ``done`` event — and the serving
    loop moves on to the next batch instead of dying.  :meth:`crash`
    kills the whole replica: queued and in-flight requests fail, the
    resident kernels are torn down, and further ``submit`` calls raise.
    ``slowdown`` (host-side straggling), ``stall_until`` (reconfig
    pause before the next batch), and ``fail_next_launches`` (transient
    launch faults) are the knobs the chaos controller drives; all three
    are free — no extra events, identical float arithmetic — at their
    defaults.
    """

    def __init__(self, env: Environment, client: GpuClient,
                 llm: LlamaInference, max_batch_size: int = 4,
                 batch_timeout: float = 0.01,
                 keep_completed: bool = True,
                 on_complete: Optional[
                     Callable[[InferenceRequest], None]] = None,
                 on_failure: Optional[
                     Callable[[InferenceRequest, BaseException],
                              None]] = None,
                 name: Optional[str] = None):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if batch_timeout < 0:
            raise ValueError("batch_timeout must be non-negative")
        self.env = env
        self.client = client
        self.llm = llm
        self.max_batch_size = max_batch_size
        self.batch_timeout = batch_timeout
        self.keep_completed = keep_completed
        # Kernel objects are immutable values: the decode kernel for a
        # given batch size never changes over a server's lifetime, so
        # memoising it avoids rebuilding an identical Kernel per decode
        # step (a few million allocations in a million-request run).
        self._kernel_by_batch: dict[int, Kernel] = {}
        self.on_complete = on_complete
        self.on_failure = on_failure
        #: Routing hook: called after every change to ``queue_depth`` or
        #: ``alive`` (a router keeps its replica index current with it).
        self._on_change: Callable[[], None] = _unrouted
        self.name = name if name is not None else client.name
        self._queue = Store(env, name="inference-requests")
        self.completed: list[InferenceRequest] = []
        self.batch_sizes: list[int] = []
        self.n_completed = 0
        self.n_failed = 0
        self._n_batches = 0
        self._batch_size_sum = 0
        #: False once the replica has crashed (submit raises).
        self.alive = True
        #: Host-side straggler factor (>1 stretches the per-token gap).
        self.slowdown = 1.0
        #: The loop admits no new batch before this simulated time.
        self.stall_until = 0.0
        #: Transient-fault budget: each pending unit rejects one launch.
        self.fail_next_launches = 0
        self._active: list[InferenceRequest] = []
        self._pending_get: Optional[Event] = None
        # Reconfiguration drain protocol: pause() blocks batch admission
        # on an event until resume(); _executing is True only while a
        # batch's kernels are actually in flight, so drain() can tell a
        # gathered-but-unlaunched batch (safe to hold) from one whose
        # kernels would die with the client.
        self._pause_event: Optional[Event] = None
        self._executing = False
        self._drain_waiters: list[Event] = []
        # The callback-driven decode (see _execute_batch): decode steps
        # done in the batch, the step at which its next request
        # finishes, and the event the generator waits on meanwhile.
        self._step = 0
        self._next_finish = 0
        self._batch_end: Optional[Event] = None
        #: True from crash() on: the decode callbacks stand down, as a
        #: generator would stop at its next resume.
        self._crashing = False
        self._proc = env.process(self._serve())
        self._proc.defuse()

    # -- client API ---------------------------------------------------------
    def submit(self, n_tokens: int = 20) -> InferenceRequest:
        """Enqueue a request; its ``done`` event fires on completion."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        if not self.alive:
            raise RuntimeError(f"server {self.name!r} has crashed")
        request = InferenceRequest(n_tokens=n_tokens,
                                   arrival_time=self.env.now)
        request.done = self.env.event()
        self._queue.put(request)
        self._on_change()
        return request

    @property
    def queue_depth(self) -> int:
        """Requests waiting or in flight (admission-control signal)."""
        return len(self._queue.items) + len(self._active)

    def crash(self, cause: Optional[BaseException] = None) -> None:
        """Kill the replica now: fail all owned requests and kernels."""
        if not self.alive:
            return
        if cause is None:
            cause = RuntimeError(f"server {self.name!r} crashed")
        # The interrupt handler in _serve does the cleanup, so a crash
        # behaves identically whether injected externally or raised by
        # the loop itself.
        self._crashing = True
        self._proc.interrupt(cause)

    # -- reconfiguration drain protocol -------------------------------------
    @property
    def stalled(self) -> bool:
        """True while the replica admits no new batches.

        Covers both an explicit :meth:`pause` (controller-driven drain)
        and a chaos ``stall_until`` window.  Placement should steer
        around a stalled replica: anything sent here queues behind the
        reconfiguration instead of running.
        """
        return self._pause_event is not None or self.env.now < self.stall_until

    def pause(self) -> None:
        """Stop admitting batches until :meth:`resume` (idempotent).

        Queued requests are held, not failed; an in-flight batch runs to
        completion.  Use :meth:`drain` to wait for that batch.
        """
        if self._pause_event is None:
            self._pause_event = self.env.event()

    def resume(self) -> None:
        """Lift a :meth:`pause`; the serve loop re-checks admission."""
        event = self._pause_event
        self._pause_event = None
        if event is not None:
            event.succeed()

    def drain(self) -> Event:
        """Event that fires once no kernels are in flight.

        Immediate when the server is between batches (a batch gathered
        while paused has launched nothing and is safe to hold); otherwise
        fires when the current batch's last kernel completes or fails.
        Pair with :meth:`pause`, or the loop will start the next batch.
        """
        event = self.env.event()
        if not self._executing:
            event.succeed(self)
        else:
            self._drain_waiters.append(event)
        return event

    def _flush_drained(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for event in waiters:
            event.succeed(self)

    # -- the serving loop -----------------------------------------------------
    def _serve(self):
        env = self.env
        try:
            # Every get may pop a queued item at once, and every resume
            # moves one into the batch (``self._active``): both change
            # ``queue_depth``, so both call the routing hook.
            while True:
                self._pending_get = get = self._queue.get()
                self._on_change()
                first = yield get
                self._pending_get = None
                self._active = batch = [first]
                self._on_change()
                deadline = env.now + self.batch_timeout
                while (len(batch) < self.max_batch_size
                       and (self._queue.items or env.now < deadline)):
                    if self._queue.items:
                        self._pending_get = get = self._queue.get()
                        self._on_change()
                        batch.append((yield get))
                        self._pending_get = None
                        self._on_change()
                        continue
                    # Wait out the rest of the admission window.
                    yield env.timeout_pooled(max(0.0, deadline - env.now))
                    while (self._queue.items
                           and len(batch) < self.max_batch_size):
                        self._pending_get = get = self._queue.get()
                        self._on_change()
                        batch.append((yield get))
                        self._pending_get = None
                        self._on_change()
                    break
                self._n_batches += 1
                self._batch_size_sum += len(batch)
                if self.keep_completed:
                    self.batch_sizes.append(len(batch))
                yield from self._run_batch(batch)
                self._active = []
                self._on_change()
        except Interrupt as interrupt:
            cause = interrupt.cause
            if not isinstance(cause, BaseException):
                cause = RuntimeError(f"server {self.name!r} crashed")
            self._die(cause)

    def _run_batch(self, batch: list[InferenceRequest]):
        env = self.env
        while True:
            if self._pause_event is not None:
                # Controller-driven drain: hold the gathered batch (its
                # kernels have not launched) until resume().
                yield self._pause_event
                continue
            if env.now < self.stall_until:
                # Reconfiguration stall: the replica is alive but admits
                # no work (its partition is being reshaped underneath).
                yield env.timeout_pooled(self.stall_until - env.now)
                continue
            break
        self._executing = True
        try:
            yield from self._execute_batch(batch)
        finally:
            # Runs on normal completion, kernel failure, and crash
            # Interrupt alike: whatever happened, no kernels remain in
            # flight, so any drain() waiters can proceed.
            self._executing = False
            self._flush_drained()

    def _execute_batch(self, batch: list[InferenceRequest]):
        """Decode the batch; returns once it completed or failed.

        Only the first launch runs in the generator.  Each token step
        is then driven by callbacks on the step's own events — the
        kernel's ``done`` (:meth:`_on_kernel_done`), then the host-gap
        timeout (:meth:`_on_host_gap`) — and the step that ends the
        batch resumes this generator inline, so a step costs no
        generator resume and no event beyond those two.  A request
        finishes at the step that equals its token count, so a step
        walks the batch only when it is the next finishing one.
        """
        env = self.env
        for request in batch:
            request.start_time = env.now
        self._step = 0
        self._next_finish = min([r.n_tokens for r in batch])
        if self._launch_step():
            self._batch_end = end = env.event()
            yield end

    def _launch_step(self) -> bool:
        """Launch the next decode kernel; False if the launch failed
        (the batch then died here)."""
        kernel = self.batched_decode_kernel(len(self._active))
        try:
            if self.fail_next_launches > 0:
                self.fail_next_launches -= 1
                raise GpuLaunchError(
                    f"server {self.name!r}: transient launch failure"
                )
            done = self.client.launch(kernel)
        except Exception as exc:  # noqa: BLE001 - launch fault
            self._fail_batch(exc)
            return False
        done.callbacks.append(self._on_kernel_done)
        return True

    def _on_kernel_done(self, event: Event) -> None:
        if self._crashing:
            return  # the crash handler owns the batch now
        if not event._ok:
            # The batch dies with the kernel; the replica survives.
            event._defused = True
            self._fail_batch(event._value)
            self._end_batch()
            return
        self.env.timeout_pooled(
            self.llm.host_seconds_per_token * self.slowdown
        ).callbacks.append(self._on_host_gap)

    def _on_host_gap(self, _event: Event) -> None:
        if self._crashing:
            return
        self._step = step = self._step + 1
        if step == self._next_finish:
            now = self.env.now
            still_active = []
            for request in self._active:
                if request.n_tokens == step:
                    request.finish_time = now
                    self.n_completed += 1
                    if self.keep_completed:
                        self.completed.append(request)
                    if self.on_complete is not None:
                        self.on_complete(request)
                    request.done.succeed(request)
                else:
                    still_active.append(request)
            # A request finished: queue_depth fell.
            self._active = still_active
            self._on_change()
            self._next_finish = min([r.n_tokens for r in still_active],
                                    default=0)
        if not self._active or not self._launch_step():
            self._end_batch()

    def _end_batch(self) -> None:
        """Hand control back to the serving generator, inline."""
        end, self._batch_end = self._batch_end, None
        self._proc.resume_inline(end)

    # -- failure paths ------------------------------------------------------
    def _fail_batch(self, exc: BaseException) -> None:
        for request in self._active:
            self._fail_request(request, exc)
        self._active = []
        self._on_change()

    def _fail_request(self, request: InferenceRequest,
                      exc: BaseException) -> None:
        self.n_failed += 1
        if self.on_failure is not None:
            self.on_failure(request, exc)
        request.done.fail(exc)

    def _die(self, cause: BaseException) -> None:
        """Crash cleanup: fail every owned request, tear down kernels."""
        self.alive = False
        # A dead server leaves the routing index, whatever its depth.
        self._on_change()
        pending = self._pending_get
        self._pending_get = None
        if pending is not None:
            if not pending.triggered:
                # The queue must not hand a future request to a corpse.
                self._queue.cancel(pending)
            else:
                self._fail_request(pending.value, cause)
        for request in self._active:
            self._fail_request(request, cause)
        self._active = []
        while self._queue.items:
            self._fail_request(self._queue.items.popleft(), cause)
        self._purge_kernels(cause)
        if self.client.alive:
            self.client.close()

    def _purge_kernels(self, cause: BaseException) -> None:
        """Tear down this replica's kernels (its context died with it).

        Resident fluid tasks are cancelled and failed (pre-defused: the
        launching process died with the replica, so nobody else takes
        responsibility; a temporal pump waiting on one still observes
        the failure and rotates on).  Queued temporal kernels are
        dropped from the client's queue the same way.
        """
        client = self.client
        device = client.device
        for task in device.pool.tasks:
            if task.meta["client"] is client:
                device.pool.cancel(task)
                task.done._defused = True
                task.done.fail(cause)
        group = client.group
        if group._queues is not None:
            queued = group._queues.get(client.cid)
            if queued:
                while queued:
                    task = queued.popleft()
                    task.done._defused = True
                    task.done.fail(cause)

    def batched_decode_kernel(self, batch_size: int) -> Kernel:
        """One decode step for ``batch_size`` concurrent sequences.

        Weight traffic is read once for the whole batch; FLOPs and
        KV-cache traffic scale linearly; usable parallelism grows with
        the batch (more rows in every GEMM).  The Kernel for each batch
        size is built once and reused (kernels are immutable values —
        see :mod:`repro.gpu.kernel`).
        """
        kernel = self._kernel_by_batch.get(batch_size)
        if kernel is None:
            kernel = self._build_batched_kernel(batch_size)
            self._kernel_by_batch[batch_size] = kernel
        return kernel

    def _build_batched_kernel(self, batch_size: int) -> Kernel:
        base = self.llm.decode_kernel()
        rt = self.llm.runtime
        weight_traffic = rt.traffic_amplification * self.llm.weight_bytes
        kv_traffic = base.bytes_moved - weight_traffic
        return Kernel(
            flops=base.flops * batch_size,
            bytes_moved=weight_traffic + kv_traffic * batch_size,
            max_sms=min(self.client.device.spec.sms,
                        base.max_sms * batch_size),
            efficiency=base.efficiency,
            name=f"{base.name}-b{batch_size}",
        )

    # -- metrics -----------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        lats = [r.latency for r in self.completed]
        if not lats:
            raise RuntimeError("no completed requests yet")
        return float(np.mean(lats))

    @property
    def mean_batch_size(self) -> float:
        if self._n_batches == 0:
            return 0.0
        return self._batch_size_sum / self._n_batches


class OpenLoopClient:
    """Open-loop request generator with deterministic or Poisson arrivals.

    Three arrival sources, in precedence order:

    - ``arrivals``: an iterable of absolute timestamps (e.g. a streaming
      trace iterator from :mod:`repro.workloads.traces`);
    - ``rng``: Poisson arrivals at ``rate_rps`` — one scalar draw per
      arrival (generators may be shared between clients); in streaming
      mode gaps are drawn in numpy chunks instead, bit-identical for a
      client-owned generator;
    - neither: deterministic arrivals every ``1/rate_rps`` seconds.

    In the default mode every submitted request is retained in
    ``self.requests`` and completion is awaited with a single ``all_of``
    over all of them.  With ``streaming=True`` nothing is retained:
    each request's latency is pushed into ``stats`` (if given) by a
    ``done`` callback, and the client finishes when the completion
    counter reaches the submission counter — O(1) memory however long
    the trace.
    """

    def __init__(self, env: Environment, server: InferenceServer,
                 rate_rps: Optional[float] = None,
                 n_requests: Optional[int] = None, n_tokens: int = 20,
                 rng: Optional[np.random.Generator] = None,
                 arrivals: Optional[Iterable[float]] = None,
                 streaming: bool = False,
                 stats=None):
        if arrivals is None:
            if rate_rps is None or n_requests is None:
                raise ValueError("either arrivals or rate_rps+n_requests "
                                 "must be given")
            if rate_rps <= 0 or n_requests <= 0:
                raise ValueError("rate and request count must be positive")
        self.env = env
        self.server = server
        self.rate = rate_rps
        self.n_requests = n_requests
        self.n_tokens = n_tokens
        self.rng = rng
        self.arrivals = arrivals
        self.streaming = streaming
        self.stats = stats
        self.n_submitted = 0
        self.n_completed = 0
        self.requests: list[InferenceRequest] = []
        self._proc = env.process(self._generate())

    @property
    def done(self) -> Event:
        """Fires when every generated request has completed."""
        return self._proc

    def _gaps(self) -> Iterator[float]:
        if self.arrivals is not None:
            prev = self.env.now
            for t in self.arrivals:
                yield max(0.0, t - prev)
                prev = t
            return
        if self.rng is None:
            gap = 1.0 / self.rate
            for _ in range(self.n_requests):
                yield gap
            return
        scale = 1.0 / self.rate
        if not self.streaming:
            # One scalar draw per arrival.  Several clients may share a
            # generator (the batching study does), and sharing only
            # works if each client draws exactly at its arrival points.
            for _ in range(self.n_requests):
                yield float(self.rng.exponential(scale))
            return
        # Streaming mode: chunked numpy draws.  For a generator this
        # client owns, Generator.exponential(scale, size=n) is
        # bit-identical to n sequential scalar draws, so the arrival
        # times match the scalar path exactly while the per-call numpy
        # overhead is amortised across _GAP_CHUNK arrivals.  (A *shared*
        # generator would be consumed _GAP_CHUNK draws at a time and
        # reorder the stream across clients — streaming clients must own
        # their rng.)
        remaining = self.n_requests
        while remaining > 0:
            for g in self.rng.exponential(scale, size=min(_GAP_CHUNK,
                                                          remaining)):
                yield float(g)
            remaining -= min(_GAP_CHUNK, remaining)

    def _arrival_time_chunks(self) -> Iterator:
        """Absolute arrival times in chunks, for batched heap injection.

        Each chunk's times are exactly the values the per-gap path would
        have scheduled: the k-th arrival time is the (k-1)-th plus the
        k-th gap, accumulated with ``np.add.accumulate`` — a sequential
        left-to-right sum, so every float is bit-identical to the scalar
        ``t += gap`` chain.  The ``arrivals`` source may mix scalar
        timestamps and numpy chunk arrays (see
        :func:`repro.workloads.traces.iter_poisson_trace_chunks`).
        """
        env = self.env
        if self.arrivals is not None:
            prev = env.now   # raw previous arrival (clamping reference)
            s = env.now      # scheduled-time accumulator
            chunk: list[float] = []
            for t in self.arrivals:
                if isinstance(t, np.ndarray):
                    if t.size == 0:
                        continue
                    if chunk:
                        yield chunk
                        chunk = []
                    gaps = np.maximum(np.diff(t, prepend=prev), 0.0)
                    times = np.add.accumulate(
                        np.concatenate(((s,), gaps)))[1:]
                    prev = float(t[-1])
                    s = float(times[-1])
                    yield times
                else:
                    gap = t - prev
                    if gap < 0.0:
                        gap = 0.0
                    prev = t
                    s = s + gap
                    chunk.append(s)
                    if len(chunk) >= _GAP_CHUNK:
                        yield chunk
                        chunk = []
            if chunk:
                yield chunk
            return
        remaining = self.n_requests
        carry = env.now
        if self.rng is None:
            gap = 1.0 / self.rate
            while remaining > 0:
                n = min(_GAP_CHUNK, remaining)
                times = np.add.accumulate(
                    np.concatenate(((carry,), np.full(n, gap))))[1:]
                carry = float(times[-1])
                yield times
                remaining -= n
            return
        scale = 1.0 / self.rate
        while remaining > 0:
            n = min(_GAP_CHUNK, remaining)
            gaps = self.rng.exponential(scale, size=n)
            times = np.add.accumulate(np.concatenate(((carry,), gaps)))[1:]
            carry = float(times[-1])
            yield times
            remaining -= n

    def _generate(self):
        env = self.env
        if not self.streaming:
            for gap in self._gaps():
                yield env.timeout_pooled(gap)
                self.requests.append(self.server.submit(self.n_tokens))
                self.n_submitted += 1
            yield env.all_of([r.done for r in self.requests])
            self.n_completed = self.n_submitted
            return

        all_done = env.event(name="open-loop-drained")
        state = {"submitting": True}
        stats = self.stats

        def _on_done(ev: Event) -> None:
            self.n_completed += 1
            if stats is not None:
                request = ev.value
                stats.add(request.finish_time - request.arrival_time)
            if (not state["submitting"]
                    and self.n_completed == self.n_submitted):
                all_done.succeed()

        submit = self.server.submit
        n_tokens = self.n_tokens

        def _submit_one(_ev: Event) -> None:
            request = submit(n_tokens)
            self.n_submitted += 1
            request.done.callbacks.append(_on_done)

        # Batched injection: one pre-scheduled event per arrival (the
        # same event count as the per-gap path — the differential
        # harness counts them), heapified in one schedule_batch call per
        # chunk.  The chunk's last event doubles as the generator's
        # resume point: its _submit_one callback was installed at
        # creation, so it runs before the process resumes and computes
        # the next chunk from the final arrival time.
        for chunk in self._arrival_time_chunks():
            yield env.schedule_batch(chunk, _submit_one)[-1]
        state["submitting"] = False
        if self.n_completed == self.n_submitted:
            all_done.succeed()
        yield all_done
